//! Per-connection plumbing: one thread per connection reads a chunk,
//! submits every complete command in it, waits for their replies in
//! request order, writes them with one `write_all`, and only then reads
//! again.
//!
//! The thread never executes index operations itself — `GET`/`MGET`/
//! `SET`/`DEL` become [`Op`]s on the connection's submission lane and are
//! batch-executed there. `PING`/`INFO`/error replies are filled at once
//! (they touch no keyed state) but keep their place among the chunk's
//! reply slots, so a client can rely on reply N answering request N.
//! `SHUTDOWN` acknowledges `+OK`, then trips the server-wide shutdown
//! flag.
//!
//! A connection holds at most one read's commands (16 KB, plus the
//! decoder's partial frame). A client that stops reading its
//! replies meets TCP backpressure: the thread blocks in `write_all` and
//! reads nothing more, and no server-side queue grows. A client that
//! writes more than the socket buffers hold before it reads any reply
//! stalls the same way, as it would against any blocking server.
//!
//! Batch-synchronous clients (send a batch, read all its replies) see the
//! same flow as with a separate writer thread. A streaming client loses
//! the overlap between reading chunk k+1 and writing chunk k's replies; no
//! workload here measures that case.
//!
//! A client that disconnects mid-stream (EOF or reset) ends the loop once
//! it has read what the client sent; those ops still execute. After the
//! first failed write no reply is written, but what the client sent is
//! still read and executed.

use crate::batch::{Lane, Op, ReplySlot};
use crate::protocol::{Decoder, Reply, Request};
use crate::server::ServerCtx;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Read poll granularity: how promptly a blocked read notices the
/// server-wide shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Bytes read per turn of the loop: all a connection submits before it
/// writes the replies.
const READ_CHUNK: usize = 16 * 1024;

/// Serve one accepted connection to completion on the calling thread.
pub fn handle_connection(mut stream: TcpStream, ctx: Arc<ServerCtx>, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let lane = &ctx.lanes[(conn_id as usize) % ctx.lanes.len()];
    let mut decoder = Decoder::new();
    let mut buf = [0u8; READ_CHUNK];
    let mut slots = Vec::new();
    // Cleared by a failed write: the client is gone, what it sent still runs.
    let mut replying = true;
    let mut open = true;
    let mut out = Vec::with_capacity(4096); // audit:allow(page-literal): initial reply-buffer capacity, not a page size
    while open && !ctx.shutdown.load(Ordering::Acquire) {
        match stream.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => continue,
                _ => break,
            },
        }
        open = submit(&mut decoder, &ctx, lane, &mut slots);
        out.clear();
        for slot in slots.drain(..) {
            slot.wait().encode(&mut out);
        }
        replying = replying && stream.write_all(&out).is_ok();
    }
    ctx.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
}

/// Submit every complete command the decoder holds, pushing each one's
/// reply slot onto `slots` in request order. Returns `false` when the
/// connection closes after these replies: on `SHUTDOWN`, and on a protocol
/// error, since the stream cannot be resynchronized.
fn submit(
    decoder: &mut Decoder,
    ctx: &ServerCtx,
    lane: &Lane,
    slots: &mut Vec<Arc<ReplySlot>>,
) -> bool {
    loop {
        let args = match decoder.next_command() {
            Ok(Some(args)) => args,
            Ok(None) => return true,
            Err(e) => {
                ctx.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let slot = ReplySlot::new();
                slot.fill(Reply::Error(format!("ERR {e}")));
                slots.push(slot);
                return false;
            }
        };
        ctx.stats.commands.fetch_add(1, Ordering::Relaxed);
        let slot = ReplySlot::new();
        slots.push(Arc::clone(&slot));
        match Request::parse(&args) {
            Err(msg) => slot.fill(Reply::Error(msg)),
            Ok(Request::Ping) => slot.fill(Reply::Simple("PONG")),
            Ok(Request::Info) => slot.fill(Reply::Bulk(ctx.render_info().into_bytes())),
            Ok(Request::Shutdown) => {
                slot.fill(Reply::Simple("OK"));
                ctx.shutdown.store(true, Ordering::Release);
                return false;
            }
            Ok(Request::Get(key)) => lane.push(Op::Read {
                keys: vec![key],
                single: true,
                slot,
            }),
            Ok(Request::MGet(keys)) => lane.push(Op::Read {
                keys,
                single: false,
                slot,
            }),
            Ok(Request::Set(key, value)) => lane.push(Op::Write { key, value, slot }),
            Ok(Request::Del(keys)) => lane.push(Op::Remove { keys, slot }),
        }
    }
}
