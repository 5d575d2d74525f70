//! Per-connection plumbing: one reader thread (socket → decoder →
//! submission lane) and one writer thread (reply slots → socket), with
//! replies delivered strictly in request order.
//!
//! The reader never executes index operations itself — `GET`/`MGET`/
//! `SET`/`DEL` become [`Op`]s on the connection's submission lane and are
//! batch-executed there. `PING`/`INFO`/error replies are filled
//! immediately (they touch no keyed state), but still travel through the
//! same in-order slot queue, so a client can rely on reply N answering
//! request N. `SHUTDOWN` acknowledges `+OK`, then trips the server-wide
//! shutdown flag.
//!
//! A client that disconnects mid-stream (EOF or reset) just ends the
//! reader loop once it has read what the client sent; those ops still
//! execute — the executor fills their slots whether or not anyone is left
//! to read them — and the writer exits once the slot queue drains or the
//! first write fails (which does not stop the reader).

use crate::batch::{Op, ReplySlot};
use crate::protocol::{Decoder, Reply, Request};
use crate::server::ServerCtx;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Reader poll granularity: how promptly a blocked reader notices the
/// server-wide shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Serve one accepted connection to completion. Runs on its own thread;
/// spawns (and joins) the paired writer thread.
pub fn handle_connection(stream: TcpStream, ctx: Arc<ServerCtx>, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => {
            ctx.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let (tx, rx) = mpsc::channel::<Arc<ReplySlot>>();
    let writer = std::thread::Builder::new()
        .name(format!("resp-writer-{conn_id}"))
        .spawn(move || writer_loop(writer_stream, rx))
        .expect("spawn writer thread");

    reader_loop(stream, &ctx, conn_id, tx);

    // Sender dropped above: the writer drains what is queued, then exits.
    let _ = writer.join();
    ctx.stats.connections_closed.fetch_add(1, Ordering::Relaxed);
}

/// Decode requests and fan them out until EOF, error, or shutdown.
fn reader_loop(
    mut stream: TcpStream,
    ctx: &Arc<ServerCtx>,
    conn_id: u64,
    tx: mpsc::Sender<Arc<ReplySlot>>,
) {
    let lane = &ctx.lanes[(conn_id as usize) % ctx.lanes.len()];
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 16 * 1024];
    'conn: loop {
        if ctx.shutdown.load(Ordering::Acquire) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => decoder.feed(&buf[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        loop {
            match decoder.next_command() {
                Ok(Some(args)) => {
                    ctx.stats.commands.fetch_add(1, Ordering::Relaxed);
                    let slot = ReplySlot::new();
                    // A writer that died (client gone) reads no more
                    // replies; what the client sent still executes.
                    let _ = tx.send(Arc::clone(&slot));
                    match Request::parse(&args) {
                        Err(msg) => slot.fill(Reply::Error(msg)),
                        Ok(Request::Ping) => slot.fill(Reply::Simple("PONG")),
                        Ok(Request::Info) => {
                            slot.fill(Reply::Bulk(ctx.render_info().into_bytes()));
                        }
                        Ok(Request::Shutdown) => {
                            slot.fill(Reply::Simple("OK"));
                            ctx.shutdown.store(true, Ordering::Release);
                            break 'conn;
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
                Ok(None) => break,
                Err(e) => {
                    // Protocol error: report, then close — the stream
                    // cannot be resynchronized (module docs).
                    ctx.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    let slot = ReplySlot::new();
                    slot.fill(Reply::Error(format!("ERR {e}")));
                    let _ = tx.send(slot);
                    break 'conn;
                }
            }
        }
    }
}

/// Pop reply slots in submission order, block on each until its executor
/// fills it, and write the encoded reply. Flushes whenever the queue
/// momentarily empties (one syscall per burst, not per reply).
fn writer_loop(stream: TcpStream, rx: mpsc::Receiver<Arc<ReplySlot>>) {
    let mut out = std::io::BufWriter::with_capacity(32 * 1024, stream);
    let mut encode_buf = Vec::with_capacity(4096); // audit:allow(page-literal): initial reply-buffer capacity, not a page size
    let mut next = rx.try_recv();
    loop {
        let slot = match next {
            Ok(slot) => slot,
            Err(mpsc::TryRecvError::Empty) => {
                if out.flush().is_err() {
                    return;
                }
                match rx.recv() {
                    Ok(slot) => slot,
                    Err(_) => return, // reader hung up and queue drained
                }
            }
            Err(mpsc::TryRecvError::Disconnected) => {
                let _ = out.flush();
                return;
            }
        };
        encode_buf.clear();
        slot.wait().encode(&mut encode_buf);
        if out.write_all(&encode_buf).is_err() {
            // Client is gone. Keep draining slots (executors fill them
            // regardless) without writing, so the reader's join is not
            // held up; exit when the sender closes.
            while rx.recv().is_ok() {}
            return;
        }
        next = rx.try_recv();
    }
}
