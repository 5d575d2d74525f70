//! The server proper: listener + acceptor, executor pool, shared context,
//! `INFO` rendering, and the ordered graceful-shutdown sequence.
//!
//! Thread topology (for `executors = E`, `C` live connections):
//!
//! ```text
//! acceptor ──spawns──▶ C × connection ──lanes[conn % E]──▶ E × executor
//!                          ▲                                   │
//!                          └──────────── reply slots ──────────┘
//! ```
//!
//! Shutdown ordering matters and is encoded in [`Server::join`]:
//! 1. the shutdown flag stops the acceptor (nonblocking poll loop) and
//!    every connection (bounded read timeout) once it has written the
//!    replies to what it read;
//! 2. connections are joined **first** — only then can no new ops enter
//!    the lanes, and every submitted op still has a live executor to fill
//!    its slot (so a connection waiting on its replies never hangs);
//! 3. the drain flag releases the executors, which finish whatever is
//!    left in their lane and exit — no accepted request is dropped;
//! 4. the final [`StatsSnapshot`] and server counters are captured for
//!    the shutdown report.

use crate::batch::{Lane, RunBuffers, ServerStats};
use crate::config::{Engine, ServerConfig};
use shortcut_rewire::sync::{AtomicBool, Ordering};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taking_the_shortcut::{CompactionPolicy, ShortcutIndex, StatsSnapshot};

/// Acceptor poll granularity (nonblocking accept + nap, so the loop can
/// watch the shutdown flag without a self-connect trick).
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// State shared by every thread in the server.
#[derive(Debug)]
pub struct ServerCtx {
    pub cfg: ServerConfig,
    pub index: ShortcutIndex,
    /// One submission lane per executor; connections hash onto them.
    pub lanes: Vec<Lane>,
    pub stats: ServerStats,
    /// Stops the acceptor and the connections (set by `SHUTDOWN` or
    /// [`Server::shutdown`]).
    pub shutdown: AtomicBool,
    /// Releases the executors once the lanes can only shrink; set by
    /// [`Server::join`] *after* the connections are joined.
    drain: AtomicBool,
    started: Instant,
}

impl ServerCtx {
    /// Render the `INFO` reply: server + batching sections, the index's
    /// stable [`StatsSnapshot`] rendering, and a per-shard breakdown.
    /// Line format is `key:value` / the snapshot's `group: k=v ...` —
    /// both greppable; the e2e test and `loadgen` parse this.
    pub fn render_info(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let s = &self.stats;
        let open = s
            .connections_accepted
            .load(Ordering::Relaxed)
            .saturating_sub(s.connections_closed.load(Ordering::Relaxed));
        out.push_str("# server\r\n");
        let _ = writeln!(out, "engine:{}\r", self.cfg.engine.as_str());
        let _ = writeln!(out, "uptime_seconds:{}\r", self.started.elapsed().as_secs());
        let _ = writeln!(out, "executors:{}\r", self.lanes.len());
        let _ = writeln!(
            out,
            "batch_window_us:{}\r",
            self.cfg.batch_window.as_micros()
        );
        let _ = writeln!(out, "max_batch:{}\r", self.cfg.max_batch);
        out.push_str("# clients\r\n");
        let _ = writeln!(
            out,
            "connections_accepted:{}\r",
            s.connections_accepted.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "connections_open:{open}\r");
        let _ = writeln!(out, "commands:{}\r", s.commands.load(Ordering::Relaxed));
        let _ = writeln!(
            out,
            "protocol_errors:{}\r",
            s.protocol_errors.load(Ordering::Relaxed)
        );
        out.push_str("# batching\r\n");
        let _ = writeln!(
            out,
            "read_batches:{}\r",
            s.read_batches.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "read_ops:{}\r", s.read_ops.load(Ordering::Relaxed));
        let _ = writeln!(out, "read_keys:{}\r", s.read_keys.load(Ordering::Relaxed));
        let _ = writeln!(
            out,
            "mean_read_batch_keys:{:.2}\r",
            s.mean_read_batch_keys()
        );
        let _ = writeln!(out, "mean_read_batch_ops:{:.2}\r", s.mean_read_batch_ops());
        let _ = writeln!(
            out,
            "write_batches:{}\r",
            s.write_batches.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "write_ops:{}\r", s.write_ops.load(Ordering::Relaxed));
        let _ = writeln!(
            out,
            "del_batches:{}\r",
            s.del_batches.load(Ordering::Relaxed)
        );
        let _ = writeln!(out, "del_keys:{}\r", s.del_keys.load(Ordering::Relaxed));
        out.push_str("# index\r\n");
        let snapshot = self.index.stats();
        for line in snapshot.to_string().lines() {
            let _ = writeln!(out, "{line}\r");
        }
        out.push_str("# shards\r\n");
        for i in 0..self.index.shard_count() {
            let sh = self.index.shard_stats(i);
            let _ = writeln!(
                out,
                "shard{}: entries={} global_depth={} buckets={} in_sync={} \
                 bias_revocations={} bias_rearms={}\r",
                i,
                sh.len,
                sh.global_depth,
                sh.bucket_count,
                sh.in_sync,
                sh.bias_revocations,
                sh.bias_rearms
            );
        }
        out
    }
}

/// What [`Server::join`] hands back after the drain completes.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final merged index snapshot (render with `Display`).
    pub snapshot: StatsSnapshot,
    /// Final `INFO` text (server + batching counters included).
    pub info: String,
}

/// A running server. Obtain with [`Server::spawn`]; stop with a
/// `SHUTDOWN` command or [`Server::shutdown`], then [`Server::join`].
#[derive(Debug)]
pub struct Server {
    ctx: Arc<ServerCtx>,
    addr: SocketAddr,
    /// Hands back the handles of the connections it spawned when it exits.
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Build the index, bind the listener, and spawn the acceptor and
    /// executor pool. Returns once the server is accepting.
    ///
    /// # Errors
    ///
    /// Index construction failure is surfaced as `io::Error` alongside
    /// bind errors.
    pub fn spawn(cfg: ServerConfig) -> io::Result<Server> {
        let mut builder = ShortcutIndex::builder()
            .capacity(cfg.capacity)
            .shards(cfg.shard_bits)
            .slot_pages(cfg.slot_pages)
            .compaction(CompactionPolicy::on());
        if cfg.engine == Engine::Eh {
            // The EH baseline arm: identical server, shortcut routing off.
            builder = builder.fanin_threshold(0.0);
        }
        let index = builder
            .build()
            .map_err(|e| io::Error::other(format!("index construction: {e}")))?;

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let executors_n = cfg.executors.max(1);
        let ctx = Arc::new(ServerCtx {
            lanes: (0..executors_n).map(|_| Lane::new()).collect(),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            drain: AtomicBool::new(false),
            started: Instant::now(),
            index,
            cfg,
        });

        let executors = (0..executors_n)
            .map(|i| {
                let ctx = Arc::clone(&ctx);
                std::thread::Builder::new()
                    .name(format!("executor-{i}"))
                    .spawn(move || executor_loop(&ctx, i))
                    .expect("spawn executor")
            })
            .collect();

        let acceptor = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &ctx))
                .expect("spawn acceptor")
        };

        Ok(Server {
            ctx,
            addr,
            acceptor,
            executors,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared context (tests inspect counters through this).
    pub fn ctx(&self) -> &Arc<ServerCtx> {
        &self.ctx
    }

    /// Trip the shutdown flag (same effect as a `SHUTDOWN` command).
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::Release);
    }

    /// Block until the server has shut down, running the ordered drain
    /// (see module docs), and return the final stats.
    ///
    /// # Panics
    ///
    /// If the acceptor panicked (it could not spawn a connection thread):
    /// the handles of its connections went with it, so the drain could not
    /// wait for them.
    pub fn join(mut self) -> ShutdownReport {
        // The acceptor exits on the flag, and with it no new connection
        // appears; each connection exits within one read-poll of the flag.
        let conns = self.acceptor.join().expect("the acceptor panicked");
        for conn in conns {
            let _ = conn.join();
        }
        // Lanes can only shrink now — release the executors.
        self.ctx.drain.store(true, Ordering::Release);
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
        ShutdownReport {
            snapshot: self.ctx.index.stats(),
            info: self.ctx.render_info(),
        }
    }
}

/// Accept loop: nonblocking poll so the shutdown flag is honored without
/// needing a wakeup connection. Returns the handles of the connections it
/// spawned.
fn acceptor_loop(listener: TcpListener, ctx: &Arc<ServerCtx>) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    while !ctx.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let conn_id = next_id;
                next_id += 1;
                ctx.stats
                    .connections_accepted
                    .fetch_add(1, Ordering::Relaxed);
                let ctx = Arc::clone(ctx);
                let handle = std::thread::Builder::new()
                    .name(format!("resp-conn-{conn_id}"))
                    .spawn(move || crate::conn::handle_connection(stream, ctx, conn_id))
                    .expect("spawn connection thread");
                conns.push(handle);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    conns
}

/// Executor loop: drain the owned lane, execute, repeat; exit on the
/// drain-flag-and-empty contract encoded in `Lane::drain`.
fn executor_loop(ctx: &Arc<ServerCtx>, lane_idx: usize) {
    let lane = &ctx.lanes[lane_idx];
    let mut buffers = RunBuffers::default();
    loop {
        let ops = lane.drain(ctx.cfg.max_batch, ctx.cfg.batch_window, &ctx.drain);
        if ops.is_empty() {
            return;
        }
        buffers.execute(&ctx.index, &ctx.stats, ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            capacity: 10_000,
            executors: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn spawn_bind_shutdown_join() {
        let server = Server::spawn(quick_cfg()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        let report = server.join();
        assert_eq!(report.snapshot.len, 0);
        assert!(report.info.contains("engine:shortcut-eh"));
    }

    #[test]
    fn eh_engine_disables_shortcut_routing() {
        let mut cfg = quick_cfg();
        cfg.engine = Engine::Eh;
        let server = Server::spawn(cfg).unwrap();
        assert!(server.ctx().render_info().contains("engine:eh"));
        server.shutdown();
        server.join();
    }

    #[test]
    fn info_renders_all_sections() {
        let server = Server::spawn(quick_cfg()).unwrap();
        let info = server.ctx().render_info();
        for needle in [
            "# server",
            "# clients",
            "# batching",
            "# index",
            "# shards",
            "mean_read_batch_keys:",
            "lookups:",
            "shard0:",
        ] {
            assert!(info.contains(needle), "INFO missing {needle}:\n{info}");
        }
        server.shutdown();
        server.join();
    }
}
