//! The server proper: listener + acceptor, shared context, `INFO`
//! rendering, and the graceful-shutdown sequence.
//!
//! Thread topology: one acceptor, and one thread per live connection,
//! which runs its own reads against the index ([`crate::batch`]). With `C`
//! live connections the index has `C` reader threads; the reader pin
//! gives up to 32 live threads a slot of their own, and readers past
//! those share overflow stripes through `SeqCst` read-modify-writes
//! (`crates/rewire/src/retire.rs`).
//!
//! Shutdown, encoded in [`Server::join`]: the shutdown flag stops the
//! acceptor (nonblocking poll loop) and every connection (bounded read
//! timeout) once it has run and answered what it read; the connections
//! are joined, so no accepted request is dropped; then the final
//! [`StatsSnapshot`] and server counters are captured for the report.

use crate::batch::ServerStats;
use crate::config::{Engine, ServerConfig};
use shortcut_rewire::sync::{AtomicBool, AtomicU64, Ordering};
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
    pub stats: ServerStats,
    /// Stops the acceptor and the connections (set by `SHUTDOWN` or
    /// [`Server::shutdown`]).
    pub shutdown: AtomicBool,
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
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let accepted = count(&s.connections_accepted);
        let open = accepted.saturating_sub(count(&s.connections_closed));
        out.push_str("# server\r\n");
        let _ = writeln!(out, "engine:{}\r", self.cfg.engine.as_str());
        let _ = writeln!(out, "uptime_seconds:{}\r", self.started.elapsed().as_secs());
        let _ = writeln!(out, "max_batch:{}\r", self.cfg.max_batch);
        out.push_str("# clients\r\n");
        let _ = writeln!(out, "connections_accepted:{accepted}\r");
        let _ = writeln!(out, "connections_open:{open}\r");
        let _ = writeln!(out, "commands:{}\r", count(&s.commands));
        let _ = writeln!(out, "protocol_errors:{}\r", count(&s.protocol_errors));
        out.push_str("# batching\r\n");
        let _ = writeln!(out, "read_batches:{}\r", count(&s.read_batches));
        let _ = writeln!(out, "read_ops:{}\r", count(&s.read_ops));
        let _ = writeln!(out, "read_keys:{}\r", count(&s.read_keys));
        let _ = writeln!(
            out,
            "mean_read_batch_keys:{:.2}\r",
            s.mean_read_batch_keys()
        );
        let _ = writeln!(out, "mean_read_batch_ops:{:.2}\r", s.mean_read_batch_ops());
        let _ = writeln!(out, "write_batches:{}\r", count(&s.write_batches));
        let _ = writeln!(out, "write_ops:{}\r", count(&s.write_ops));
        let _ = writeln!(out, "del_batches:{}\r", count(&s.del_batches));
        let _ = writeln!(out, "del_keys:{}\r", count(&s.del_keys));
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

/// What [`Server::join`] hands back once every connection has ended.
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
}

impl Server {
    /// Build the index, bind the listener, and spawn the acceptor.
    /// Returns once the server is accepting.
    ///
    /// # Errors
    ///
    /// Index construction failure is surfaced as `io::Error` alongside
    /// bind errors.
    pub fn spawn(cfg: ServerConfig) -> io::Result<Server> {
        let mut builder = ShortcutIndex::builder()
            .capacity(cfg.capacity)
            .shards(cfg.shard_bits)
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

        let ctx = Arc::new(ServerCtx {
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            index,
            cfg,
        });

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

    /// Block until the server has shut down (see module docs) and return
    /// the final stats.
    ///
    /// # Panics
    ///
    /// If the acceptor panicked (it could not spawn a connection thread):
    /// the handles of its connections went with it, so `join` could not
    /// wait for them.
    pub fn join(self) -> ShutdownReport {
        // The acceptor exits on the flag, and with it no new connection
        // appears; each connection exits within one read-poll of the flag.
        let conns = self.acceptor.join().expect("the acceptor panicked");
        for conn in conns {
            let _ = conn.join();
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
                    .spawn(move || crate::conn::handle_connection(stream, ctx))
                    .expect("spawn connection thread");
                conns.push(handle);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    conns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            capacity: 10_000,
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
