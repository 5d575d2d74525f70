//! Server configuration.

use std::time::Duration;

/// Which index arm serves the data — the two comparison arms of the
/// paper's evaluation, now over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Shortcut-EH: lookups route through the rewired shortcut directory
    /// whenever it is in sync and the fan-in bound allows.
    #[default]
    Shortcut,
    /// EH baseline: the same index with shortcut routing disabled (fan-in
    /// threshold 0), so every lookup walks the traditional directory.
    Eh,
}

impl Engine {
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Shortcut => "shortcut-eh",
            Engine::Eh => "eh",
        }
    }

    /// Parse `eh` / `shortcut` (the `--engine` flag).
    pub fn parse(s: &str) -> Option<Engine> {
        match s.to_ascii_lowercase().as_str() {
            "shortcut" | "shortcut-eh" => Some(Engine::Shortcut),
            "eh" | "traditional" => Some(Engine::Eh),
            _ => None,
        }
    }
}

/// Everything `shortcut-server` is told at startup. `Default` is a
/// sensible laptop-scale server; the binary maps CLI flags onto the
/// fields 1:1.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port —
    /// the e2e tests use that).
    pub addr: String,
    /// `s`: the index is partitioned into `2^s` shards (see
    /// `IndexBuilder::shards`). More shards = more write parallelism
    /// across connection threads.
    pub shard_bits: u32,
    /// Expected live-entry capacity (pool sizing hint).
    pub capacity: usize,
    /// Ignored: a connection runs what it read without waiting for more.
    /// Kept only for callers that still set it.
    pub batch_window: Duration,
    /// The most requests run as one batch; a read that holds more runs as
    /// several batches, in order.
    pub max_batch: usize,
    /// Which arm serves the data.
    pub engine: Engine,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:6399".to_string(),
            shard_bits: 2,
            capacity: 1_000_000,
            batch_window: Duration::ZERO,
            max_batch: 256,
            engine: Engine::Shortcut,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_parses_both_arms() {
        assert_eq!(Engine::parse("eh"), Some(Engine::Eh));
        assert_eq!(Engine::parse("SHORTCUT"), Some(Engine::Shortcut));
        assert_eq!(Engine::parse("shortcut-eh"), Some(Engine::Shortcut));
        assert_eq!(Engine::parse("nope"), None);
        assert_eq!(Engine::default().as_str(), "shortcut-eh");
    }

    #[test]
    fn default_config_is_sane() {
        let c = ServerConfig::default();
        assert!(c.max_batch > 1);
        assert!(c.capacity > 0);
    }
}
