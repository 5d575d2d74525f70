//! Wall-clock helpers.

use std::time::{Duration, Instant};

/// A simple stopwatch.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// Minor page faults the calling thread has taken so far (`minflt` in
/// `/proc/thread-self/stat`): the count behind "the first access pays the
/// page-table population", where a wall-clock comparison only suggests
/// it. 0 where procfs is not mounted.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // Fields count from after the parenthesised command name, which may
    // itself hold spaces: state, ppid, pgrp, session, tty, tpgid, flags,
    // then minflt.
    stat.rsplit(')')
        .next()
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|minflt| minflt.parse().ok())
        .unwrap_or(0)
}

/// Milliseconds as f64.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds as f64.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Per-item microseconds.
pub fn us_per(d: Duration, items: usize) -> f64 {
    if items == 0 {
        0.0
    } else {
        us(d) / items as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let d = Duration::from_millis(1500);
        assert!((ms(d) - 1500.0).abs() < 1e-9);
        assert!((us(d) - 1_500_000.0).abs() < 1e-6);
        assert!((us_per(d, 1000) - 1500.0).abs() < 1e-9);
        assert_eq!(us_per(d, 0), 0.0);
    }
}
