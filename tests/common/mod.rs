//! Shared by the integration tests of this package and, through
//! `#[path]`, of `shortcut-server`: the one bounded wait.

use std::time::{Duration, Instant};

/// Poll `cond` until it holds. The deadline bounds a hang, it does not
/// assert a speed: generous enough for the slowest, busiest host the
/// suite runs on, and the panic names `what` never happened.
pub fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}
