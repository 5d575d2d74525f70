//! CPU placement of the driver thread and the `host` block printed on
//! every run.

use crate::json::Json;
use taking_the_shortcut::{max_map_count, probe_backend, PinStrategy};

// std links the C library; the vendored `libc` shim does not declare
// these three.
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_getcpu() -> i32;
}

/// CPU sets are one 64-bit word here: hosts this benchmark is sized for
/// have 1–64 CPUs (higher-numbered CPUs are simply never chosen).
fn affinity() -> u64 {
    let mut mask = 0u64;
    // SAFETY: `mask` is a valid, writable 8-byte CPU set for the call.
    let rc = unsafe { sched_getaffinity(0, 8, &mut mask) };
    if rc == 0 {
        mask
    } else {
        1
    }
}

fn set_affinity(mask: u64) -> bool {
    // SAFETY: `mask` is a valid 8-byte CPU set; pid 0 is the caller.
    unsafe { sched_setaffinity(0, 8, &mask) == 0 }
}

/// Where the threads of an in-process workload run.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPUs this process may use, as found at start.
    allowed: u64,
    /// The last allowed CPU: the driver thread's.
    pub driver_cpu: u32,
}

impl Placement {
    pub fn detect() -> Placement {
        let allowed = affinity();
        Placement {
            allowed,
            driver_cpu: 63 - allowed.leading_zeros().min(63),
        }
    }

    pub fn cpus(&self) -> u32 {
        self.allowed.count_ones()
    }

    /// Pin the calling thread to the driver CPU. Returns whether the
    /// kernel now reports exactly that placement.
    pub fn pin_driver(&self) -> bool {
        let want = 1u64 << self.driver_cpu;
        // SAFETY: no arguments; returns the current CPU number.
        set_affinity(want)
            && affinity() == want
            && unsafe { sched_getcpu() } == self.driver_cpu as i32
    }

    /// Run `f` on a fresh thread that may use every allowed CPU *except*
    /// the driver's (all of them on a 1-CPU host). Threads inherit the
    /// mask of the thread that spawns them, so an index built inside `f`
    /// gets its mapper thread off the driver's CPU — built on the pinned
    /// driver thread itself, the mapper would time-share that one CPU
    /// with the measured loop and never catch up.
    pub fn off_driver<T: Send>(&self, f: impl FnOnce() -> T + Send) -> T {
        let others = self.allowed & !(1u64 << self.driver_cpu);
        let mask = if others == 0 { self.allowed } else { others };
        std::thread::scope(|s| {
            s.spawn(move || {
                set_affinity(mask);
                f()
            })
            .join()
            .expect("builder thread panicked")
        })
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the tree the benchmark runs from, read from `.git`
/// without spawning git; the driver's checkout is not a repository, so
/// there this is `"unknown"`.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// Number of mappings the kernel holds for this process.
pub fn proc_maps_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .map(|text| text.lines().count())
        .unwrap_or(0)
}

pub fn host_block(placement: &Placement) -> Json {
    let pin = PinStrategy::detect();
    Json::obj([
        ("nproc", Json::Num(f64::from(placement.cpus()))),
        ("driver_cpu", Json::Num(f64::from(placement.driver_cpu))),
        ("cpu_model", Json::str(cpu_model())),
        ("vm_max_map_count", Json::Num(max_map_count() as f64)),
        ("membarrier", Json::Bool(pin == PinStrategy::Asymmetric)),
        ("pin_strategy", Json::str(pin.to_string())),
        ("probe_backend", Json::str(probe_backend().name())),
        ("git_rev", Json::str(git_rev())),
    ])
}
