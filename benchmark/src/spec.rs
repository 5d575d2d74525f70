//! The benchmark's contract in one place: workloads, metric names, units,
//! directions and bounds. `BENCHMARK.json` is this table printed
//! (`benchmark spec`); `tests/contract.rs` fails if the two drift apart
//! or if a run emits anything else.

use crate::json::Json;

pub const RUN_SECONDS: u32 = 15;

pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// One bit per workload: which workloads carry a per-layer metric.
pub const HOT: u8 = 1;
pub const COLD: u8 = 2;
pub const CHURN: u8 = 4;
pub const WIRE: u8 = 8;
const POINT: u8 = HOT | COLD;
const ALL: u8 = POINT | CHURN | WIRE;

pub struct Workload {
    pub name: &'static str,
    pub bit: u8,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_hot",
        bit: HOT,
        why: "2^19 keys loaded, probes from a hot set of 1024: all in L1/L2 and the TLB, so this is the instruction path (hash, route, lock, ticket, pin, probe, counters)",
    },
    Workload {
        name: "point_cold",
        bit: COLD,
        why: "same index, probes uniform over all 2^19 keys: 32 MB of 4 KB buckets behind 16k mappings, so each lookup pays a translation and a dependent miss, the paper's regime",
    },
    Workload {
        name: "grow_churn",
        bit: CHURN,
        why: "fresh instances grown 0 to 2.4M keys in 36 epochs of insert, remove, sync, read: splits, doublings, mapper creates and updates, reclaim, and the 65530-VMA budget crossed",
    },
    Workload {
        name: "server_mixed",
        bit: WIRE,
        why: "shortcut-server in-process over loopback, 2 closed-loop connections, depth 16, 90% GET 10% SET zipf 0.99: decode, lane, window, reply slot and socket do the work, not the engine",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these with `--trace 0`, each under
/// its one definition (README.md): the workload is what varies.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "speedup_vs_eh",
        unit: "ratio",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "speedup_vs_std",
        unit: "ratio",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "mem_bytes_per_key",
        unit: "B",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Workloads (bits) that measure it; it reads 0 on the others.
    pub on: u8,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str, on: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
    }
}

/// Every workload prints every one of these with `--trace 1` (the
/// contract's rule); a workload must produce exactly those whose `on`
/// names it, and `main` prints the rest as 0.
pub const PER_LAYER: [PerLayer; 66] = [
    // The issue's end-to-end names, each on the workloads its definition
    // applies to. They ride in the traced set because the contract gives
    // a metric one bound for all four workloads.
    layer("e2e.get_ns", "ns", "lower", POINT | CHURN),
    layer("e2e.get_many_ns", "ns", "lower", POINT),
    layer("e2e.insert_ns", "ns", "lower", CHURN),
    layer("e2e.insert_block_p99_us", "us", "lower", CHURN),
    layer("e2e.qps", "1/s", "higher", WIRE),
    layer("e2e.p50_us", "us", "lower", WIRE),
    layer("e2e.p99_us", "us", "lower", WIRE),
    layer("e2e.shortcut_served_frac", "ratio", "higher", ALL),
    // The depth ladder over the workload's own probe stream.
    layer("exhash.hash_ns", "ns", "lower", POINT),
    layer("exhash.bucket_get_ns", "ns", "lower", POINT),
    layer("exhash.eh_get_ns", "ns", "lower", POINT | CHURN),
    layer("exhash.dir_walk_ns", "ns", "lower", POINT),
    layer("exhash.shortcut_get_ns", "ns", "lower", POINT),
    layer("exhash.shard_route_ns", "ns", "lower", POINT),
    layer("exhash.shard_route_ns.s2", "ns", "lower", POINT),
    layer("core.ticket_ns", "ns", "lower", POINT),
    layer("rewire.pin_ns", "ns", "lower", POINT),
    layer("core.per_op_guard_ns", "ns", "lower", POINT),
    layer("core.shortcut_follow_ns", "ns", "lower", POINT),
    layer("core.trad_follow_ns", "ns", "lower", POINT),
    layer("vmsim.walk_steps_per_lookup.trad", "count", "lower", POINT),
    layer(
        "vmsim.walk_steps_per_lookup.shortcut",
        "count",
        "lower",
        POINT,
    ),
    layer("vmsim.tlb_miss_per_lookup.trad", "count", "lower", POINT),
    layer(
        "vmsim.tlb_miss_per_lookup.shortcut",
        "count",
        "lower",
        POINT,
    ),
    // Structure and maintenance counters of the Shortcut arm.
    layer("exhash.global_depth", "count", "lower", ALL),
    layer("exhash.splits", "count", "lower", ALL),
    layer("exhash.doublings", "count", "lower", ALL),
    layer("core.creates_applied", "count", "higher", ALL),
    layer("core.updates_applied", "count", "higher", ALL),
    layer("core.creates_deferred", "count", "lower", ALL),
    layer("core.creates_coarse", "count", "lower", ALL),
    layer("core.creates_skipped", "count", "lower", ALL),
    layer("core.compaction_pages_moved", "count", "lower", ALL),
    layer("core.out_of_sync_frac", "ratio", "lower", ALL),
    layer("core.sync_wait_ms", "ms", "lower", POINT | CHURN),
    layer("rewire.mmap_calls_per_insert", "count", "lower", ALL),
    layer("rewire.pages_rewired", "count", "lower", ALL),
    layer("rewire.vmas_live", "count", "lower", ALL),
    layer("rewire.vmas_peak", "count", "lower", ALL),
    layer("rewire.vmas_reclaimed", "count", "higher", ALL),
    layer("rewire.vma_estimate_drift", "count", "lower", CHURN),
    layer("rewire.set_slot_us", "us", "lower", CHURN),
    layer("rewire.populate_us_per_page", "us", "lower", CHURN),
    layer("rewire.alloc_page_ns", "ns", "lower", CHURN),
    layer("rewire.drop_ms", "ms", "lower", ALL),
    // The wire.
    layer("server.decode_ns", "ns", "lower", WIRE),
    layer("server.encode_ns", "ns", "lower", WIRE),
    layer("server.lane_hop_ns", "ns", "lower", WIRE),
    layer("server.execute_ns_per_op", "ns", "lower", WIRE),
    layer("server.mean_read_batch_keys", "count", "higher", WIRE),
    layer("server.read_batches", "count", "lower", WIRE),
    layer("server.write_batches", "count", "lower", WIRE),
    layer("server.protocol_errors", "count", "lower", WIRE),
    layer("server.engine_share", "ratio", "lower", WIRE),
    layer("server.qps.window0", "1/s", "higher", WIRE),
    layer("server.p50_us.window0", "us", "lower", WIRE),
    // The tracer itself.
    layer("trace.overhead_frac", "ratio", "lower", ALL),
    layer("trace.spans", "count", "lower", ALL),
    layer("trace.self_ms.facade", "ms", "lower", ALL),
    layer("trace.self_ms.exhash", "ms", "lower", ALL),
    layer("trace.self_ms.core", "ms", "lower", ALL),
    layer("trace.self_ms.rewire", "ms", "lower", ALL),
    layer("trace.self_ms.vmsim", "ms", "lower", ALL),
    layer("trace.self_ms.server", "ms", "lower", ALL),
    layer("trace.self_ms.bench", "ms", "lower", ALL),
    layer("trace.wall_s", "s", "lower", ALL),
];

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
