//! A small session-store scenario: the workload class the paper's intro
//! motivates (point lookups dominating, bursts of new sessions, strict
//! latency budget on reads).
//!
//! Sessions map a 64-bit session id to a packed (user id, expiry) value.
//! Reads outnumber writes 50:1; expired sessions get deleted in sweeps.
//! Writes go through the fallible API — a store that outgrows its pool
//! gets a typed error, not a panic mid-request.
//!
//! ```bash
//! cargo run --release --example kv_store
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use taking_the_shortcut::{Index, IndexError, ShortcutIndex};

/// Pack (user id, expiry tick) into the stored u64.
fn pack(user: u32, expiry_tick: u32) -> u64 {
    ((user as u64) << 32) | expiry_tick as u64
}

fn expiry_of(v: u64) -> u32 {
    v as u32
}

fn main() -> Result<(), IndexError> {
    let mut store = ShortcutIndex::builder().capacity(700_000).build()?;
    let mut rng = StdRng::seed_from_u64(7);
    let mut live_sessions: Vec<u64> = Vec::new();

    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut read_time = Duration::ZERO;

    println!("simulating 30 bursts of session traffic…");
    let start = Instant::now();
    for burst in 0u32..30 {
        let tick = burst + 1;

        // Burst of new sessions, written as one batch (events are relayed
        // to the mapper once per batch instead of once per session).
        let new_sessions = 20_000;
        let batch: Vec<(u64, u64)> = (0..new_sessions)
            .map(|_| {
                let sid: u64 = rng.random();
                let user: u32 = rng.random_range(0..1_000_000);
                (sid, pack(user, tick + 10))
            })
            .collect();
        store.insert_batch(&batch)?;
        live_sessions.extend(batch.iter().map(|(sid, _)| *sid));
        writes += new_sessions as u64;

        // Read-heavy phase: 50 reads per write, through &self.
        let t0 = Instant::now();
        let mut hits = 0u64;
        for _ in 0..new_sessions * 50 {
            let sid = live_sessions[rng.random_range(0..live_sessions.len())];
            if store.get(sid).is_some() {
                hits += 1;
            }
            reads += 1;
        }
        read_time += t0.elapsed();
        assert_eq!(hits, new_sessions as u64 * 50, "session store lost entries");

        // Expiry sweep every 10 bursts: delete sessions past their expiry.
        if burst % 10 == 9 {
            let before = store.len();
            let mut expired: Vec<u64> = Vec::new();
            live_sessions.retain(|sid| {
                let keep = store
                    .get(*sid)
                    .map(|v| expiry_of(v) > tick)
                    .unwrap_or(false);
                if !keep {
                    expired.push(*sid);
                }
                keep
            });
            for sid in expired {
                store.remove(sid)?;
            }
            println!(
                "  burst {:2}: expiry sweep {} -> {} sessions",
                burst + 1,
                before,
                store.len()
            );
        }
    }

    let s = store.stats();
    println!(
        "\n{} writes, {} reads in {:?}",
        writes,
        reads,
        start.elapsed()
    );
    println!(
        "read latency: {:.0} ns/lookup average",
        read_time.as_nanos() as f64 / reads as f64
    );
    println!(
        "directory: 2^{} slots, {} buckets, fan-in {:.2}; lookups: {} shortcut / {} traditional",
        s.global_depth,
        s.bucket_count,
        s.avg_fanin,
        s.index.shortcut_lookups,
        s.index.traditional_lookups
    );
    assert!(store.maint_error().is_none());
    Ok(())
}
