//! The one measuring primitive: arms run back to back, step after step,
//! for a fixed number of steps.
//!
//! Everything timed in this benchmark goes through [`interleave`], for
//! one reason: on a shared host the machine's speed changes by 1.4–2.5x
//! for seconds at a time, so two loops timed a second apart are not
//! comparable, while two arms alternating every millisecond see the same
//! machine. Ratios are taken between arms of one call only.

use crate::trace::Trace;
use crate::util::quiet;
use std::time::Instant;

/// What one arm did with one slice.
#[derive(Debug, Clone, Copy, Default)]
pub struct SliceOutcome {
    /// Operations performed (the divisor of the slice's time).
    pub ops: u64,
    /// Operations whose result was checked and found wrong.
    pub failed: u64,
}

pub struct Arm<'a> {
    /// Series and span name.
    pub name: &'static str,
    /// Layer of the public function the arm times.
    pub layer: &'static str,
    /// Process slice `j` of the workload's input.
    pub run: Box<dyn FnMut(usize) -> SliceOutcome + 'a>,
}

impl<'a> Arm<'a> {
    pub fn new(
        name: &'static str,
        layer: &'static str,
        run: impl FnMut(usize) -> SliceOutcome + 'a,
    ) -> Arm<'a> {
        Arm {
            name,
            layer,
            run: Box::new(run),
        }
    }
}

#[derive(Debug, Clone)]
pub struct Series {
    pub name: &'static str,
    /// ns per operation of each measured slice, in time order.
    pub ns_per_op: Vec<f64>,
    pub ops: u64,
    pub failed: u64,
}

impl Series {
    /// The run value: see [`quiet`].
    pub fn quiet_ns(&self) -> f64 {
        quiet(&self.ns_per_op)
    }
}

/// Look a series up by its arm's name.
///
/// # Panics
///
/// Panics if no arm had that name — a typo in the benchmark itself.
pub fn series<'s>(all: &'s [Series], name: &str) -> &'s Series {
    all.iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no arm named {name}"))
}

/// Append the slices of a later call with the same arms.
pub fn merge(into: &mut Vec<Series>, more: Vec<Series>) {
    if into.is_empty() {
        *into = more;
        return;
    }
    for (total, part) in into.iter_mut().zip(more) {
        assert_eq!(total.name, part.name, "blocks must run the same arms");
        total.ns_per_op.extend(part.ns_per_op);
        total.ops += part.ops;
        total.failed += part.failed;
    }
}

/// `quiet(numerator) / quiet(denominator)` of two arms of one call.
pub fn ratio(all: &[Series], numerator: &str, denominator: &str) -> f64 {
    series(all, numerator).quiet_ns() / series(all, denominator).quiet_ns()
}

/// Steps discarded at the start of every call (caches, TLBs and branch
/// predictors settle; the first pass over each slice is the cold one).
pub const WARM_STEPS: usize = 2;

/// Run every arm once per step for `WARM_STEPS + steps` steps. Within a
/// step the arms work on *different* slices, spread evenly over the
/// input, so no arm finds the lines and translations another arm of the
/// same step just pulled in; over `slices` steps every arm has seen every
/// slice.
pub fn interleave(
    arms: &mut [Arm<'_>],
    slices: usize,
    steps: usize,
    trace: &mut Trace,
    parent: Option<usize>,
) -> Vec<Series> {
    let mut out: Vec<Series> = arms
        .iter()
        .map(|arm| Series {
            name: arm.name,
            ns_per_op: Vec::new(),
            ops: 0,
            failed: 0,
        })
        .collect();
    let stride = (slices / arms.len().max(1)).max(1);
    for step in 0..WARM_STEPS + steps {
        for (a, (arm, series)) in arms.iter_mut().zip(&mut out).enumerate() {
            let j = (step + a * stride) % slices;
            let start = Instant::now();
            let outcome = (arm.run)(j);
            let end = Instant::now();
            // Failures count from the first step on; times only once warm.
            series.failed += outcome.failed;
            series.ops += outcome.ops;
            if step >= WARM_STEPS {
                let ns = end.duration_since(start).as_nanos() as f64;
                series.ns_per_op.push(ns / outcome.ops.max(1) as f64);
                trace.record(arm.name, arm.layer, parent, start, end, outcome.ops);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_alternate_and_failures_are_counted() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut arms = [
            Arm::new("a", "bench", |j| {
                order.borrow_mut().push(('a', j));
                SliceOutcome { ops: 4, failed: 0 }
            }),
            Arm::new("b", "bench", |j| {
                order.borrow_mut().push(('b', j));
                SliceOutcome { ops: 4, failed: 1 }
            }),
        ];
        let mut trace = Trace::new(true);
        let out = interleave(&mut arms, 3, 8, &mut trace, None);
        drop(arms);
        let order = order.into_inner();
        assert_eq!(&order[..4], &[('a', 0), ('b', 1), ('a', 1), ('b', 2)]);
        let steps = WARM_STEPS + 8;
        assert_eq!(order.len(), 2 * steps);
        assert_eq!(series(&out, "b").failed, steps as u64);
        assert_eq!(series(&out, "a").ns_per_op.len(), 8);
        assert_eq!(trace.span_count(), 16);
        assert!(ratio(&out, "a", "b") > 0.0);
    }
}
