//! Ablation A5: bucket-layout compaction off against on, over the
//! benchmark's epoch loop. Exits non-zero if an `on` arm ends suspended or
//! with a maintenance error.
use shortcut_bench::experiments::ablations;
use shortcut_bench::ScaleArgs;

fn main() {
    ablations::a5_compaction(&ScaleArgs::from_env()).print();
}
