//! The benchmark's modules, as a library so that `tests/contract.rs` can
//! hold `BENCHMARK.json` and the runs to the tables in [`spec`]. The
//! command line is `src/main.rs`; `README.md` explains the design.

pub mod arms;
pub mod churn;
pub mod host;
pub mod json;
pub mod ladder;
pub mod measure;
pub mod point;
pub mod selfcheck;
pub mod spec;
pub mod trace;
pub mod util;
pub mod wire;
