//! # repro — the paper's evaluation, regenerated
//!
//! `repro <experiment> [--quick | --scale N | --paper-scale]` runs one
//! entry of [`EXPERIMENTS`]; `repro all` runs every entry in table order;
//! `repro --help` lists them. One experiment module per table/figure of
//! the paper:
//!
//! | Paper  | Module                     |
//! |--------|----------------------------|
//! | Fig 2  | [`experiments::fig2`]      |
//! | Tab 1  | [`experiments::table1`]    |
//! | Fig 4  | [`experiments::fig4`]      |
//! | Fig 5  | [`experiments::fig5`]      |
//! | Fig 7  | [`experiments::fig7`]      |
//! | Fig 8  | [`experiments::fig8`]      |
//! | A1–A7  | [`experiments::ablations`] |
//!
//! `--scale <divisor>` shrinks cardinalities, `--paper-scale` restores the
//! original ones (needs a 32 GB-class machine), and `--quick` picks tiny
//! smoke-test sizes. Absolute numbers depend on the host; the *shapes*
//! (who wins, crossovers) are what reproduces.

mod experiments;
mod report;
mod scale;
mod timing;
mod workload;

use experiments::{ablations, ext_skew, fig2, fig4, fig5, fig7, fig8, table1};
use report::Table;
use scale::ScaleArgs;

/// One experiment: the name `repro` takes and what it runs.
type Experiment = (&'static str, fn(&ScaleArgs));

/// Every experiment, in the order `repro all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig2", run_fig2),
    ("table1", run_table1),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("fig7", run_fig7),
    ("fig8", run_fig8),
    ("ext_zipf", run_ext_zipf),
    ("ablate_coalesce", |s| ablations::a1_coalescing(s).print()),
    ("ablate_threshold", |s| ablations::a2_threshold(s).print()),
    ("ablate_poll", |s| ablations::a3_poll_interval(s).print()),
    ("ablate_populate", |s| ablations::a4_populate(s).print()),
    // Panics if an `on` arm ends suspended or with a maintenance error.
    ("ablate_compaction", |s| ablations::a5_compaction(s).print()),
    ("ablate_shards", |s| ablations::a7_shards(s).print()),
    ("snapshot", run_snapshot),
];

/// The `--help` text: the experiments and the scaling flags.
fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro <experiment | all> [--quick | --scale <divisor> | --paper-scale]\n\
         experiments: {}\n\
         default: mid-size run; --paper-scale: original cardinalities;\n\
         --quick: smoke test; --scale N: divide default sizes by N\n",
        names.join(", ")
    )
}

/// The experiments a command line names (`all`: the whole table) and the
/// scale to run them at. Panics with the usage text on anything else.
fn parse(args: &[String]) -> (&'static [Experiment], ScaleArgs) {
    let Some((name, flags)) = args.split_first() else {
        panic!("no experiment named\n{}", usage());
    };
    let selected = if name == "all" {
        EXPERIMENTS
    } else {
        let i = EXPERIMENTS
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown experiment {name}\n{}", usage()));
        &EXPERIMENTS[i..=i]
    };
    (selected, ScaleArgs::parse(flags.iter().cloned()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let (selected, s) = parse(&args);
    for (_, run) in selected {
        run(&s);
    }
}

fn run_fig2(s: &ScaleArgs) {
    let opts = fig2::Fig2Opts::from_scale(s);
    println!("fig2: pairs {:?}, {} accesses", opts.pairs, opts.accesses);
    fig2::run(&opts).print();
}

fn run_table1(s: &ScaleArgs) {
    let opts = table1::Table1Opts::from_scale(s);
    println!(
        "table1: n = {} slots, {} accesses",
        opts.slots, opts.accesses
    );
    table1::run(&opts).1.print();
}

fn run_fig4(s: &ScaleArgs) {
    let opts = fig4::Fig4Opts::from_scale(s);
    println!("fig4: {} slots, fanins {:?}", opts.slots, opts.fanins);
    fig4::run(&opts).print();
    // Companion table: the TLB mechanism behind the crossover, on the
    // deterministic vmsim model (smaller sizes; behaviour, not wall-clock).
    fig4::run_model(
        opts.slots.min(1 << 16),
        &opts.fanins,
        opts.lookups.min(200_000),
        opts.seed,
    )
    .print();
}

/// Figure 5: the real-OS run plus the deterministic vmsim model.
fn run_fig5(s: &ScaleArgs) {
    let opts = fig5::Fig5Opts::from_scale(s);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "fig5: region {} pages, {} remaps, readers {:?} ({} hardware threads — reader counts >= {} run oversubscribed)",
        opts.region_pages, opts.remaps, opts.reader_counts, cores, cores
    );
    fig5::table("Figure 5 (OS) — TLB shootdowns", &fig5::run_os(&opts)).print();
    fig5::table(
        "Figure 5 (vmsim model, 8 simulated cores) — TLB shootdowns",
        &fig5::run_model(&opts),
    )
    .print();
}

/// Figures 7a and 7b from one fill: the lookups run on the filled indexes.
fn run_fig7(s: &ScaleArgs) {
    let opts = fig7::Fig7Opts::from_scale(s);
    println!(
        "fig7: {} inserts then {} lookups",
        opts.inserts, opts.lookups
    );
    let r = fig7::run(&opts);
    fig7::table_7a(&r, &opts).print();
    fig7::table_7b(&r, &opts).print();
}

fn run_fig8(s: &ScaleArgs) {
    let opts = fig8::Fig8Opts::from_scale(s);
    println!(
        "fig8: bulk {}, {} waves x {} ({}% inserts)",
        opts.bulk,
        opts.waves,
        opts.wave_size,
        opts.insert_fraction * 100.0
    );
    fig8::table(&fig8::run(&opts), &opts).print();
}

/// Extension: Zipf-skewed access over both node variants.
fn run_ext_zipf(s: &ScaleArgs) {
    let opts = ext_skew::SkewOpts::from_scale(s);
    println!("ext_zipf: {} slots, thetas {:?}", opts.slots, opts.thetas);
    ext_skew::run(&opts).print();
}

/// The facade's merged snapshot in its stable rendering — the same block
/// the server's INFO reply and mixed_workload's exit report print.
fn run_snapshot(s: &ScaleArgs) {
    use taking_the_shortcut::{Index, ShortcutIndex};
    let entries = s.pick(2_000_000, 200_000, 20_000);
    println!("\nFacade snapshot — {entries} entries, stable StatsSnapshot rendering\n");
    let mut index = ShortcutIndex::builder()
        .capacity(entries)
        .build()
        .expect("facade build");
    for k in 0..entries as u64 {
        index.insert(k, !k).expect("insert");
    }
    index.wait_sync(std::time::Duration::from_secs(30));
    let keys: Vec<u64> = (0..entries as u64).step_by(3).collect();
    let hits = index.get_many(&keys).iter().flatten().count();
    assert_eq!(hits, keys.len());
    print!("{}", index.stats());
}
