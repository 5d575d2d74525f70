//! Runs the entire evaluation (every table, figure and ablation) in order.
use shortcut_bench::experiments::*;
use shortcut_bench::ScaleArgs;

fn main() {
    let s = ScaleArgs::from_env();
    println!("Running the full evaluation at {:?}\n", s);

    fig2::run(&fig2::Fig2Opts::from_scale(&s)).print();
    let (_, t1) = table1::run(&table1::Table1Opts::from_scale(&s));
    t1.print();
    fig4::run(&fig4::Fig4Opts::from_scale(&s)).print();

    let f5 = fig5::Fig5Opts::from_scale(&s);
    fig5::table("Figure 5 (OS) — TLB shootdowns", &fig5::run_os(&f5)).print();
    fig5::table(
        "Figure 5 (vmsim model) — TLB shootdowns",
        &fig5::run_model(&f5),
    )
    .print();

    let f7 = fig7::Fig7Opts::from_scale(&s);
    let r7 = fig7::run(&f7);
    fig7::table_7a(&r7, &f7).print();
    fig7::table_7b(&r7, &f7).print();

    let f8 = fig8::Fig8Opts::from_scale(&s);
    fig8::table(&fig8::run(&f8), &f8).print();

    ablations::a1_coalescing(&s).print();
    ablations::a2_threshold(&s).print();
    ablations::a3_poll_interval(&s).print();
    ablations::a4_populate(&s).print();
    ablations::a5_compaction(&s).print();
    ablations::a6_slot_size(&s).print();
    ablations::a7_shards(&s).print();

    // Close with the facade's merged snapshot in its stable rendering —
    // the same block the server's INFO reply and mixed_workload's exit
    // report print, so every driver surfaces the full counter set the
    // same way instead of an ad hoc subset.
    facade_snapshot(s.pick(2_000_000, 200_000, 20_000));
}

fn facade_snapshot(entries: usize) {
    use taking_the_shortcut::{Index, ShortcutIndex};
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
