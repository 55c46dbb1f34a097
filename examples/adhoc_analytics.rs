//! Ad-hoc analytics — TPC-H queries through the pandas-style API, with a
//! look inside the three computation graphs and the dynamic decisions.
//!
//! Run with: `cargo run --release --example adhoc_analytics`

use xorbits::baselines::{Engine, EngineKind};
use xorbits::prelude::*;
use xorbits::workloads::tpch::{run_query, TpchData};

fn main() -> XbResult<()> {
    let data = TpchData::new(20.0)?;
    let cluster = ClusterSpec::new(4, 256 << 20);

    // Q1: the pricing summary report — a pure map + groupby pipeline.
    let engine = Engine::new(EngineKind::Xorbits, &cluster);
    let out = run_query(&engine, &data, 1)?;
    println!("TPC-H Q1 (pricing summary):\n{out}");
    narrate(&engine);

    // Q7 — the paper's dynamic-tiling showcase: a chain of merges whose
    // intermediate sizes emerge at runtime. Watch the broadcast decisions.
    let engine = Engine::new(EngineKind::Xorbits, &cluster);
    let out = run_query(&engine, &data, 7)?;
    println!("\nTPC-H Q7 (volume shipping FRANCE↔GERMANY):\n{out}");
    narrate(&engine);

    // Q3 on every engine: same query text, five planners.
    println!("\nTPC-H Q3 across engines:");
    for kind in EngineKind::all() {
        let engine = Engine::new(kind, &cluster);
        match run_query(&engine, &data, 3) {
            Ok(df) => println!(
                "  {:8} {:>9.4}s virtual, {} result rows",
                engine.name(),
                engine.session.total_stats().makespan,
                df.num_rows()
            ),
            Err(e) => println!("  {:8} FAILED: {e}", engine.name()),
        }
    }
    Ok(())
}

fn narrate(engine: &Engine) {
    let report = engine.session.last_report().unwrap();
    println!(
        "  [{} subtasks, {} tiling yields, {} B shuffled]",
        report.stats.subtasks, report.tiling.yields, report.stats.net_bytes
    );
    for d in &report.tiling.decisions {
        println!("  · {d}");
    }
}
