//! Regenerates **paper Fig 9b**: the graph-level ("g") fusion ablation on
//! TPC-H Q7 and Q8.
//!
//! Paper values: coloring-based graph-level fusion gives 3.80× (Q7) and
//! 2.04× (Q8). The paper's operator-level fusion ("o", ~16 %) has no
//! counterpart here: a chain of elementwise steps already runs in one
//! subtask under graph fusion, and each step is a whole-column typed kernel.
//!
//! Run: `cargo bench --bench fig9b_fusion`

use xorbits_baselines::{Engine, EngineKind};
use xorbits_bench::{paper_cluster, print_table, sf};
use xorbits_core::config::XorbitsConfig;
use xorbits_workloads::tpch::{run_query, TpchData};

fn run_with(cfg: XorbitsConfig, data: &TpchData, q: u32) -> f64 {
    let cluster = paper_cluster(16);
    let engine = Engine::with_cfg(EngineKind::Xorbits, &cluster, cfg);
    match run_query(&engine, data, q) {
        Ok(_) => engine.session.total_stats().makespan,
        Err(e) => {
            eprintln!("  Q{q} failed: {e}");
            f64::NAN
        }
    }
}

fn main() {
    let data = TpchData::new(sf(1000)).expect("tpch data");
    let paper_g = [(7u32, 3.80), (8u32, 2.04)];
    let mut rows = Vec::new();
    for (q, paper_speedup) in paper_g {
        let on = run_with(XorbitsConfig::default(), &data, q);
        let off = run_with(XorbitsConfig::default().without_graph_fusion(), &data, q);
        let speedup = off / on;
        eprintln!("  Q{q}: g on {on:.4}s | g off {off:.4}s");
        rows.push(vec![
            format!("Q{q}"),
            format!("{on:.4}s"),
            format!("{off:.4}s"),
            format!("{speedup:.2}x (paper {paper_speedup:.2}x)"),
        ]);
    }
    print_table(
        "Fig 9b — graph-fusion ablation (TPC-H, 16 workers)",
        &["query", "g on", "g off", "graph-fusion speedup"],
        &rows,
    );
}
