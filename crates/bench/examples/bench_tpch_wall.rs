//! End-to-end TPC-H *wall-clock* timing (not the simulated makespan):
//! runs the 22-query suite on the Xorbits engine and prints per-query
//! real execution time plus the simulated makespan.
//!
//! Used to verify that kernel-level changes do not regress any query
//! end-to-end: run once on the old tree, once on the new, and diff.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_tpch_wall`
//! Env: `XORBITS_TPCH_SF` (default 10) scales the generated data.

use std::time::Instant;
use xorbits_baselines::EngineKind;
use xorbits_bench::{env_f64, paper_cluster};
use xorbits_workloads::harness::run_tpch_once;
use xorbits_workloads::tpch::TpchData;

fn main() {
    xorbits_bench::trace_init_from_env();
    let cluster = paper_cluster(16);
    println!("encoding: {:?}", cluster.encoding);
    let sf = env_f64("XORBITS_TPCH_SF", 10.0);
    let data = TpchData::new(sf).expect("tpch data");
    let mut total_wall = 0.0;
    let mut total_makespan = 0.0;
    println!("query\twall_ms\tmakespan_s");
    for q in 1..=22 {
        let t = Instant::now();
        let rec = run_tpch_once(EngineKind::Xorbits, &cluster, &data, q);
        let wall = t.elapsed().as_secs_f64();
        total_wall += wall;
        if rec.makespan.is_finite() {
            total_makespan += rec.makespan;
        }
        println!("Q{q}\t{:.3}\t{:.4}", wall * 1e3, rec.makespan);
    }
    println!("TOTAL\t{:.3}\t{:.4}", total_wall * 1e3, total_makespan);
    xorbits_bench::trace_dump_from_env();
}
