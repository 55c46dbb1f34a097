//! Planner diagnostic: linear-regression weak scaling per worker count.
use xorbits_baselines::EngineKind;
use xorbits_workloads::arrays::{array_engine, run_linreg};

fn main() {
    for w in [1usize, 2, 4] {
        let cluster = xorbits_bench::cluster(w, 1 << 30);
        let e = array_engine(EngineKind::Xorbits, &cluster, 0).unwrap();
        let rows = 150_000 * w * 2;
        // reset not needed; run_linreg resets at end
        let r = run_linreg(&e, rows, 8, 9).unwrap();
        // run again to collect stats fresh
        let e = array_engine(EngineKind::Xorbits, &cluster, 0).unwrap();
        let _ = run_linreg(&e, rows, 8, 9).unwrap();
        let rep = e.session.last_report().unwrap();
        println!(
            "w={w} rows={rows} makespan={:.4} thr={:.1}M subtasks={} cpu={:.3} net={}KB yields={}",
            r.makespan,
            r.throughput / 1e6,
            rep.stats.subtasks,
            rep.stats.real_cpu_seconds,
            rep.stats.net_bytes >> 10,
            rep.tiling.yields
        );
    }
}
