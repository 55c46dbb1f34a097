//! Diagnostic: print the skew family's tiling decisions and retile stats.

use xorbits_core::config::XorbitsConfig;
use xorbits_core::retile::RetileMode;
use xorbits_core::session::Session;
use xorbits_runtime::SimExecutor;
use xorbits_workloads::skew::{run_groupby_nunique, run_groupby_sum, run_lopsided_join, skew_data};

fn main() {
    let cfg = XorbitsConfig {
        chunk_limit_bytes: 256 << 10,
        cluster_parallelism: 6,
        broadcast_threshold_bytes: 0,
        ..Default::default()
    };
    let d = skew_data(120_000, 400, 1.5, 0x5E3D).unwrap();
    for (name, run) in [
        (
            "nunique",
            run_groupby_nunique as fn(&Session<SimExecutor>, &_) -> _,
        ),
        ("sum", run_groupby_sum as fn(&Session<SimExecutor>, &_) -> _),
        (
            "join",
            run_lopsided_join as fn(&Session<SimExecutor>, &_) -> _,
        ),
    ] {
        for mode in [RetileMode::Off, RetileMode::Auto] {
            let mut spec = xorbits_bench::cluster(3, 256 << 20).with_retile(mode);
            spec.net_bandwidth = 64.0 * 1024.0 * 1024.0;
            spec.sched_overhead = 1.0e-4;
            let s = Session::new(cfg.clone(), SimExecutor::new(spec));
            let out: xorbits_core::error::XbResult<xorbits_dataframe::DataFrame> = run(&s, &d);
            let out = out.unwrap();
            let stats = s.total_stats();
            let report = s.last_report().unwrap();
            println!(
                "{name} {mode:?}: rows={} subtasks={} makespan={:.4} retiled={} decisions={:?}",
                out.num_rows(),
                stats.subtasks,
                stats.makespan,
                stats.retiled_partitions,
                report.tiling.decisions
            );
        }
    }
}
