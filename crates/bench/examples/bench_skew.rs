//! Benchmarks skew-aware adaptive re-tiling (dynamic tiling v2) against
//! static tiling on the Zipf skew family: the non-decomposable groupby
//! (`nunique`, a raw-row shuffle with one hot reduce partition), the
//! decomposable control (`sum`, skew-immune by map-side pre-aggregation)
//! and the lopsided orphan-key join — at skew 1.1 / 1.5 / 2.0. The
//! adaptive run must stay bit-identical to static tiling; on Zipf(1.5) it
//! must beat the static virtual makespan on the skewed shuffles. Emits
//! `BENCH_skew.json`.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_skew`

use xorbits_core::config::XorbitsConfig;
use xorbits_core::retile::RetileMode;
use xorbits_core::session::{ExecStats, Session};
use xorbits_dataframe::DataFrame;
use xorbits_runtime::{ClusterSpec, SimExecutor};
use xorbits_workloads::skew::{
    run_groupby_nunique, run_groupby_sum, run_lopsided_join, skew_data, SkewData,
};

const WORKERS: usize = 3;
const ROWS: usize = 120_000;
const SKEWS: &[f64] = &[1.1, 1.5, 2.0];

/// Same planner shape as `tests/skew_scenarios.rs`: a real multi-partition
/// shuffle with broadcast disabled so the join cannot sidestep its skew.
fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 256 << 10,
        cluster_parallelism: WORKERS * 2,
        broadcast_threshold_bytes: 0,
        ..Default::default()
    }
}

/// Shuffle-bound virtual cluster (modest network, cheap scheduler): the
/// regime where partition skew dominates the makespan.
fn cluster(mode: RetileMode) -> ClusterSpec {
    let mut spec = ClusterSpec::new(WORKERS, 256 << 20).with_retile(mode);
    spec.net_bandwidth = 64.0 * 1024.0 * 1024.0;
    spec.sched_overhead = 1.0e-4;
    spec
}

type Runner = fn(&Session<SimExecutor>, &SkewData) -> xorbits_core::error::XbResult<DataFrame>;

const WORKLOADS: [(&str, Runner); 3] = [
    ("groupby-nunique", run_groupby_nunique::<SimExecutor>),
    ("groupby-sum", run_groupby_sum::<SimExecutor>),
    ("lopsided-join", run_lopsided_join::<SimExecutor>),
];

fn run(mode: RetileMode, d: &SkewData, runner: Runner) -> (DataFrame, ExecStats) {
    let s = Session::new(cfg(), SimExecutor::new(cluster(mode)));
    let out = runner(&s, d).expect("skew bench run");
    (out, s.total_stats())
}

fn main() {
    xorbits_bench::trace_init_from_env();
    let mut rows_json = Vec::new();

    for &skew in SKEWS {
        let d = skew_data(ROWS, 400, skew, 0x5E3D).expect("skew data");
        for (name, runner) in WORKLOADS {
            let (static_out, static_stats) = run(RetileMode::Off, &d, runner);
            let mut cells = Vec::new();
            for (label, mode) in [("static", RetileMode::Off), ("adaptive", RetileMode::Auto)] {
                let (out, stats) = run(mode, &d, runner);
                assert_eq!(
                    out, static_out,
                    "{name} skew {skew} {label}: result differs from static tiling"
                );
                println!(
                    "{name} s={skew} {label}: makespan {:.4}s retiled={}",
                    stats.makespan, stats.retiled_partitions
                );
                cells.push(format!(
                    "      {{\"mode\": \"{label}\", \"makespan_s\": {:.5}, \
                     \"retiled_partitions\": {}}}",
                    stats.makespan, stats.retiled_partitions
                ));
                if label == "adaptive" && skew == 1.5 {
                    println!("{}", xorbits_core::explain::explain_retile(&stats));
                }
                // the headline gate: on Zipf(1.5) adaptive re-tiling must
                // beat static tiling on the skewed shuffles
                if label == "adaptive" && skew == 1.5 && name != "groupby-sum" {
                    assert!(
                        stats.retiled_partitions > 0,
                        "{name} skew {skew}: no re-tile happened"
                    );
                    assert!(
                        stats.makespan < static_stats.makespan,
                        "{name} skew {skew}: adaptive {:.4}s must beat static {:.4}s",
                        stats.makespan,
                        static_stats.makespan
                    );
                }
            }
            rows_json.push(format!(
                "    {{\"workload\": \"{name}\", \"skew\": {skew}, \"rows\": {ROWS}, \
                 \"modes\": [\n{}\n    ]}}",
                cells.join(",\n")
            ));
        }
    }

    let json = format!(
        "{{\n  \"workers\": {WORKERS},\n  \"rows\": {ROWS},\n  \
         \"skews\": [1.1, 1.5, 2.0],\n  \"cells\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    );
    std::fs::write("BENCH_skew.json", &json).unwrap();
    print!("{json}");
    xorbits_bench::trace_dump_from_env();
}
