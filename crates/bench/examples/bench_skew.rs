//! Benchmarks skew-aware adaptive re-tiling (dynamic tiling v2) against
//! static tiling on the Zipf skew family: the non-decomposable groupby
//! (`nunique`, a raw-row shuffle with one hot reduce partition), the
//! decomposable control (`sum`, which tree-reduces and never shuffles) and
//! the lopsided orphan-key join — at skew 1.1 / 1.5 / 2.0. Virtual
//! makespans embed measured kernel time, so every cell is the median of
//! `RUNS` runs with its min and max. The adaptive run must stay
//! bit-identical to static tiling; on Zipf(1.5) its median must beat the
//! static one on the skewed shuffles. A second table repeats the cells at
//! `ClusterSpec::new`'s own scheduler overhead — ten times the first
//! table's, the regime where re-tiling loses (ROADMAP item 4(a)) — and
//! asserts nothing about makespans. Emits `BENCH_skew.json`.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_skew`

use xorbits_core::config::XorbitsConfig;
use xorbits_core::explain::explain_retile;
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
const RUNS: usize = 5;
/// The shuffle-bound regime's scheduler overhead (as `tests/skew_scenarios.rs`).
const CHEAP_SCHED_OVERHEAD: f64 = 1.0e-4;

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

/// Virtual cluster with a modest network; `sched_overhead` picks the regime.
fn cluster(mode: RetileMode, sched_overhead: f64) -> ClusterSpec {
    let mut spec = xorbits_bench::cluster(WORKERS, 256 << 20).with_retile(mode);
    spec.net_bandwidth = 64.0 * 1024.0 * 1024.0;
    spec.sched_overhead = sched_overhead;
    spec
}

type Runner = fn(&Session<SimExecutor>, &SkewData) -> xorbits_core::error::XbResult<DataFrame>;

const WORKLOADS: [(&str, Runner); 3] = [
    ("groupby-nunique", run_groupby_nunique::<SimExecutor>),
    ("groupby-sum", run_groupby_sum::<SimExecutor>),
    ("lopsided-join", run_lopsided_join::<SimExecutor>),
];

/// One mode of one cell: virtual makespans over `RUNS` runs.
struct Measured {
    median: f64,
    min: f64,
    max: f64,
    /// Counters of the last run (they replay exactly run to run).
    stats: ExecStats,
}

impl Measured {
    fn json(&self, mode: &str) -> String {
        format!(
            "        {{\"mode\": \"{mode}\", \"median_s\": {:.5}, \"min_s\": {:.5}, \
             \"max_s\": {:.5}, \"retiled_partitions\": {}}}",
            self.median, self.min, self.max, self.stats.retiled_partitions
        )
    }

    fn ms(&self) -> String {
        format!(
            "{:.2} [{:.2}-{:.2}]",
            self.median * 1e3,
            self.min * 1e3,
            self.max * 1e3
        )
    }
}

/// Runs one mode `RUNS` times, returning the last result with the makespans.
fn measure(spec: &ClusterSpec, d: &SkewData, runner: Runner) -> (DataFrame, Measured) {
    let mut out = None;
    let mut makespans = Vec::with_capacity(RUNS);
    let mut stats = ExecStats::default();
    for _ in 0..RUNS {
        let s = Session::new(cfg(), SimExecutor::new(spec.clone()));
        out = Some(runner(&s, d).expect("skew bench run"));
        stats = s.total_stats();
        makespans.push(stats.makespan);
    }
    makespans.sort_by(f64::total_cmp);
    let measured = Measured {
        median: makespans[RUNS / 2],
        min: makespans[0],
        max: makespans[RUNS - 1],
        stats,
    };
    (out.expect("RUNS > 0"), measured)
}

/// `git describe --always --dirty`, where the working directory is a repository.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every cell at one scheduler overhead: prints the table and returns its
/// JSON. `gated` applies the Zipf(1.5) adaptive-beats-static assertion.
fn table(sched_overhead: f64, gated: bool) -> String {
    let mut cells = Vec::new();
    let mut rows = Vec::new();
    for &skew in SKEWS {
        let d = skew_data(ROWS, 400, skew, 0x5E3D).expect("skew data");
        for (name, runner) in WORKLOADS {
            let (static_out, fixed) =
                measure(&cluster(RetileMode::Off, sched_overhead), &d, runner);
            let (out, adaptive) = measure(&cluster(RetileMode::Auto, sched_overhead), &d, runner);
            assert_eq!(
                out, static_out,
                "{name} skew {skew}: adaptive result differs from static tiling"
            );
            // the headline gate: on Zipf(1.5) adaptive re-tiling must beat
            // static tiling on the skewed shuffles
            if gated && skew == 1.5 && name != "groupby-sum" {
                print!("{name}: {}", explain_retile(&adaptive.stats));
                assert!(
                    adaptive.stats.retiled_partitions > 0,
                    "{name} skew {skew}: no re-tile happened"
                );
                assert!(
                    adaptive.median < fixed.median,
                    "{name} skew {skew}: adaptive {:.4}s must beat static {:.4}s",
                    adaptive.median,
                    fixed.median
                );
            }
            rows.push(vec![
                name.to_string(),
                skew.to_string(),
                fixed.ms(),
                adaptive.ms(),
                adaptive.stats.retiled_partitions.to_string(),
            ]);
            cells.push(format!(
                "      {{\"workload\": \"{name}\", \"skew\": {skew}, \"modes\": [\n{},\n{}\n      ]}}",
                fixed.json("static"),
                adaptive.json("adaptive")
            ));
        }
    }
    xorbits_bench::print_table(
        &format!(
            "virtual makespan, ms: median [min-max] of {RUNS} runs, sched_overhead {sched_overhead}s{}",
            if gated { "" } else { " (not asserted)" }
        ),
        &["workload", "skew", "static", "adaptive", "split"],
        &rows,
    );
    format!(
        "    {{\"sched_overhead_s\": {sched_overhead}, \"asserted\": {gated}, \"cells\": [\n{}\n    ]}}",
        cells.join(",\n")
    )
}

fn main() {
    xorbits_bench::trace_init_from_env();
    let default_overhead = ClusterSpec::new(WORKERS, 256 << 20).sched_overhead;
    let tables = [
        table(CHEAP_SCHED_OVERHEAD, true),
        table(default_overhead, false),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"commit\": \"{}\",\n  \"host_cores\": {cores},\n  \"workers\": {WORKERS},\n  \
         \"rows\": {ROWS},\n  \"runs_per_cell\": {RUNS},\n  \"tables\": [\n{}\n  ]\n}}\n",
        commit(),
        tables.join(",\n")
    );
    std::fs::write("BENCH_skew.json", &json).unwrap();
    print!("{json}");
    xorbits_bench::trace_dump_from_env();
}
