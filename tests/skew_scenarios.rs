//! The skew-adversarial gate for mid-run re-tiling (dynamic tiling v2).
//!
//! Every workload in the skew family runs on the virtual cluster twice —
//! once with static tiling (`RetileMode::Off`) and once with skew-aware
//! re-tiling (`RetileMode::Auto`) — and the adaptive run must be
//! **bit-identical** to the static one and to the single-process
//! [`LocalExecutor`] oracle. Re-tiling is also a pure function of the
//! harvested histograms, so re-running the adaptive configuration must
//! reproduce the retile counters exactly. Determinism is
//! always judged on result bits and counters — never on virtual times,
//! which embed measured host CPU.

use xorbits::baselines::EngineKind;
use xorbits::core::config::XorbitsConfig;
use xorbits::core::local::LocalExecutor;
use xorbits::core::retile::RetileMode;
use xorbits::core::session::{ExecStats, Session};
use xorbits::core::trace::{self, EventKind, Stage, TraceEvent};
use xorbits::dataframe::DataFrame;
use xorbits::runtime::{ClusterSpec, SimExecutor};
use xorbits::workloads::skew::{
    run_groupby_nunique, run_groupby_sum, run_lopsided_join, skew_data, SkewData,
};
use xorbits::workloads::tpch::{run_query_on, TpchData};

const WORKERS: usize = 3;
const ROWS: usize = 120_000;

/// Planner configuration for the skew family: chunks small enough for a
/// multi-partition shuffle, broadcast disabled so the lopsided join cannot
/// sidestep its skew, and parallelism matching the virtual cluster.
fn skew_cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 256 << 10,
        cluster_parallelism: WORKERS * 2,
        broadcast_threshold_bytes: 0,
        ..Default::default()
    }
}

/// A shuffle-bound virtual cluster: a modest network and a cheap scheduler
/// so the makespan is dominated by moving partition bytes — the regime
/// where key skew hurts and re-tiling pays. (Cost-model knobs never affect
/// result bits, only virtual times.)
fn cluster() -> ClusterSpec {
    let mut spec = ClusterSpec::new(WORKERS, 256 << 20);
    spec.net_bandwidth = 64.0 * 1024.0 * 1024.0;
    spec.sched_overhead = 1.0e-4;
    spec
}

fn data(skew: f64) -> SkewData {
    skew_data(ROWS, 400, skew, 0x5E3D).expect("skew data")
}

type Runner = fn(&Session<SimExecutor>, &SkewData) -> xorbits::core::error::XbResult<DataFrame>;

const WORKLOADS: [(&str, Runner); 3] = [
    ("groupby-nunique", run_groupby_nunique::<SimExecutor>),
    ("groupby-sum", run_groupby_sum::<SimExecutor>),
    ("lopsided-join", run_lopsided_join::<SimExecutor>),
];

fn run_sim(mode: RetileMode, d: &SkewData, run: Runner) -> (DataFrame, ExecStats) {
    let s = Session::new(skew_cfg(), SimExecutor::new(cluster().with_retile(mode)));
    let out = run(&s, d).expect("simulated skew run");
    (out, s.total_stats())
}

/// Stats that must replay identically for the same configuration (virtual
/// makespan and measured CPU excluded by construction).
fn det(stats: &ExecStats) -> (usize, usize, usize, usize) {
    (
        stats.subtasks,
        stats.net_bytes,
        stats.retries,
        stats.retiled_partitions,
    )
}

#[test]
fn skew_family_bit_identical_and_deterministic() {
    let d = data(1.5);
    for (name, run) in WORKLOADS {
        // oracle: the single-process executor with the same planner config
        let oracle = {
            let s = Session::new(skew_cfg(), LocalExecutor::new());
            match name {
                "groupby-nunique" => run_groupby_nunique(&s, &d),
                "groupby-sum" => run_groupby_sum(&s, &d),
                "lopsided-join" => run_lopsided_join(&s, &d),
                _ => unreachable!(),
            }
            .expect("local oracle")
        };

        let (off, off_stats) = run_sim(RetileMode::Off, &d, run);
        let (auto, auto_stats) = run_sim(RetileMode::Auto, &d, run);
        assert_eq!(off, oracle, "{name}: static sim differs from the oracle");
        assert_eq!(
            auto, oracle,
            "{name}: re-tiled run must be bit-identical to the static oracle"
        );
        assert_eq!(
            off_stats.retiled_partitions, 0,
            "{name}: RetileMode::Off must never re-tile"
        );
        match name {
            // the skewed shuffles must actually trigger
            "groupby-nunique" | "lopsided-join" => assert!(
                auto_stats.retiled_partitions > 0,
                "{name}: Zipf(1.5) shuffle must trigger a re-tile, stats: {auto_stats:?}"
            ),
            // map-side pre-aggregation absorbs row skew: balanced wave
            "groupby-sum" => assert_eq!(
                auto_stats.retiled_partitions, 0,
                "{name}: decomposable aggregation is skew-immune, stats: {auto_stats:?}"
            ),
            _ => unreachable!(),
        }

        // pure function of the harvested histograms: exact replay
        let (auto2, auto2_stats) = run_sim(RetileMode::Auto, &d, run);
        assert_eq!(auto, auto2, "{name}: nondeterministic re-tiled result");
        assert_eq!(
            det(&auto_stats),
            det(&auto2_stats),
            "{name}: nondeterministic retile counters on rerun"
        );
    }
}

/// Virtual makespans embed measured host kernel time, so one host stall
/// inflates a single run: each side's makespan is the fastest of
/// [`MAKESPAN_RUNS`] identical runs.
#[test]
fn skew_makespan_improves_on_zipf_15() {
    const MAKESPAN_RUNS: usize = 3;
    let d = data(1.5);
    for (name, run) in [
        ("groupby-nunique", WORKLOADS[0].1),
        ("lopsided-join", WORKLOADS[2].1),
    ] {
        let fastest = |mode| {
            let runs: Vec<ExecStats> = (0..MAKESPAN_RUNS)
                .map(|_| run_sim(mode, &d, run).1)
                .collect();
            let makespan = runs
                .iter()
                .map(|s| s.makespan)
                .fold(f64::INFINITY, f64::min);
            (runs, makespan)
        };
        let (_, off) = fastest(RetileMode::Off);
        let (auto_runs, auto) = fastest(RetileMode::Auto);
        assert!(
            auto_runs.iter().all(|s| s.retiled_partitions > 0),
            "{name}: no re-tile happened"
        );
        assert!(
            auto < off,
            "{name}: adaptive re-tiling must beat static tiling on Zipf(1.5): \
             adaptive {auto:.4}s vs static {off:.4}s (fastest of {MAKESPAN_RUNS})"
        );
    }
}

/// The decomposable group-by forced onto the shuffle-reduce plan
/// (`tree_reduce_threshold_bytes: 0`): its `GroupbyFinalize` wave is left
/// alone by design — map-side pre-aggregation already made the partials
/// proportional to distinct groups, not rows — so the adaptive run must not
/// re-tile, and stays bit-identical to static tiling and the oracle.
#[test]
fn shuffled_decomposable_groupby_is_left_alone() {
    let d = data(1.5);
    let cfg = XorbitsConfig {
        tree_reduce_threshold_bytes: 0,
        ..skew_cfg()
    };
    let oracle = run_groupby_sum(&Session::new(cfg.clone(), LocalExecutor::new()), &d)
        .expect("local oracle");
    for mode in [RetileMode::Off, RetileMode::Auto] {
        let s = Session::new(cfg.clone(), SimExecutor::new(cluster().with_retile(mode)));
        let out = run_groupby_sum(&s, &d).expect("simulated shuffle-reduce");
        let decisions = &s.last_report().expect("report").tiling.decisions;
        assert!(
            decisions.iter().any(|d| d.contains("shuffle-reduce")),
            "{mode:?}: the plan must really shuffle, decisions: {decisions:?}"
        );
        assert_eq!(out, oracle, "{mode:?}: differs from the oracle");
        assert_eq!(
            s.total_stats().retiled_partitions,
            0,
            "{mode:?}: a finalize wave must not be re-tiled"
        );
    }
}

/// The splice pays for its own dispatch: under the central scheduler no
/// subtask of the spliced tail may start before the histogram it was
/// planned from existed — the latest finish among the wave's shuffle
/// pieces — plus the one `sched_overhead` every dispatch costs.
#[test]
fn spliced_subtasks_are_dispatched_after_their_histogram_existed() {
    let d = data(1.5);
    let spec = cluster().with_retile(RetileMode::Auto);
    let overhead = spec.sched_overhead;
    trace::enable_default();
    let s = Session::new(skew_cfg(), SimExecutor::new(spec));
    run_groupby_nunique(&s, &d).expect("traced nunique run");
    let log = trace::disable().expect("trace log");

    // events are recorded in dispatch order: band spans before the retile
    // instant are the prefix, the ones after it the spliced tail
    let on_band = |e: &&TraceEvent| e.track.pid == 1 && e.stage == Stage::Execute;
    let at = log
        .events
        .iter()
        .position(|e| e.stage == Stage::Retile)
        .expect("Zipf(1.5) nunique must re-tile");
    let harvested = log.events[..at]
        .iter()
        .filter(on_band)
        .filter(|e| e.name.contains("ShuffleSplit"))
        .filter_map(|e| match e.kind {
            EventKind::Span { dur } => Some(e.ts + dur),
            _ => None,
        })
        .fold(0.0, f64::max);
    assert!(harvested > 0.0, "no shuffle piece before the splice");
    let tail: Vec<&TraceEvent> = log.events[at..].iter().filter(on_band).collect();
    assert!(!tail.is_empty(), "no spliced tail");
    for e in tail {
        assert!(
            e.ts >= harvested + overhead - 1e-12,
            "{} starts at {:.6}s, before the histogram ({harvested:.6}s) plus one dispatch",
            e.name,
            e.ts
        );
    }
}

/// Balanced inputs: TPC-H must be bit-identical between `RetileMode`
/// auto and off, and the adaptive configuration must replay its counters
/// exactly. (Whether any query triggers is the planner's business — the
/// contract is that results never change and decisions are deterministic.)
fn tpch_auto_vs_off(queries: std::ops::RangeInclusive<u32>) {
    let cfg = XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: WORKERS * 2,
        ..Default::default()
    };
    let data = TpchData::new(1.0).expect("tpch data");
    for q in queries {
        let run = |mode: RetileMode| {
            let s = Session::new(cfg.clone(), SimExecutor::new(cluster().with_retile(mode)));
            let out = run_query_on(&s, &EngineKind::Xorbits.profile().caps, "xorbits", &data, q)
                .unwrap_or_else(|e| panic!("Q{q} failed: {e}"));
            (out, s.total_stats())
        };
        let (off, _) = run(RetileMode::Off);
        let (auto, auto_stats) = run(RetileMode::Auto);
        assert_eq!(off, auto, "Q{q}: RetileMode::Auto changed the result");
        let (auto2, auto2_stats) = run(RetileMode::Auto);
        assert_eq!(auto, auto2, "Q{q}: nondeterministic re-tiled result");
        assert_eq!(
            det(&auto_stats),
            det(&auto2_stats),
            "Q{q}: nondeterministic retile counters on rerun"
        );
    }
}

#[test]
fn tpch_q01_to_q11_bit_identical_auto_vs_off() {
    tpch_auto_vs_off(1..=11);
}

#[test]
fn tpch_q12_to_q22_bit_identical_auto_vs_off() {
    tpch_auto_vs_off(12..=22);
}
