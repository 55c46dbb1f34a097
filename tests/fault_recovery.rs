//! The differential fault-recovery matrix — the gate for deterministic
//! fault injection + lineage-based recovery in the virtual cluster.
//!
//! Every TPC-H query runs on the simulator under seeded fault schedules
//! (a worker killed mid-query, a transient-failure storm, chunk-loss
//! bursts) and must produce a result **bit-identical** to the same query
//! on the fault-free single-process [`LocalExecutor`] oracle with the
//! same planner configuration. Because the schedules are seeded and
//! trigger on the dispatch-step logical clock, re-running a schedule must
//! also reproduce the recovery statistics exactly (`makespan` and
//! `real_cpu_seconds` incorporate *measured* host time and are excluded).

use xorbits::baselines::EngineKind;
use xorbits::core::config::XorbitsConfig;
use xorbits::core::local::LocalExecutor;
use xorbits::core::session::{ExecStats, Session};
use xorbits::dataframe::DataFrame;
use xorbits::runtime::{ClusterSpec, FaultKind, FaultPlan, FaultTrigger, RetryPolicy, SimExecutor};
use xorbits::workloads::tpch::{run_query_on, TpchData};

const WORKERS: usize = 3;
const SF: f64 = 1.0;

/// Planner configuration shared by the simulator runs and the oracle:
/// identical configs produce identical plans, so both sides execute the
/// same kernels in the same order and results compare with `assert_eq!`.
fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: WORKERS * 2,
        ..Default::default()
    }
}

fn cluster() -> ClusterSpec {
    // roomy budget: the matrix isolates fault recovery from spilling
    ClusterSpec::new(WORKERS, 256 << 20)
}

/// The three seeded schedules of the matrix.
///
/// The worker-kill victim is worker 0 and the step is early (4) so the
/// crash destroys already-published chunks mid-query for every query —
/// source subtasks land on bands 0.. round-robin, so bands 0/1 always
/// hold chunks by step 4.
fn schedules() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        (
            "worker-kill",
            cluster().with_fault_plan(FaultPlan::worker_crash_at_step(0xFA01, 0, 4)),
        ),
        (
            "transient-storm",
            cluster()
                .with_fault_plan(FaultPlan::transient_storm(0xFA02, 0.15))
                .with_retry(RetryPolicy {
                    max_retries: 8,
                    ..Default::default()
                }),
        ),
        (
            "chunk-loss-burst",
            cluster().with_fault_plan(
                FaultPlan::none(0xFA03)
                    .with_event(
                        FaultTrigger::Step(6),
                        FaultKind::ChunkLoss { fraction: 0.3 },
                    )
                    .with_event(
                        FaultTrigger::Step(12),
                        FaultKind::ChunkLoss { fraction: 0.3 },
                    ),
            ),
        ),
    ]
}

fn oracle(data: &TpchData, q: u32) -> DataFrame {
    let s = Session::new(cfg(), LocalExecutor::new());
    run_query_on(
        &s,
        &EngineKind::Xorbits.profile().caps,
        "xorbits-local-oracle",
        data,
        q,
    )
    .unwrap_or_else(|e| panic!("oracle failed on Q{q}: {e}"))
}

fn run_sim(spec: ClusterSpec, data: &TpchData, q: u32) -> (DataFrame, ExecStats) {
    let s = Session::new(cfg(), SimExecutor::new(spec));
    let out = run_query_on(&s, &EngineKind::Xorbits.profile().caps, "xorbits", data, q)
        .unwrap_or_else(|e| panic!("simulated run failed on Q{q}: {e}"));
    (out, s.total_stats())
}

/// The stats fields that must replay identically for the same seeded
/// schedule.
fn det(stats: &ExecStats) -> (usize, usize, usize, usize, usize, usize) {
    (
        stats.subtasks,
        stats.net_bytes,
        stats.peak_worker_bytes,
        stats.retries,
        stats.recomputed_subtasks,
        stats.recovered_from_spill_bytes,
    )
}

fn run_matrix(queries: std::ops::RangeInclusive<u32>) {
    let data = TpchData::new(SF).expect("tpch data");
    for q in queries {
        let expect = oracle(&data, q);
        for (name, spec) in schedules() {
            let (out, stats) = run_sim(spec.clone(), &data, q);
            assert_eq!(
                out, expect,
                "Q{q} under {name} must be bit-identical to the fault-free oracle"
            );
            match name {
                "worker-kill" => assert!(
                    stats.recomputed_subtasks > 0,
                    "Q{q} worker-kill must force lineage recomputation, stats: {stats:?}"
                ),
                "transient-storm" => assert!(
                    stats.retries > 0,
                    "Q{q} under a 15% storm must retry, stats: {stats:?}"
                ),
                "chunk-loss-burst" => assert!(
                    stats.recomputed_subtasks + stats.recovered_from_spill_bytes > 0,
                    "Q{q} chunk loss must trigger recovery, stats: {stats:?}"
                ),
                _ => unreachable!(),
            }
            // same seed, fresh cluster: the schedule replays exactly
            let (out2, stats2) = run_sim(spec, &data, q);
            assert_eq!(out, out2, "Q{q} {name}: nondeterministic result on rerun");
            assert_eq!(
                det(&stats),
                det(&stats2),
                "Q{q} {name}: nondeterministic recovery stats on rerun"
            );
        }
    }
}

#[test]
fn fault_matrix_q01_to_q08() {
    run_matrix(1..=8);
}

#[test]
fn fault_matrix_q09_to_q15() {
    run_matrix(9..=15);
}

#[test]
fn fault_matrix_q16_to_q22() {
    run_matrix(16..=22);
}

/// Mid-run re-tiling × fault injection. The skew family's nunique groupby
/// has one hot reduce partition that `RetileMode::Auto` splits, so a worker
/// crash after the splice makes lineage recovery replay the *spliced*
/// graph. Determinism is judged on result bits and counters only — never
/// on virtual times, which embed measured host CPU.
mod retile_crash {
    use super::*;
    use xorbits::core::retile::RetileMode;
    use xorbits::workloads::skew::{run_groupby_nunique, skew_data, SkewData};

    /// Same planner shape as `tests/skew_scenarios.rs`: a real multi-
    /// partition shuffle with a hot partition.
    fn skew_cfg() -> XorbitsConfig {
        XorbitsConfig {
            chunk_limit_bytes: 256 << 10,
            cluster_parallelism: WORKERS * 2,
            broadcast_threshold_bytes: 0,
            ..Default::default()
        }
    }

    fn run_skew(spec: ClusterSpec, d: &SkewData) -> (DataFrame, ExecStats) {
        let s = Session::new(skew_cfg(), SimExecutor::new(spec));
        let out = run_groupby_nunique(&s, d).expect("simulated skew run");
        (out, s.total_stats())
    }

    /// Replay-identical fields, the retile counter included.
    fn rdet(stats: &ExecStats) -> (usize, usize, usize, usize, usize) {
        (
            stats.subtasks,
            stats.net_bytes,
            stats.retries,
            stats.recomputed_subtasks,
            stats.retiled_partitions,
        )
    }

    /// A worker crashes at step 20 — after the hot partition was re-tiled
    /// under `Auto`: lineage recovery must replay the graph as it then is
    /// back to the oracle bits, static and spliced alike.
    #[test]
    fn worker_crash_after_retile_recovers() {
        let d = skew_data(120_000, 400, 1.5, 0x5E3D).expect("skew data");
        let expect = {
            let s = Session::new(skew_cfg(), LocalExecutor::new());
            run_groupby_nunique(&s, &d).expect("local oracle")
        };
        for (label, mode) in [
            ("crash-static", RetileMode::Off),
            ("crash-retiled", RetileMode::Auto),
        ] {
            let spec = cluster()
                .with_retile(mode)
                .with_fault_plan(FaultPlan::worker_crash_at_step(0xFA05, 0, 20));
            let (out, stats) = run_skew(spec.clone(), &d);
            assert_eq!(out, expect, "{label}: differs from the fault-free oracle");
            let (out2, stats2) = run_skew(spec, &d);
            assert_eq!(out, out2, "{label}: nondeterministic result on rerun");
            assert_eq!(
                rdet(&stats),
                rdet(&stats2),
                "{label}: nondeterministic counters on rerun"
            );
            assert!(
                stats.recomputed_subtasks > 0,
                "{label}: the crash must force lineage recomputation, stats: {stats:?}"
            );
            assert_eq!(
                stats.retiled_partitions > 0,
                mode == RetileMode::Auto,
                "{label}: the hot partition is re-tiled exactly under Auto, stats: {stats:?}"
            );
        }
    }
}

/// An armed-but-empty fault plan must change nothing: same results, same
/// deterministic stats as a run with no plan at all (pre-PR behaviour).
#[test]
fn zero_fault_plan_reproduces_fault_free_runs() {
    let data = TpchData::new(SF).expect("tpch data");
    for q in [1u32, 4, 7, 11, 15, 21] {
        let (plain_out, plain) = run_sim(cluster(), &data, q);
        let (armed_out, armed) = run_sim(cluster().with_fault_plan(FaultPlan::none(9)), &data, q);
        assert_eq!(plain_out, armed_out, "Q{q}: empty plan changed the result");
        assert_eq!(
            det(&plain),
            det(&armed),
            "Q{q}: empty plan changed the virtual-cost arithmetic"
        );
        assert_eq!(armed.retries, 0);
        assert_eq!(armed.recomputed_subtasks, 0);
        assert_eq!(armed.recovered_from_spill_bytes, 0);
    }
}
