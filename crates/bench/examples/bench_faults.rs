//! Benchmarks fault-recovery overhead in the virtual cluster: a TPC-H
//! subset runs under a transient-failure storm at increasing failure
//! probability (the fault-rate axis), under a mid-query worker kill, and
//! under chunk-loss bursts — reporting virtual-makespan overhead vs. the
//! fault-free baseline and the recovery work done (retries, recomputed
//! subtasks, bytes recovered from the spill tier). Also gates the hooks
//! themselves: an armed-but-empty `FaultPlan` must reproduce the
//! fault-free run's deterministic stats exactly. Emits `BENCH_faults.json`
//! for the driver.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_faults`

use xorbits_baselines::EngineKind;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::session::{ExecStats, Session};
use xorbits_runtime::{ClusterSpec, FaultKind, FaultPlan, FaultTrigger, RetryPolicy, SimExecutor};
use xorbits_workloads::tpch::{run_query_on, TpchData};

const WORKERS: usize = 3;
const SF: f64 = 1.0;
const QUERIES: &[u32] = &[1, 3, 6, 9, 14, 18, 21];
const STORM_P: &[f64] = &[0.05, 0.15, 0.30];

fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: WORKERS * 2,
        ..Default::default()
    }
}

fn cluster() -> ClusterSpec {
    xorbits_bench::cluster(WORKERS, 256 << 20)
}

/// Sums the per-query virtual makespans and recovery counters of the
/// subset under one cluster spec.
fn run_subset(spec: &ClusterSpec, data: &TpchData) -> (f64, ExecStats) {
    let mut makespan = 0.0;
    let mut total = ExecStats::default();
    for &q in QUERIES {
        let s = Session::new(cfg(), SimExecutor::new(spec.clone()));
        run_query_on(&s, &EngineKind::Xorbits.profile().caps, "xorbits", data, q)
            .unwrap_or_else(|e| panic!("Q{q} failed under {spec:?}: {e}"));
        let stats = s.total_stats();
        makespan += stats.makespan;
        total.subtasks += stats.subtasks;
        total.net_bytes += stats.net_bytes;
        total.retries += stats.retries;
        total.recomputed_subtasks += stats.recomputed_subtasks;
        total.recovered_from_spill_bytes += stats.recovered_from_spill_bytes;
    }
    (makespan, total)
}

/// The deterministic slice of the summed stats (virtual makespan embeds
/// *measured* kernel time, so it is excluded from exactness checks).
fn det(stats: &ExecStats) -> (usize, usize, usize, usize, usize) {
    (
        stats.subtasks,
        stats.net_bytes,
        stats.retries,
        stats.recomputed_subtasks,
        stats.recovered_from_spill_bytes,
    )
}

fn main() {
    xorbits_bench::trace_init_from_env();
    println!("encoding: {:?}", cluster().encoding);
    let data = TpchData::new(SF).expect("tpch data");

    // ---- fault-free baseline + zero-fault-plan parity gate ------------------
    let (base_mk, base) = run_subset(&cluster(), &data);
    let (armed_mk, armed) = run_subset(&cluster().with_fault_plan(FaultPlan::none(7)), &data);
    let zero_fault_parity = det(&base) == det(&armed);
    assert!(
        zero_fault_parity,
        "armed-but-empty plan changed the deterministic stats: {base:?} vs {armed:?}"
    );
    assert_eq!(armed.retries + armed.recomputed_subtasks, 0);
    println!(
        "baseline: {} queries, virtual makespan {:.3}s (armed empty plan: {:.3}s, \
         det-stats identical)",
        QUERIES.len(),
        base_mk,
        armed_mk
    );

    // ---- transient storm: overhead vs fault rate ----------------------------
    let mut rows = Vec::new();
    for (i, &p) in STORM_P.iter().enumerate() {
        let spec = cluster()
            .with_fault_plan(FaultPlan::transient_storm(0xBEC0 + i as u64, p))
            .with_retry(RetryPolicy {
                max_retries: 12,
                ..Default::default()
            });
        let (mk, stats) = run_subset(&spec, &data);
        let overhead = mk / base_mk.max(1e-12);
        println!(
            "storm p={p:.2}: makespan {mk:.3}s ({overhead:.2}x), retries {}, \
             recomputed {}",
            stats.retries, stats.recomputed_subtasks
        );
        rows.push(format!(
            "    {{\"schedule\": \"transient-storm\", \"fault_rate\": {p}, \
             \"makespan_s\": {mk:.4}, \"overhead_x\": {overhead:.3}, \
             \"retries\": {}, \"recomputed_subtasks\": {}, \
             \"recovered_from_spill_bytes\": {}}}",
            stats.retries, stats.recomputed_subtasks, stats.recovered_from_spill_bytes
        ));
    }

    // ---- structural faults: worker kill and chunk-loss bursts ---------------
    let structural: Vec<(&str, f64, ClusterSpec)> = vec![
        (
            "worker-kill",
            0.0,
            cluster().with_fault_plan(FaultPlan::worker_crash_at_step(0xFA01, 0, 4)),
        ),
        (
            "chunk-loss-burst",
            0.3,
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
    ];
    for (name, rate, spec) in structural {
        let (mk, stats) = run_subset(&spec, &data);
        let overhead = mk / base_mk.max(1e-12);
        assert!(
            stats.recomputed_subtasks + stats.recovered_from_spill_bytes > 0,
            "{name} schedule produced no recovery work"
        );
        println!(
            "{name}: makespan {mk:.3}s ({overhead:.2}x), recomputed {}, \
             recovered-from-spill {} B",
            stats.recomputed_subtasks, stats.recovered_from_spill_bytes
        );
        rows.push(format!(
            "    {{\"schedule\": \"{name}\", \"fault_rate\": {rate}, \
             \"makespan_s\": {mk:.4}, \"overhead_x\": {overhead:.3}, \
             \"retries\": {}, \"recomputed_subtasks\": {}, \
             \"recovered_from_spill_bytes\": {}}}",
            stats.retries, stats.recomputed_subtasks, stats.recovered_from_spill_bytes
        ));
    }

    // ---- emit ---------------------------------------------------------------
    let queries: Vec<String> = QUERIES.iter().map(|q| format!("\"q{q}\"")).collect();
    let json = format!(
        "{{\n  \"workers\": {WORKERS},\n  \"sf\": {SF},\n  \"queries\": [{}],\n  \
         \"baseline_makespan_s\": {base_mk:.4},\n  \
         \"zero_fault_plan_parity\": {zero_fault_parity},\n  \"schedules\": [\n{}\n  ]\n}}\n",
        queries.join(", "),
        rows.join(",\n")
    );
    std::fs::write("BENCH_faults.json", &json).unwrap();
    print!("{json}");
    xorbits_bench::trace_dump_from_env();
}
