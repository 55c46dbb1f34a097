//! Multi-core scaling curve for the [`ParallelExecutor`]'s subtask pool:
//! the full 22-query TPC-H suite at 1/2/4/8 worker threads. Emits
//! `BENCH_parallel.json` for the driver and asserts along the way that
//! every thread count produces results bit-identical to 1 thread.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_parallel`
//! Env:
//!   `XORBITS_TPCH_SF`              data scale (default 1.0)
//!   `XORBITS_BENCH_OUT`            output path (default BENCH_parallel.json)
//!   `XORBITS_THREAD_CURVE`         comma list (default `1,2,4,8`)
//!   `XORBITS_PARALLEL_MIN_SPEEDUP` check mode: exit nonzero unless the
//!     4-thread TPC-H total is at least this factor faster than 1-thread
//!     (only meaningful on a quiet multi-core box; leave unset elsewhere).

use std::time::Instant;
use xorbits_baselines::EngineKind;
use xorbits_bench::env_f64;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::parallel::ParallelExecutor;
use xorbits_core::session::Session;
use xorbits_dataframe::DataFrame;
use xorbits_workloads::tpch::{run_query_on, TpchData};

fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: 8,
        ..Default::default()
    }
}

/// Total wall seconds for the 22-query suite at a worker count, plus the
/// concatenated results for cross-thread-count equality checks.
fn tpch_suite(threads: usize, data: &TpchData) -> (f64, Vec<DataFrame>) {
    let caps = &EngineKind::Xorbits.profile().caps;
    let mut outs = Vec::with_capacity(22);
    let t = Instant::now();
    for q in 1..=22 {
        let s = Session::new(cfg(), ParallelExecutor::with_threads(threads));
        let out = run_query_on(&s, caps, "xorbits-parallel", data, q)
            .unwrap_or_else(|e| panic!("Q{q} failed at {threads} threads: {e}"));
        outs.push(out);
    }
    (t.elapsed().as_secs_f64(), outs)
}

fn main() {
    xorbits_bench::trace_init_from_env();
    let sf = env_f64("XORBITS_TPCH_SF", 1.0);
    let out_path =
        std::env::var("XORBITS_BENCH_OUT").unwrap_or_else(|_| "BENCH_parallel.json".into());
    let curve: Vec<usize> = std::env::var("XORBITS_THREAD_CURVE")
        .unwrap_or_else(|_| "1,2,4,8".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let data = TpchData::new(sf).expect("tpch data");

    println!("threads\ttpch_total_s");
    let mut rows = Vec::new();
    let mut oracle: Option<Vec<DataFrame>> = None;
    let mut total_1t = f64::NAN;
    let mut total_4t = f64::NAN;
    for &t in &curve {
        let (total, outs) = tpch_suite(t, &data);
        match &oracle {
            None => oracle = Some(outs),
            Some(expect) => {
                for (q, (a, b)) in expect.iter().zip(&outs).enumerate() {
                    assert_eq!(a, b, "Q{} diverged at {t} threads", q + 1);
                }
            }
        }
        if t == 1 {
            total_1t = total;
        }
        if t == 4 {
            total_4t = total;
        }
        println!("{t}\t{total:.4}");
        rows.push((t, total));
    }

    let speedup_4t = total_1t / total_4t;
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"sf\": {sf},\n"));
    json.push_str(&format!("  \"host_available_parallelism\": {host},\n"));
    json.push_str("  \"curve\": [\n");
    for (i, (t, total)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"threads\": {t}, \"tpch_total_s\": {total:.4} }}{}\n",
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"tpch_speedup_4t_over_1t\": {:.2},\n",
        if speedup_4t.is_finite() {
            speedup_4t
        } else {
            0.0
        }
    ));
    json.push_str(&format!(
        "  \"note\": \"results bit-identical across all thread counts; speedup is only meaningful when host_available_parallelism >= 4 (a single-core host yields a flat curve){}\"\n",
        if host < 4 { " — THIS RUN WAS ON SUCH A HOST" } else { "" }
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).unwrap();
    print!("{json}");

    xorbits_bench::trace_dump_from_env();

    if let Ok(min) = std::env::var("XORBITS_PARALLEL_MIN_SPEEDUP") {
        let min: f64 = min
            .parse()
            .expect("XORBITS_PARALLEL_MIN_SPEEDUP is a float");
        if host < 4 {
            eprintln!(
                "parallel smoke: host has {host} core(s); a {min}x speedup target \
                 cannot be met — treating as skipped"
            );
        } else if speedup_4t.is_nan() || speedup_4t < min {
            eprintln!(
                "parallel smoke FAILED: 4-thread TPC-H speedup {speedup_4t:.2}x < required {min}x"
            );
            std::process::exit(1);
        } else {
            println!("parallel smoke OK: {speedup_4t:.2}x >= {min}x");
        }
    }
}
