//! Multi-tenant serving benchmark: N tenants submit Zipf-skewed TPC-H
//! query streams into one shared virtual cluster, and we measure what the
//! lineage-keyed result cache buys in mean virtual latency and how fairly
//! the deficit-round-robin scheduler shares the bands.
//!
//! Three configurations run over the identical pinned-seed streams:
//!
//! 1. **solo** — each tenant alone on the cluster (the fairness baseline),
//! 2. **contended, cache off** — all tenants together,
//! 3. **contended, cache on** — all tenants together with the shared
//!    result cache.
//!
//! Acceptance gates (assert-enforced):
//! * cache-on results are bit-identical to fresh (cache-off) execution,
//! * mean virtual latency improves by ≥ 2× with the cache on,
//! * max/min tenant slowdown (contended vs solo) stays ≤ 2×,
//! * the execution ledger drains after every run.
//!
//! Knobs: `XORBITS_TENANTS` (default 4), `XORBITS_CACHE_BYTES`
//! (default 256 MiB), plus the usual `XORBITS_TRACE_OUT` / trace knobs.
//!
//! Run with: `cargo run --release -p xorbits-bench --example bench_serving`

use std::sync::Arc;
use xorbits_array::prng::{Xoshiro256, Zipf};
use xorbits_baselines::EngineKind;
use xorbits_bench::{cache_bytes_from_env, tenants_from_env};
use xorbits_core::config::XorbitsConfig;
use xorbits_core::explain::explain_serving;
use xorbits_serving::{percentile, ServingOutcome, ServingRuntime, TenantStream};
use xorbits_workloads::tpch::{run_query_on, TpchData};

/// TPC-H queries in Zipf rank order: rank 0 (the hot query) is Q6, the
/// cheapest, mirroring the skew of real dashboards where the most
/// frequent query is a light scan.
const POOL: [u32; 8] = [6, 1, 12, 3, 14, 4, 19, 10];
const QUERIES_PER_TENANT: usize = 10;
const ZIPF_S: f64 = 1.1;
const SEED: u64 = 0x5EED_5E21;

fn draw_plan(tenants: usize) -> Vec<Vec<u32>> {
    let zipf = Zipf::new(POOL.len(), ZIPF_S);
    (0..tenants)
        .map(|t| {
            let mut rng =
                Xoshiro256::seed_from_u64(SEED ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (0..QUERIES_PER_TENANT)
                .map(|_| POOL[zipf.sample(&mut rng)])
                .collect()
        })
        .collect()
}

fn streams(data: &Arc<TpchData>, plan: &[Vec<u32>]) -> Vec<TenantStream> {
    plan.iter()
        .map(|qs| {
            let mut s = TenantStream::new(1);
            for &q in qs {
                let data = Arc::clone(data);
                s.push(move |sess| {
                    let caps = EngineKind::Xorbits.profile().caps;
                    run_query_on(sess, &caps, "xorbits", &data, q)
                });
            }
            s
        })
        .collect()
}

fn flat_latencies(out: &ServingOutcome) -> Vec<f64> {
    out.latencies.iter().flatten().copied().collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn main() {
    xorbits_bench::trace_init_from_env();
    let threads = xorbits_bench::threads_from_env();

    let tenants = tenants_from_env(4);
    let cache_bytes = cache_bytes_from_env(256 << 20);
    let spec = xorbits_bench::cluster(4, 64 << 20);
    let cfg = XorbitsConfig::default();
    let data = Arc::new(TpchData::new(0.1).expect("tpch data"));
    let plan = draw_plan(tenants);

    println!(
        "== serving: {tenants} tenants x {QUERIES_PER_TENANT} Zipf({ZIPF_S}) TPC-H queries =="
    );
    println!(
        "   pool {POOL:?}, cache budget {} MiB, {threads} host threads",
        cache_bytes >> 20
    );
    for (t, qs) in plan.iter().enumerate() {
        println!("   tenant {t}: {qs:?}");
    }

    // 1. solo baselines: each tenant alone on the same cluster, cache off
    let mut solo_mean = Vec::with_capacity(tenants);
    for (t, qs) in plan.iter().enumerate() {
        let rt = ServingRuntime::new(spec.clone(), cfg.clone());
        let out = rt
            .run(streams(&data, std::slice::from_ref(qs)))
            .expect("solo serving run");
        assert!(out.ledger_drained, "solo run must drain the ledger");
        let m = mean(&flat_latencies(&out));
        println!("   solo tenant {t}: mean latency {m:.4}s");
        solo_mean.push(m);
    }

    // 2. contended, cache off
    let rt_off = ServingRuntime::new(spec.clone(), cfg.clone());
    let mut off = rt_off.run(streams(&data, &plan)).expect("cache-off run");
    assert!(off.ledger_drained, "cache-off run must drain the ledger");

    // 3. contended, cache on (same streams, same seed)
    let rt_on = ServingRuntime::new(spec.clone(), cfg.clone()).with_cache_bytes(cache_bytes);
    let on = rt_on.run(streams(&data, &plan)).expect("cache-on run");
    assert!(on.ledger_drained, "cache-on run must drain the ledger");

    // cached results must be bit-identical to fresh execution
    assert_eq!(
        on.results, off.results,
        "cache-on results must be bit-identical to fresh execution"
    );

    let mean_off = mean(&flat_latencies(&off));
    let mean_on = mean(&flat_latencies(&on));
    let improvement = mean_off / mean_on.max(f64::EPSILON);

    // fill per-tenant slowdowns (contended cache-off mean over solo mean)
    for (t, st) in off.stats.tenants.iter_mut().enumerate() {
        st.slowdown = st.mean_latency / solo_mean[t].max(f64::EPSILON);
    }
    let spread = off.stats.slowdown_spread();

    println!("\n-- contended, cache off --");
    print!("{}", explain_serving(&off.stats));
    println!("\n-- contended, cache on --");
    print!("{}", explain_serving(&on.stats));
    println!();
    println!(
        "mean latency: {mean_off:.4}s off -> {mean_on:.4}s on ({improvement:.2}x, hit rate {:.0}%)",
        on.stats.hit_rate() * 100.0
    );
    println!(
        "fairness: slowdowns {:?}, max/min spread {spread:.2}x",
        off.stats
            .tenants
            .iter()
            .map(|t| (t.slowdown * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );

    // acceptance gates
    assert!(
        improvement >= 2.0,
        "result cache must cut mean virtual latency at least 2x (got {improvement:.2}x)"
    );
    assert!(
        spread <= 2.0,
        "max/min tenant slowdown must stay within 2x (got {spread:.2}x)"
    );
    assert!(
        on.stats.cache_hits > 0,
        "a Zipf(1.1) stream must produce cache hits"
    );

    // BENCH_serving.json
    let mut tenant_rows = Vec::with_capacity(tenants);
    for (t, ts_off) in off.stats.tenants.iter().enumerate() {
        let on_lat = &on.latencies[t];
        tenant_rows.push(format!(
            concat!(
                "    {{\"tenant\": {}, \"weight\": {}, \"queries\": {}, \"cache_hits\": {}, ",
                "\"solo_mean_s\": {:.6}, \"mean_off_s\": {:.6}, \"mean_on_s\": {:.6}, ",
                "\"p50_off_s\": {:.6}, \"p99_off_s\": {:.6}, ",
                "\"p50_on_s\": {:.6}, \"p99_on_s\": {:.6}, \"slowdown\": {:.4}}}"
            ),
            t,
            ts_off.weight,
            ts_off.queries,
            on.stats.tenants[t].cache_hits,
            solo_mean[t],
            ts_off.mean_latency,
            mean(on_lat),
            ts_off.p50_latency,
            ts_off.p99_latency,
            percentile(on_lat, 50.0),
            percentile(on_lat, 99.0),
            ts_off.slowdown,
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serving\",\n",
            "  \"tenants\": {},\n",
            "  \"queries_per_tenant\": {},\n",
            "  \"zipf_s\": {},\n",
            "  \"pool\": {:?},\n",
            "  \"cache_budget_bytes\": {},\n",
            "  \"host_threads\": {},\n",
            "  \"mean_latency_off_s\": {:.6},\n",
            "  \"mean_latency_on_s\": {:.6},\n",
            "  \"improvement_x\": {:.4},\n",
            "  \"cache_hit_rate\": {:.4},\n",
            "  \"cache_hits\": {},\n",
            "  \"cache_misses\": {},\n",
            "  \"cache_evictions\": {},\n",
            "  \"admission_queued_off\": {},\n",
            "  \"admission_wait_off_s\": {:.6},\n",
            "  \"slowdown_spread\": {:.4},\n",
            "  \"ledger_drained\": {},\n",
            "  \"per_tenant\": [\n{}\n  ]\n",
            "}}\n"
        ),
        tenants,
        QUERIES_PER_TENANT,
        ZIPF_S,
        POOL,
        cache_bytes,
        threads,
        mean_off,
        mean_on,
        improvement,
        on.stats.hit_rate(),
        on.stats.cache_hits,
        on.stats.cache_misses,
        on.stats.cache_evictions,
        off.stats.admission_queued,
        off.stats.admission_wait,
        spread,
        off.ledger_drained && on.ledger_drained,
        tenant_rows.join(",\n"),
    );
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("\nwrote BENCH_serving.json");

    xorbits_bench::trace_dump_from_env();
}
