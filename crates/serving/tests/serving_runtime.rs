//! End-to-end serving-runtime tests: correctness vs solo execution,
//! barrier determinism (with and without injected scheduling jitter),
//! cache hits, admission queueing, lineage invalidation, weighted
//! fairness, and the failure paths — a tenant whose query panics, a fetch
//! that fails after it was admitted, a panic on the coordinator's side.

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xorbits_array::prng::{Xoshiro256, Zipf};
use xorbits_baselines::EngineKind;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::session::Session;
use xorbits_core::tileable::{df_fingerprint, DfSource};
use xorbits_core::trace;
use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame, Scalar};
use xorbits_runtime::{ClusterSpec, SimExecutor};
use xorbits_serving::{LineageCache, ServingRuntime, TenantExecutor, TenantStream};
use xorbits_workloads::tpch::{run_query_on, TpchData};

fn cfg() -> XorbitsConfig {
    XorbitsConfig::default()
}

fn data() -> Arc<TpchData> {
    Arc::new(TpchData::new(0.2).expect("tpch data"))
}

fn tpch_query(
    data: &Arc<TpchData>,
    q: u32,
) -> impl FnOnce(&Session<TenantExecutor>) -> xorbits_core::error::XbResult<DataFrame> + Send + 'static
{
    let data = Arc::clone(data);
    move |s: &Session<TenantExecutor>| {
        let caps = EngineKind::Xorbits.profile().caps;
        run_query_on(s, &caps, "xorbits", &data, q)
    }
}

fn streams(data: &Arc<TpchData>, plan: &[(u32, Vec<u32>)]) -> Vec<TenantStream> {
    plan.iter()
        .map(|(weight, qs)| {
            let mut s = TenantStream::new(*weight);
            for &q in qs {
                s.push(tpch_query(data, q));
            }
            s
        })
        .collect()
}

fn solo(data: &Arc<TpchData>, q: u32) -> DataFrame {
    let s = Session::new(cfg(), SimExecutor::new(ClusterSpec::new(4, 256 << 20)));
    let caps = EngineKind::Xorbits.profile().caps;
    run_query_on(&s, &caps, "xorbits", data, q).expect("solo run")
}

/// The deterministic projection of serving stats: virtual latencies embed
/// host-measured kernel seconds (like every makespan in this repo), so
/// determinism gates compare result bits and discrete counters only.
fn det(out: &xorbits_serving::ServingOutcome) -> impl PartialEq + std::fmt::Debug {
    (
        out.stats.cache_hits,
        out.stats.cache_misses,
        out.stats.cache_evictions,
        out.stats.cache_invalidations,
        out.stats.admission_queued,
        out.stats
            .tenants
            .iter()
            .map(|t| (t.tenant, t.weight, t.queries, t.cache_hits))
            .collect::<Vec<_>>(),
        out.ledger_drained,
    )
}

#[test]
fn matches_solo_and_is_deterministic() {
    let data = data();
    let plan = [(1, vec![6, 3]), (1, vec![1, 6]), (2, vec![3])];
    let rt = ServingRuntime::new(ClusterSpec::new(4, 256 << 20), cfg());

    let a = rt.run(streams(&data, &plan)).expect("serving run");
    let b = rt.run(streams(&data, &plan)).expect("serving rerun");

    // bit-identical results and counters across runs, regardless of
    // thread scheduling (latencies embed host-measured kernel time)
    assert_eq!(a.results, b.results);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(det(&a), det(&b));
    assert!(a.ledger_drained, "execution ledger must drain on shutdown");

    // every tenant's answers equal a solo run of the same query
    for (t, (_, qs)) in plan.iter().enumerate() {
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(
                a.results[t][i],
                solo(&data, q),
                "tenant {t} query {q} diverged from solo execution"
            );
        }
    }
}

#[test]
fn repeated_queries_hit_the_cache() {
    let data = data();
    // both tenants run Q6 twice: the second occurrence must be served from
    // the shared cache with zero virtual latency and identical bits
    let plan = [(1, vec![6, 6, 1]), (1, vec![6, 6])];
    let rt = ServingRuntime::new(ClusterSpec::new(4, 256 << 20), cfg()).with_cache_bytes(64 << 20);
    let out = rt.run(streams(&data, &plan)).expect("serving run");

    for t in 0..2 {
        assert!(
            out.cache_hits[t][1],
            "tenant {t}'s repeat of Q6 should be a cache hit"
        );
        assert_eq!(out.results[t][0], out.results[t][1]);
        assert_eq!(out.latencies[t][1], 0.0);
        assert_eq!(out.results[t][0], solo(&data, 6));
    }
    assert!(out.stats.cache_hits >= 2);
    assert!(out.stats.hit_rate() > 0.0);
    assert!(out.ledger_drained);

    // determinism with the cache in the loop: identical hit counts
    let out2 = rt.run(streams(&data, &plan)).expect("serving rerun");
    assert_eq!(out.results, out2.results);
    assert_eq!(out.cache_hits, out2.cache_hits);
    assert_eq!(det(&out), det(&out2));
}

#[test]
fn admission_control_queues_under_pressure() {
    let data = data();
    // budget = 1 worker × 12 MB, estimates ≥ chunk_limit (8 MB): two
    // concurrent fetches cannot both reserve, so someone queues
    let plan = [(1, vec![6]), (1, vec![6]), (1, vec![1])];
    let rt = ServingRuntime::new(ClusterSpec::new(1, 12 << 20), cfg());
    let out = rt.run(streams(&data, &plan)).expect("serving run");

    assert!(
        out.stats.admission_queued > 0,
        "at least one fetch must queue under a 12 MB budget"
    );
    assert!(out.stats.admission_wait >= 0.0);
    for (t, (_, qs)) in plan.iter().enumerate() {
        assert_eq!(out.results[t][0], solo(&data, qs[0]));
    }
    assert!(out.ledger_drained);
}

#[test]
fn heavier_weight_finishes_sooner() {
    let data = data();
    // identical streams, 8× weight difference: the heavy tenant's subtasks
    // get 8 DRR credits per pass and its queries finish first
    let plan = [(8, vec![1]), (1, vec![1])];
    let rt = ServingRuntime::new(ClusterSpec::new(2, 256 << 20), cfg());
    let out = rt.run(streams(&data, &plan)).expect("serving run");
    assert!(
        out.stats.tenants[0].mean_latency <= out.stats.tenants[1].mean_latency,
        "weight-8 tenant ({:.4}s) should not be slower than weight-1 ({:.4}s)",
        out.stats.tenants[0].mean_latency,
        out.stats.tenants[1].mean_latency,
    );
}

/// Four tenants' pinned-seed Zipf(1.1) streams over four TPC-H queries.
fn zipf_plan() -> Vec<(u32, Vec<u32>)> {
    let pool = [6u32, 1, 3, 12];
    let zipf = Zipf::new(pool.len(), 1.1);
    (0..4)
        .map(|t| {
            let mut rng = Xoshiro256::seed_from_u64(0xD15C ^ (t as u64) << 8);
            (1, (0..6).map(|_| pool[zipf.sample(&mut rng)]).collect())
        })
        .collect()
}

/// The CI multi-tenant determinism gate: four tenants each submit a
/// pinned-seed Zipf(1.1) TPC-H stream through the shared result cache; the
/// whole run repeats and must reproduce bit-identical per-tenant results,
/// identical cache hit counts, and a drained ledger — independent of how
/// the OS schedules the four driver threads.
#[test]
fn zipf_stream_is_deterministic() {
    let data = data();
    let plan = zipf_plan();

    let rt = ServingRuntime::new(ClusterSpec::new(4, 256 << 20), cfg()).with_cache_bytes(64 << 20);
    let a = rt.run(streams(&data, &plan)).expect("first run");
    let b = rt.run(streams(&data, &plan)).expect("second run");

    assert_eq!(
        a.results, b.results,
        "per-tenant results must be bit-identical"
    );
    assert_eq!(a.cache_hits, b.cache_hits, "per-query hit flags must match");
    assert_eq!(det(&a), det(&b), "counters must match across reruns");
    assert!(a.stats.cache_hits > 0, "a Zipf stream must repeat queries");
    assert!(a.ledger_drained && b.ledger_drained);

    // and the answers are right, not merely reproducible
    for (t, (_, qs)) in plan.iter().enumerate() {
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(a.results[t][i], solo(&data, q));
        }
    }
}

#[test]
fn lineage_invalidation_is_never_stale() {
    let source = DataFrame::new(vec![
        ("k", Column::from_i64((0..64).map(|i| i % 4).collect())),
        ("v", Column::from_i64((0..64).collect())),
    ])
    .expect("frame");

    let cache: Arc<Mutex<LineageCache>> = Arc::new(Mutex::new(LineageCache::new(16 << 20)));
    let s = Session::new(cfg(), SimExecutor::new(ClusterSpec::new(2, 64 << 20)));
    s.set_result_cache(cache.clone());

    let h = s
        .from_df(source.clone())
        .expect("source")
        .filter(col("v").gt(lit(Scalar::Int(5))))
        .expect("filter")
        .groupby_agg(
            vec!["k".into()],
            vec![AggSpec::new("v", AggFunc::Sum, "sum_v")],
        )
        .expect("groupby");

    let fresh = h.fetch().expect("first fetch");
    assert!(!s.last_report().unwrap().cache_hit);

    let cached = h.fetch().expect("cached fetch");
    assert!(s.last_report().unwrap().cache_hit, "refetch must hit");
    assert_eq!(fresh, cached, "cached result must be bit-identical");

    // the upstream source changes: lineage invalidation must drop the
    // entry, and the next fetch recomputes instead of serving stale bits
    let dropped = cache
        .lock()
        .unwrap()
        .invalidate_source(df_fingerprint(&source));
    assert_eq!(dropped, 1, "the cached entry depends on the source");

    let recomputed = h.fetch().expect("post-invalidation fetch");
    assert!(
        !s.last_report().unwrap().cache_hit,
        "invalidated entry must never be served"
    );
    assert_eq!(fresh, recomputed);
    assert_eq!(cache.lock().unwrap().stats().invalidations, 1);
}

/// A traced serving run records what the tenant drivers do, not only the
/// coordinator's band events: the drivers adopt the caller's trace, so
/// their tile spans, `stage.*` gauges and `exec.*` counters land in it.
#[test]
fn a_traced_run_records_the_tenant_drivers() {
    let mut stream = TenantStream::new(1);
    stream.push(|s: &Session<TenantExecutor>| {
        let df = DataFrame::new(vec![
            ("k", Column::from_i64((0..256).map(|i| i % 4).collect())),
            ("v", Column::from_i64((0..256).collect())),
        ])?;
        s.from_df(df)?
            .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])?
            .fetch()
    });
    trace::enable(1 << 16);
    let rt = ServingRuntime::new(ClusterSpec::new(2, 64 << 20), cfg());
    let run = rt.run(vec![stream]);
    let log = trace::disable().expect("tracing was enabled");
    run.expect("serving run");

    assert!(log.events.iter().any(|e| e.name == "tile_step"));
    assert!(log.metrics.gauges.contains_key("stage.tile_step.seconds"));
    assert!(log.metrics.counters["exec.subtasks"] > 0);
}

/// A tenant query that panicked used to leave its driver `Running` in the
/// coordinator's eyes forever, and `run` never returned. The run sits on a
/// watched thread so a relapse fails here instead of hanging the suite.
#[test]
fn a_panicking_tenant_query_is_an_error_naming_it_not_a_hang() {
    let data = data();
    let answered = Arc::new(Mutex::new(Vec::new()));
    let mut healthy = TenantStream::new(1);
    for q in [6, 1] {
        let (query, answered) = (tpch_query(&data, q), Arc::clone(&answered));
        healthy.push(move |s| {
            let df = query(s)?;
            answered.lock().unwrap().push(df.clone());
            Ok(df)
        });
    }
    let mut faulty = TenantStream::new(1);
    faulty.push(tpch_query(&data, 6));
    faulty.push(|_| panic!("query fault"));
    faulty.push(tpch_query(&data, 1));

    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let rt = ServingRuntime::new(ClusterSpec::new(4, 256 << 20), cfg());
        let outcome = rt.run(vec![healthy, faulty]);
        done_tx.send(outcome.map(|_| ())).ok();
    });
    let outcome = done_rx
        .recv_timeout(Duration::from_secs(300))
        .expect("ServingRuntime::run hangs when a tenant query panics");

    let err = outcome
        .expect_err("a panicked query fails the run")
        .to_string();
    assert!(
        err.contains("tenant 1 query 1 panicked: query fault"),
        "{err}"
    );
    // the healthy tenant ran to the end, correctly, and everything that
    // executed was released
    assert_eq!(*answered.lock().unwrap(), [solo(&data, 6), solo(&data, 1)]);
    assert!(!err.contains("ledger"), "{err}");
}

/// Barrier determinism against the wait/notify code rather than run-to-run
/// luck: the Zipf streams again, each query now preceded and followed by a
/// seeded sleep or yield, so drivers reach their blocking calls in orders
/// an idle host never produces. Nothing observable may move.
#[test]
fn scheduling_jitter_cannot_change_the_outcome() {
    fn jitter(rng: &mut Xoshiro256) {
        match rng.next_bounded(3) {
            0 => {}
            1 => std::thread::yield_now(),
            _ => std::thread::sleep(Duration::from_micros(rng.next_bounded(1500))),
        }
    }
    let data = data();
    let plan = zipf_plan();
    let rt = ServingRuntime::new(ClusterSpec::new(4, 256 << 20), cfg()).with_cache_bytes(64 << 20);
    let calm = rt.run(streams(&data, &plan)).expect("un-jittered run");

    for seed in [0x51EE9u64, 0xB0B] {
        let jittered = plan
            .iter()
            .enumerate()
            .map(|(t, (weight, qs))| {
                let mut s = TenantStream::new(*weight);
                for (i, &q) in qs.iter().enumerate() {
                    let query = tpch_query(&data, q);
                    let mut rng = Xoshiro256::seed_from_u64(seed ^ ((t * 64 + i) as u64) << 20);
                    s.push(move |session| {
                        jitter(&mut rng);
                        let out = query(session);
                        jitter(&mut rng);
                        out
                    });
                }
                s
            })
            .collect();
        let out = rt.run(jittered).expect("jittered run");
        assert_eq!(out.results, calm.results, "seed {seed:#x}: result frames");
        assert_eq!(out.cache_hits, calm.cache_hits, "seed {seed:#x}: hit flags");
        assert_eq!(det(&out), det(&calm), "seed {seed:#x}: counters");
    }
}

/// Runs two streams on a watched thread — the failure mode of the tests
/// below is a hang, not a red assertion — and returns the run's error text
/// plus what the first (healthy) stream's queries answered, in order.
fn failing_run(
    spec: ClusterSpec,
    cfg: XorbitsConfig,
    healthy: &[u32],
    faulty: TenantStream,
) -> (String, Vec<DataFrame>) {
    let data = data();
    let answered = Arc::new(Mutex::new(Vec::new()));
    let mut stream = TenantStream::new(1);
    for &q in healthy {
        let (query, answered) = (tpch_query(&data, q), Arc::clone(&answered));
        stream.push(move |s| {
            let df = query(s)?;
            answered.lock().unwrap().push(df.clone());
            Ok(df)
        });
    }
    let (done_tx, done_rx) = channel();
    std::thread::spawn(move || {
        let outcome = ServingRuntime::new(spec, cfg).run(vec![stream, faulty]);
        done_tx.send(outcome.map(|_| ())).ok();
    });
    let outcome = done_rx
        .recv_timeout(Duration::from_secs(300))
        .expect("ServingRuntime::run hangs when a tenant fails");
    let err = outcome.expect_err("the faulty tenant fails the run");
    let answered = answered.lock().unwrap().clone();
    (err.to_string(), answered)
}

/// A fetch that failed in a graph after its first — admitted, chunks
/// published — used to return through `?` without ever closing the fetch:
/// its reservation and chunks stayed. Under a roomy budget the ledger did
/// not drain; under a tight one the *healthy* tenant's remaining fetches
/// queued behind the leaked reservation until "serving deadlock".
#[test]
fn a_fetch_failing_after_admission_releases_what_it_held() {
    let data = data();
    let cfg = XorbitsConfig {
        chunk_limit_bytes: 256 << 10,
        ..cfg()
    };
    for (spec, healthy) in [
        (ClusterSpec::new(2, 2 << 20), vec![6, 1]),
        (ClusterSpec::new(1, 1 << 20), vec![6, 1, 6, 1, 6, 1]),
    ] {
        // the group-by's dynamic tiling runs sources + map stage as a first
        // graph; the filter on a column that is not there fails in a later
        let mut faulty = TenantStream::new(1);
        faulty.push(|s| {
            let n = 200_000;
            let frame = DataFrame::new(vec![
                ("k", Column::from_i64((0..n).map(|i| i % 7).collect())),
                ("v", Column::from_i64((0..n).collect())),
            ])?;
            s.from_df(frame)?
                .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])?
                .filter(col("missing").lt(lit(Scalar::Int(1))))?
                .fetch()
        });
        let (err, answered) = failing_run(spec, cfg.clone(), &healthy, faulty);
        assert!(err.contains("tenant 1 query 0 failed"), "{err}");
        assert!(err.contains("column not found"), "{err}");
        assert!(!err.contains("ledger"), "{err}");
        let solo: Vec<DataFrame> = healthy.iter().map(|&q| solo(&data, q)).collect();
        assert_eq!(answered, solo, "the healthy tenant's stream ran to the end");
    }
}

/// A source generator (or a kernel) that panics does so inside
/// `step_graph`, on the coordinator's side; every driver was then left
/// waiting for an answer and `run` never returned.
#[test]
fn a_panic_on_the_coordinators_side_is_an_error_naming_the_query_not_a_hang() {
    let data = data();
    let mut faulty = TenantStream::new(1);
    faulty.push(tpch_query(&data, 6));
    faulty.push(|s| {
        s.read_df(DfSource::Generator {
            rows: 1000,
            bytes_per_row: 16,
            gen: Arc::new(|_, _| panic!("generator fault")),
            label: "faulty".into(),
        })?
        .fetch()
    });
    let (err, answered) = failing_run(ClusterSpec::new(4, 256 << 20), cfg(), &[6, 1], faulty);
    assert!(
        err.contains("tenant 1 query 1") && err.contains("generator fault"),
        "{err}"
    );
    // what the healthy tenant had finished by then was recorded
    assert_eq!(answered, [solo(&data, 6)]);
}
