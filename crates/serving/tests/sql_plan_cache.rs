//! SQL plan cache × serving result cache composition.
//!
//! The [`SqlFrontend`] caches *plans* (lazy handles) under the normalized
//! text; the serving layer's [`LineageCache`] caches *results* under the
//! canonical plan hash. A resubmitted query must hit both: the plan cache
//! skips parse + lower, and re-fetching the cached handle is served from
//! the lineage cache without re-executing — bit-identically. An
//! alias-renamed text misses the plan cache and replans, and its fetch is
//! still served from the lineage cache: alias invariance lives there.

use std::sync::{Arc, Mutex};
use xorbits_core::config::XorbitsConfig;
use xorbits_core::session::Session;
use xorbits_core::sql::SqlFrontend;
use xorbits_runtime::{ClusterSpec, SimExecutor};
use xorbits_serving::LineageCache;
use xorbits_workloads::tpch::{sql_text, tpch_catalog, TpchData};

#[test]
fn resubmission_hits_plan_cache_and_result_cache() {
    let data = TpchData::new(0.2).expect("tpch data");
    let catalog = tpch_catalog(&data).expect("catalog");

    let session = Session::new(
        XorbitsConfig::default(),
        SimExecutor::new(ClusterSpec::new(4, 256 << 20)),
    );
    let cache: Arc<Mutex<LineageCache>> = Arc::new(Mutex::new(LineageCache::new(16 << 20)));
    session.set_result_cache(cache.clone());

    let fe = SqlFrontend::new(session, catalog);
    let q6 = sql_text(6).expect("q6 text");

    // Cold: plan-cache miss, result computed and admitted to the cache.
    let first = fe.query(q6).expect("cold q6");
    let plan = fe.cache_stats();
    assert_eq!((plan.text_hits, plan.misses), (0, 1));
    assert!(
        !fe.session().last_report().expect("report").cache_hit,
        "the cold run must execute"
    );

    // Verbatim resubmission: plan-cache text hit, and the re-fetched
    // handle is served from the lineage cache.
    let again = fe.query(q6).expect("warm q6");
    assert_eq!(again, first, "cached result must be bit-identical");
    let plan = fe.cache_stats();
    assert_eq!((plan.text_hits, plan.misses), (1, 1));
    assert!(
        fe.session().last_report().expect("report").cache_hit,
        "the warm run must be served from the result cache"
    );
    assert!(
        cache.lock().expect("cache").stats().hits >= 1,
        "the lineage cache must record the hit"
    );

    // A whitespace/case variant normalizes to the same plan, so it rides
    // the same cached handle — both caches hit again.
    let variant = q6.to_uppercase().replace(' ', "\n ");
    let third = fe.query(&variant).expect("variant q6");
    assert_eq!(third, first);
    let plan = fe.cache_stats();
    assert_eq!((plan.text_hits, plan.misses), (2, 1));
    assert!(
        fe.session().last_report().expect("report").cache_hit,
        "the normalized variant must also be served from the result cache"
    );
}

#[test]
fn alias_renamed_text_misses_the_plan_cache_and_hits_the_result_cache() {
    let data = TpchData::new(0.2).expect("tpch data");
    let catalog = tpch_catalog(&data).expect("catalog");
    let session = Session::new(
        XorbitsConfig::default(),
        SimExecutor::new(ClusterSpec::new(4, 256 << 20)),
    );
    let cache: Arc<Mutex<LineageCache>> = Arc::new(Mutex::new(LineageCache::new(16 << 20)));
    session.set_result_cache(cache.clone());
    let fe = SqlFrontend::new(session, catalog);

    let base = "WITH pricey AS (SELECT o_orderkey, o_custkey FROM orders \
                WHERE o_totalprice > 300000.0) \
                SELECT c.c_name, p.o_orderkey FROM pricey p \
                JOIN customer c ON p.o_custkey = c.c_custkey";
    let renamed = "WITH big_orders AS (SELECT o_orderkey, o_custkey FROM orders \
                   WHERE o_totalprice > 300000.0) \
                   SELECT cust.c_name, bo.o_orderkey FROM big_orders bo \
                   JOIN customer cust ON bo.o_custkey = cust.c_custkey";

    let first = fe.query(base).expect("cold base");
    assert!(first.num_rows() > 0, "the probe must select something");
    assert!(!fe.session().last_report().expect("report").cache_hit);
    let hits = cache.lock().expect("cache").stats().hits;

    let again = fe.query(renamed).expect("alias-renamed variant");
    let plan = fe.cache_stats();
    assert_eq!(
        (plan.text_hits, plan.misses),
        (0, 2),
        "an alias-renamed text is a different plan-cache key"
    );
    assert_eq!(again, first, "the renamed text must answer bit-identically");
    assert!(
        fe.session().last_report().expect("report").cache_hit,
        "the renamed text's fetch must be served from the result cache"
    );
    assert_eq!(cache.lock().expect("cache").stats().hits, hits + 1);
}
