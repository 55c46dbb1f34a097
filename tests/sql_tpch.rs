//! The SQL-frontend equivalence gate.
//!
//! All 22 TPC-H queries run from SQL text through the frontend and must be
//! **bit-identical** to the hand-built tileable-graph programs, on the
//! single-threaded [`LocalExecutor`] oracle, the work-stealing
//! [`ParallelExecutor`] at 4 threads, and the virtual-cluster
//! [`SimExecutor`] — same planner configuration everywhere, so the SQL
//! lowering must produce the same operator sequence the pandas-style port
//! builds by hand.
//!
//! A second gate pins the plan-cache keying: a whitespace/case variant of
//! a cached query hits the normalized-text level without reparsing, a
//! table-alias renaming hits the canonical-AST level, and a literal change
//! misses and replans.

use xorbits::baselines::EngineKind;
use xorbits::core::config::XorbitsConfig;
use xorbits::core::local::LocalExecutor;
use xorbits::core::parallel::ParallelExecutor;
use xorbits::core::session::Session;
use xorbits::core::sql::SqlFrontend;
use xorbits::dataframe::DataFrame;
use xorbits::runtime::{ClusterSpec, SimExecutor};
use xorbits::workloads::tpch::{run_query_on, run_query_sql, sql_text, tpch_catalog, TpchData};

const SF: f64 = 1.0;

/// Shared planner configuration: identical configs produce identical
/// plans, so results compare with `assert_eq!` (bit identity).
fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: 8,
        ..Default::default()
    }
}

/// The hand-built program on the LocalExecutor: the oracle both the SQL
/// path and the other executors are compared against.
fn oracle(data: &TpchData, q: u32) -> DataFrame {
    let s = Session::new(cfg(), LocalExecutor::new());
    run_query_on(
        &s,
        &EngineKind::Xorbits.profile().caps,
        "xorbits-local-oracle",
        data,
        q,
    )
    .unwrap_or_else(|e| panic!("hand-built oracle failed on Q{q}: {e}"))
}

fn run_matrix(queries: std::ops::RangeInclusive<u32>) {
    let data = TpchData::new(SF).expect("tpch data");
    for q in queries {
        let expect = oracle(&data, q);

        let s = Session::new(cfg(), LocalExecutor::new());
        let got = run_query_sql(&s, &data, q)
            .unwrap_or_else(|e| panic!("SQL Q{q} failed on LocalExecutor: {e}"));
        assert_eq!(
            got, expect,
            "SQL Q{q} on LocalExecutor must be bit-identical to the hand-built program"
        );

        let s = Session::new(cfg(), ParallelExecutor::with_threads(4));
        let got = run_query_sql(&s, &data, q)
            .unwrap_or_else(|e| panic!("SQL Q{q} failed on ParallelExecutor: {e}"));
        assert_eq!(
            got, expect,
            "SQL Q{q} on ParallelExecutor(4) must be bit-identical to the hand-built program"
        );

        let s = Session::new(cfg(), SimExecutor::new(ClusterSpec::new(4, 256 << 20)));
        let got = run_query_sql(&s, &data, q)
            .unwrap_or_else(|e| panic!("SQL Q{q} failed on SimExecutor: {e}"));
        assert_eq!(
            got, expect,
            "SQL Q{q} on SimExecutor must be bit-identical to the hand-built program"
        );
    }
}

#[test]
fn sql_matrix_q01_to_q08() {
    run_matrix(1..=8);
}

#[test]
fn sql_matrix_q09_to_q15() {
    run_matrix(9..=15);
}

#[test]
fn sql_matrix_q16_to_q22() {
    run_matrix(16..=22);
}

/// `LIMIT` over nothing — a predicate no row passes, or `LIMIT 0` — is an
/// empty frame with the select list's schema, as the same text without
/// `LIMIT` and the single-node kernels return it.
#[test]
fn limit_selecting_no_rows_is_an_empty_frame() {
    let data = TpchData::new(SF).expect("tpch data");
    let fe = SqlFrontend::new(
        Session::new(cfg(), LocalExecutor::new()),
        tpch_catalog(&data).expect("catalog"),
    );
    let unlimited = fe
        .query("select l_orderkey from lineitem where l_quantity < 0")
        .expect("no LIMIT");
    assert_eq!((unlimited.num_rows(), unlimited.num_columns()), (0, 1));
    let limited = fe
        .query("select l_orderkey from lineitem where l_quantity < 0 limit 5")
        .expect("LIMIT over an empty selection");
    assert_eq!(limited, unlimited.head(5));

    let all = fe.query("select l_orderkey from lineitem").expect("scan");
    let none = fe
        .query("select l_orderkey from lineitem limit 0")
        .expect("LIMIT 0");
    assert_eq!(none, all.head(0));
    assert_eq!(none.schema().names(), vec!["l_orderkey"]);
}

/// Plan-cache keying: text-level hits skip parse+plan, AST-level hits
/// survive alias renaming, literal changes miss.
#[test]
fn plan_cache_normalization_invariance() {
    let data = TpchData::new(SF).expect("tpch data");
    let catalog = tpch_catalog(&data).expect("catalog");
    let fe = SqlFrontend::new(Session::new(cfg(), LocalExecutor::new()), catalog);

    // Q6 has no string literals, so upper-casing is a pure case change.
    let q6 = sql_text(6).expect("q6 text");
    let first = fe.query(q6).expect("q6");
    let stats = fe.cache_stats();
    assert_eq!((stats.text_hits, stats.ast_hits, stats.misses), (0, 0, 1));

    let shouted = q6.to_uppercase().replace(' ', "  \n ");
    let again = fe.query(&shouted).expect("q6 case/whitespace variant");
    assert_eq!(again, first, "normalized resubmission must reuse the plan");
    let stats = fe.cache_stats();
    assert_eq!(
        (stats.text_hits, stats.ast_hits, stats.misses),
        (1, 0, 1),
        "case/whitespace variant must hit the normalized-text level"
    );

    // Table-alias renaming changes the text key but canonicalizes to the
    // same AST: level-2 hit.
    let base = "SELECT l_orderkey, l_quantity FROM lineitem big WHERE big.l_quantity < 10.0";
    let renamed = "SELECT l_orderkey, l_quantity FROM lineitem small WHERE small.l_quantity < 10.0";
    let b = fe.query(base).expect("aliased base");
    let stats = fe.cache_stats();
    assert_eq!((stats.text_hits, stats.ast_hits, stats.misses), (1, 0, 2));
    let r = fe.query(renamed).expect("alias-renamed variant");
    assert_eq!(r, b, "alias renaming must not change the result");
    let stats = fe.cache_stats();
    assert_eq!(
        (stats.text_hits, stats.ast_hits, stats.misses),
        (1, 1, 2),
        "alias renaming must hit the canonical-AST level"
    );

    // A literal change is a different query: full miss.
    let changed = "SELECT l_orderkey, l_quantity FROM lineitem big WHERE big.l_quantity < 20.0";
    let c = fe.query(changed).expect("literal-changed variant");
    assert!(
        c.num_rows() >= b.num_rows(),
        "looser predicate keeps at least as many rows"
    );
    let stats = fe.cache_stats();
    assert_eq!(
        (stats.text_hits, stats.ast_hits, stats.misses),
        (1, 1, 3),
        "literal change must miss and replan"
    );

    // Resubmitting the renamed text verbatim now hits at the text level
    // (the alias mapping was remembered).
    fe.query(renamed).expect("renamed resubmission");
    let stats = fe.cache_stats();
    assert_eq!((stats.text_hits, stats.ast_hits, stats.misses), (2, 1, 3));
}
