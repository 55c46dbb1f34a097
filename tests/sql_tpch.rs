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
//! a cached query hits the normalized-text key without reparsing, while a
//! table-alias renaming or a literal change is a different text that
//! misses and replans — to the same result in the first case, and never
//! to another text's plan.

use xorbits::baselines::EngineKind;
use xorbits::core::config::XorbitsConfig;
use xorbits::core::local::LocalExecutor;
use xorbits::core::parallel::ParallelExecutor;
use xorbits::core::session::Session;
use xorbits::core::sql::{run_sql, Catalog, SqlFrontend};
use xorbits::core::tileable::DfSource;
use xorbits::dataframe::{Column, DataFrame};
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

/// Plan-cache keying: normalized-text hits skip parse+plan; alias renaming
/// and literal changes are different texts and miss.
#[test]
fn plan_cache_normalization_invariance() {
    let data = TpchData::new(SF).expect("tpch data");
    let catalog = tpch_catalog(&data).expect("catalog");
    let fe = SqlFrontend::new(Session::new(cfg(), LocalExecutor::new()), catalog);
    let counts = || {
        let stats = fe.cache_stats();
        (stats.text_hits, stats.misses)
    };

    // Q6 has no string literals, so upper-casing is a pure case change.
    let q6 = sql_text(6).expect("q6 text");
    let first = fe.query(q6).expect("q6");
    assert_eq!(counts(), (0, 1));

    let shouted = q6.to_uppercase().replace(' ', "  \n ");
    let again = fe.query(&shouted).expect("q6 case/whitespace variant");
    assert_eq!(again, first, "normalized resubmission must reuse the plan");
    assert_eq!(
        counts(),
        (1, 1),
        "case/whitespace variant must hit the normalized-text key"
    );

    // Table-alias renaming changes the text: a miss that replans to the
    // same result.
    let base = "SELECT l_orderkey, l_quantity FROM lineitem big WHERE big.l_quantity < 10.0";
    let renamed = "SELECT l_orderkey, l_quantity FROM lineitem small WHERE small.l_quantity < 10.0";
    let b = fe.query(base).expect("aliased base");
    assert_eq!(counts(), (1, 2));
    let r = fe.query(renamed).expect("alias-renamed variant");
    assert_eq!(r, b, "alias renaming must not change the result");
    assert_eq!(counts(), (1, 3), "alias renaming is a different text");

    // A literal change is a different query: miss.
    let changed = "SELECT l_orderkey, l_quantity FROM lineitem big WHERE big.l_quantity < 20.0";
    let c = fe.query(changed).expect("literal-changed variant");
    assert!(
        c.num_rows() >= b.num_rows(),
        "looser predicate keeps at least as many rows"
    );
    assert_eq!(counts(), (1, 4), "literal change must miss and replan");

    // Resubmitting the renamed text verbatim hits its own key.
    assert_eq!(fe.query(renamed).expect("renamed resubmission"), b);
    assert_eq!(counts(), (2, 4));
}

/// A CTE and a catalog table are different relations whatever they are
/// called: the second text below scans the two-row table `c0`, never the
/// first text's 25-row CTE. (A cache key that renamed CTEs to `c0…`
/// without looking at the catalog served the first plan to the second.)
#[test]
fn a_cte_never_shares_a_plan_with_a_table_of_its_canonical_name() {
    let data = TpchData::new(SF).expect("tpch data");
    let catalog = || {
        let mut c = tpch_catalog(&data).expect("catalog");
        let c0 = DataFrame::new(vec![("n_nationkey", Column::from_i64(vec![100, 200]))])
            .expect("c0 frame");
        c.add("c0", DfSource::materialized(c0))
            .expect("register c0");
        c
    };
    let fe = SqlFrontend::new(Session::new(cfg(), LocalExecutor::new()), catalog());
    let cte = fe
        .query("WITH x AS (SELECT n_nationkey FROM nation) SELECT n_nationkey FROM x")
        .expect("CTE over nation");
    assert_eq!(cte.num_rows(), 25);

    let table = "WITH y AS (SELECT n_nationkey FROM nation) SELECT n_nationkey FROM c0";
    let got = fe.query(table).expect("scan of table c0");
    let fresh = run_sql(
        &Session::new(cfg(), LocalExecutor::new()),
        &catalog(),
        table,
    )
    .expect("fresh session");
    assert_eq!(fresh.num_rows(), 2);
    assert_eq!(
        got, fresh,
        "the second text must not reuse the first's plan"
    );
    let stats = fe.cache_stats();
    assert_eq!((stats.text_hits, stats.misses), (0, 2));
}

/// The binder names a join's columns as the kernel does: a non-key name
/// both sides carry is reachable only as `v_x` / `v_y`, and a column the
/// join passes through under its own name keeps its table qualifier.
#[test]
fn a_join_binds_the_kernels_output_names() {
    let mut catalog = Catalog::new();
    let t = DataFrame::new(vec![
        ("k", Column::from_i64(vec![1, 2, 3])),
        ("v", Column::from_i64(vec![10, 20, 30])),
        ("a", Column::from_i64(vec![100, 200, 300])),
    ])
    .expect("t frame");
    let u = DataFrame::new(vec![
        ("k", Column::from_i64(vec![2, 3, 4])),
        ("v", Column::from_i64(vec![7, 8, 9])),
        ("b", Column::from_i64(vec![70, 80, 90])),
    ])
    .expect("u frame");
    catalog
        .add("t", DfSource::materialized(t))
        .expect("register t");
    catalog
        .add("u", DfSource::materialized(u))
        .expect("register u");
    let got = run_sql(
        &Session::new(cfg(), LocalExecutor::new()),
        &catalog,
        "SELECT t.a AS a, v_x, v_y, u.b AS b FROM t INNER JOIN u ON t.k = u.k ORDER BY a",
    )
    .expect("join with a shared non-key name");
    let want = DataFrame::new(vec![
        ("a", Column::from_i64(vec![200, 300])),
        ("v_x", Column::from_i64(vec![20, 30])),
        ("v_y", Column::from_i64(vec![7, 8])),
        ("b", Column::from_i64(vec![70, 80])),
    ])
    .expect("want frame");
    assert_eq!(got, want);
}
