//! SQL-frontend benchmark: what the plan cache buys.
//!
//! All 22 TPC-H queries are submitted from SQL text twice through one
//! [`SqlFrontend`]: cold (parse + lower + execute) and warm (a whitespace
//! variant that hits the normalized-text key, so only execution remains).
//! The bench reports cold and warm query time and the hit/miss counters,
//! and asserts the cold results are bit-identical to the hand-built
//! programs (the same gate `tests/sql_tpch.rs` enforces).
//!
//! Run with: `cargo run --release -p xorbits-bench --example bench_sql`

use std::time::Instant;
use xorbits_baselines::EngineKind;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::local::LocalExecutor;
use xorbits_core::session::Session;
use xorbits_core::sql::SqlFrontend;
use xorbits_workloads::tpch::{run_query_on, sql_text, tpch_catalog, TpchData};

/// Doubles every space outside string literals: a pure whitespace
/// variant (spaces inside '...' are data, not formatting).
fn whitespace_variant(text: &str) -> String {
    let mut out = String::new();
    let mut in_str = false;
    for ch in text.chars() {
        if ch == '\'' {
            in_str = !in_str;
        }
        if ch == ' ' && !in_str {
            out.push_str("  ");
        } else {
            out.push(ch);
        }
    }
    out
}

fn main() {
    xorbits_bench::trace_init_from_env();
    let data = TpchData::new(1.0).expect("tpch data");
    let catalog = tpch_catalog(&data).expect("catalog");
    let session = Session::new(XorbitsConfig::default(), LocalExecutor::new());
    let fe = SqlFrontend::new(session, catalog);

    let mut cold_s = 0.0;
    let mut warm_s = 0.0;
    let mut rows: Vec<(u32, f64, f64)> = Vec::new();
    for q in 1..=22u32 {
        let text = sql_text(q).expect("sql text");

        let t = Instant::now();
        let cold = fe.query(text).expect("cold run");
        let cold_t = t.elapsed().as_secs_f64();

        let oracle_s = Session::new(XorbitsConfig::default(), LocalExecutor::new());
        let expect = run_query_on(
            &oracle_s,
            &EngineKind::Xorbits.profile().caps,
            "xorbits-bench-oracle",
            &data,
            q,
        )
        .expect("hand-built oracle");
        assert_eq!(cold, expect, "SQL Q{q} must match the hand-built program");

        // Whitespace variant: hits the normalized-text key, skipping
        // parse + lower; only execution remains.
        let variant = whitespace_variant(text);
        let t = Instant::now();
        let warm = fe.query(&variant).expect("warm run");
        let warm_t = t.elapsed().as_secs_f64();
        assert_eq!(warm, cold, "cached plan must reproduce the result");

        cold_s += cold_t;
        warm_s += warm_t;
        rows.push((q, cold_t, warm_t));
    }

    let stats = fe.cache_stats();
    assert_eq!(stats.misses, 22, "each query lowers exactly once");
    assert_eq!(stats.text_hits, 22, "each variant hits the text level");

    let mut json = String::from("{\n  \"queries\": [\n");
    for (i, (q, c, w)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"q\": {q}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}}}{}\n",
            c * 1e3,
            w * 1e3,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"cold_total_ms\": {:.3},\n  \"warm_total_ms\": {:.3},\n  \"text_hits\": {},\n  \"misses\": {}\n}}\n",
        cold_s * 1e3,
        warm_s * 1e3,
        stats.text_hits,
        stats.misses
    ));
    std::fs::write("BENCH_sql.json", &json).unwrap();
    print!("{json}");
    println!(
        "22 TPC-H from SQL: cold {:.1} ms, warm {:.1} ms (a plan-cache hit skips parse+lower)",
        cold_s * 1e3,
        warm_s * 1e3
    );
    xorbits_bench::trace_dump_from_env();
}
