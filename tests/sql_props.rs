//! Parser property suite.
//!
//! Two families of properties over the SQL frontend, exercised on all 22
//! TPC-H texts plus crafted samples covering the rest of the grammar:
//!
//! 1. **Malformed input** — bad SQL is rejected with a positioned
//!    [`SqlError`] whose line/column agree with its byte offset; deep
//!    nesting hits the recursion limit instead of the stack; truncating a
//!    valid query at any byte never panics.
//! 2. **Normalization** — the plan-cache key ignores whitespace and
//!    identifier/keyword case but preserves string-literal case and
//!    unifies operator spellings (`!=` vs `<>`).

use xorbits::core::sql::{line_col, normalize, parse};
use xorbits::workloads::tpch::sql_text;

/// Every TPC-H text plus crafted samples covering grammar corners the
/// benchmark queries miss.
fn corpus() -> Vec<String> {
    let mut texts: Vec<String> = (1..=22)
        .map(|q| sql_text(q).expect("tpch sql text").to_string())
        .collect();
    for s in [
        "SELECT a, b AS two FROM t",
        "SELECT * FROM t WHERE a IS NOT NULL AND NOT (b < 3 OR c IN (1, 2, 3))",
        "SELECT t.a FROM t LEFT JOIN u ON t.k = u.k WHERE u.v IS NULL",
        "SELECT a FROM t SEMI JOIN u ON t.k = u.k",
        "SELECT a FROM t ANTI JOIN u ON t.k = u.k",
        "SELECT x.a AS a, y.b AS b FROM (SELECT a, k FROM t WHERE a > 0) x \
         INNER JOIN u y ON x.k = y.k ORDER BY a DESC, b LIMIT 7",
        "WITH w AS (SELECT k, SUM(v) AS s FROM t GROUP BY k) \
         SELECT k FROM w WHERE s > (SELECT AVG(s) FROM w)",
        "SELECT k, COUNT(DISTINCT v) AS dv, AVG(v * 2.0 + 1.0) AS m \
         FROM t GROUP BY k HAVING COUNT(v) > 1 ORDER BY k",
        "SELECT a FROM t WHERE a BETWEEN 1 AND 10 AND b LIKE 'pre%'",
        "SELECT a FROM t WHERE s LIKE '%mid%' OR s LIKE '%suf'",
        "SELECT EXTRACT(YEAR FROM d) AS y, SUBSTR(s, 1, 3) AS p, ROUND(v, 2) AS r FROM t",
        "SELECT -a AS neg, a + b * c - d / 2.0 AS arith FROM t WHERE d >= DATE '1994-01-01'",
    ] {
        texts.push(s.to_string());
    }
    texts
}

#[test]
fn malformed_sql_is_rejected_with_consistent_position() {
    let bad = [
        "",
        "SELECT",
        "SELECT FROM t",
        "SELECT a FROM",
        "SELECT a FROM t WHERE",
        "SELECT a FROM t GROUP BY",
        "SELECT a, FROM t",
        "SELECT a FROM t ORDER LIMIT 3",
        "SELECT a FROM t WHERE a < ",
        "SELECT a FROM t JOIN u",
        "SELECT a FROM t JOIN u ON",
        "SELECT a FROM t LIMIT b",
        "SELECT COUNT(*) FROM t",
        "SELECT a FROM t WHERE a ==== b",
        "SELECT 'unterminated FROM t",
        "SELECT a\nFROM t\nWHERE 3 <",
        "FROM t SELECT a",
        "WITH SELECT a FROM t",
        "SELECT a FROM t; DROP TABLE t",
    ];
    for text in bad {
        let err = parse(text).expect_err(&format!("must reject: {text:?}"));
        assert!(!err.msg.is_empty(), "error must carry a message: {text:?}");
        assert!(
            err.offset <= text.len(),
            "offset must stay inside the text: {text:?}"
        );
        assert_eq!(
            (err.line, err.column),
            line_col(text, err.offset),
            "line/column must agree with the byte offset: {text:?}"
        );
        let shown = err.to_string();
        assert!(
            shown.starts_with(&format!(
                "SQL error at line {}, column {}:",
                err.line, err.column
            )),
            "display must lead with the position: {shown}"
        );
    }

    // A multi-line text failing on its last line reports that line.
    let multi = "SELECT a\nFROM t\nWHERE 3 <";
    let err = parse(multi).expect_err("incomplete comparison");
    assert_eq!(err.line, 3, "the error is on the third line");
}

#[test]
fn deep_nesting_hits_the_recursion_limit_not_the_stack() {
    let depth = 5_000;
    let mut text = String::from("SELECT ");
    text.push_str(&"(".repeat(depth));
    text.push('1');
    text.push_str(&")".repeat(depth));
    text.push_str(" AS one FROM t");
    let err = parse(&text).expect_err("over-deep nesting must be rejected");
    assert!(
        err.msg.contains("deep"),
        "the rejection names the depth limit: {}",
        err.msg
    );
}

#[test]
fn truncated_input_never_panics() {
    for text in corpus() {
        for cut in 0..=text.len() {
            // Every prefix must come back as Ok or a positioned error,
            // never a panic (all corpus texts are ASCII, so every byte
            // boundary is a char boundary).
            let _ = parse(&text[..cut]);
        }
    }
}

#[test]
fn normalization_ignores_whitespace_and_case_but_not_strings() {
    // Whitespace mangling outside string literals: same key for every
    // corpus text (spaces inside '...' are data and must stay put).
    fn mangle(text: &str) -> String {
        let mut out = String::new();
        let mut in_str = false;
        for ch in text.chars() {
            if ch == '\'' {
                in_str = !in_str;
            }
            if ch == ' ' && !in_str {
                out.push_str(" \n\t ");
            } else {
                out.push(ch);
            }
        }
        out
    }
    for text in corpus() {
        parse(&text).unwrap_or_else(|e| panic!("corpus text must parse: {e}\n{text}"));
        let mangled = mangle(&text);
        assert_eq!(
            normalize(&text).expect("normalize"),
            normalize(&mangled).expect("normalize mangled"),
            "whitespace must not affect the plan-cache key\n{text}"
        );
    }

    // Identifier/keyword case folds; operator spellings unify.
    let a = normalize("SELECT A , B FROM T WHERE A != B").expect("normalize");
    let b = normalize("select a,b from t where a <> b").expect("normalize");
    assert_eq!(a, b, "case and operator spelling must fold");

    // String literals keep their case — 'AbC' and 'abc' are different data.
    let upper = normalize("select s from t where s = 'AbC'").expect("normalize");
    let lower = normalize("select s from t where s = 'abc'").expect("normalize");
    assert_ne!(upper, lower, "string-literal case is significant");
}
