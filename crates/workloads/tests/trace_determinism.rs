//! CI gate for the tracing subsystem: trace logs from seeded fault runs
//! must be **byte-identical** across replays, and the Chrome trace-event
//! export must be well-formed JSON carrying the per-stage spans the
//! exporter promises (tile/optimize/execute plus spill/recovery when the
//! run spills or recovers).
//!
//! Determinism holds only for the *virtual-clock* content: host-measured
//! timestamps and durations differ between runs, so the comparison uses
//! [`TraceLog::deterministic_lines`], which excludes them. The fault run
//! uses a roomy memory budget so the (measured-time-dependent) spill
//! victim selection never engages.

use xorbits_baselines::EngineKind;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::session::Session;
use xorbits_core::trace::{self, TraceLog};
use xorbits_runtime::{ClusterSpec, FaultKind, FaultPlan, FaultTrigger, RetryPolicy, SimExecutor};
use xorbits_workloads::tpch::{run_query_on, TpchData};

const WORKERS: usize = 4;

fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: WORKERS * 2,
        ..Default::default()
    }
}

/// One seeded schedule exercising every recovery path: a worker crash
/// (lineage recomputation), a chunk-loss burst and a transient-failure
/// storm (retries).
fn faulty_cluster(mem: usize) -> ClusterSpec {
    ClusterSpec::new(WORKERS, mem)
        .with_fault_plan(
            FaultPlan::none(0xDE7E)
                .with_event(FaultTrigger::Step(4), FaultKind::WorkerCrash { worker: 0 })
                .with_event(
                    FaultTrigger::Step(9),
                    FaultKind::ChunkLoss { fraction: 0.3 },
                )
                .with_transient_failures(0.1),
        )
        .with_retry(RetryPolicy {
            max_retries: 8,
            ..Default::default()
        })
}

/// Runs TPC-H `q` on the simulator with tracing enabled and returns the
/// drained trace log plus the result's row count.
fn traced_run(spec: ClusterSpec, data: &TpchData, q: u32) -> (TraceLog, usize) {
    let _ = trace::disable();
    trace::enable(1 << 20);
    let s = Session::new(cfg(), SimExecutor::new(spec));
    let out = run_query_on(&s, &EngineKind::Xorbits.profile().caps, "xorbits", data, q)
        .unwrap_or_else(|e| panic!("traced run failed on Q{q}: {e}"));
    let log = trace::disable().expect("recorder was enabled");
    (log, out.num_rows())
}

#[test]
fn same_seed_fault_runs_emit_identical_trace_logs() {
    let data = TpchData::new(0.3).expect("tpch data");
    // roomy budget: no spilling, so nothing measured-time-dependent leaks
    // into the event stream
    let (log_a, rows_a) = traced_run(faulty_cluster(256 << 20), &data, 3);
    let (log_b, rows_b) = traced_run(faulty_cluster(256 << 20), &data, 3);
    assert_eq!(rows_a, rows_b, "same-seed runs must agree on the result");
    assert_eq!(log_a.dropped, 0, "capacity must hold the whole run");

    let lines_a = log_a.deterministic_lines();
    let lines_b = log_b.deterministic_lines();
    assert!(!lines_a.is_empty(), "a traced fault run must record events");
    assert_eq!(
        lines_a, lines_b,
        "same-seed fault runs must replay to byte-identical trace logs"
    );

    // the schedule must actually have exercised the paths we claim to trace
    for needle in ["fault", "recovery", "retry", "execute", "tile"] {
        assert!(
            lines_a.lines().any(|l| l.split(' ').nth(1) == Some(needle)),
            "expected at least one `{needle}` event, lines:\n{}",
            lines_a.lines().take(40).collect::<Vec<_>>().join("\n")
        );
    }

    // the metrics registry must replay too (BTreeMap render is ordered)
    assert_eq!(
        format!("{:?}", log_a.metrics.counters),
        format!("{:?}", log_b.metrics.counters),
        "counter registry must be deterministic"
    );
}

#[test]
fn chrome_trace_export_is_valid_json_with_stage_spans() {
    let data = TpchData::new(0.3).expect("tpch data");
    // tight budget: force the spill path so Spill/ReadBack events appear.
    // Q9's joins keep their outputs resident: it spills from 28 to 40 KiB
    // here. Q1 publishes only its group-by partials, and its fused
    // scan -> filter -> assign -> map subtask alone needs 61.7 KB, so no
    // budget makes Q1 spill without an OOM (DESIGN.md, dynamic tiling).
    let (log, _) = traced_run(faulty_cluster(32 << 10), &data, 9);
    let json = log.chrome_json();
    let value = json::parse(&json).unwrap_or_else(|e| panic!("invalid trace JSON: {e}"));

    let json::Value::Object(top) = value else {
        panic!("top level must be an object")
    };
    let events = top
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents key");
    let json::Value::Array(events) = events else {
        panic!("traceEvents must be an array")
    };

    let mut cats = std::collections::BTreeSet::new();
    let mut pids = std::collections::BTreeSet::new();
    for ev in events {
        let json::Value::Object(fields) = ev else {
            panic!("every trace event must be an object")
        };
        let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(json::Value::String(ph)) = get("ph") else {
            panic!("event missing ph")
        };
        assert!(
            ["X", "i", "C", "M"].contains(&ph.as_str()),
            "unexpected phase {ph}"
        );
        if let Some(json::Value::String(cat)) = get("cat") {
            cats.insert(cat.clone());
        }
        if let Some(json::Value::Number(pid)) = get("pid") {
            pids.insert(*pid as i64);
        }
        if ph == "X" {
            assert!(
                matches!(get("dur"), Some(json::Value::Number(d)) if *d >= 0.0),
                "complete events need a non-negative dur"
            );
        }
    }
    for cat in ["tile", "optimize", "execute", "spill", "recovery"] {
        assert!(cats.contains(cat), "missing `{cat}` spans; got {cats:?}");
    }
    assert!(
        pids.contains(&0) && pids.contains(&1),
        "expected driver (pid 0) and virtual-cluster (pid 1) tracks: {pids:?}"
    );
}

#[test]
fn disabled_tracing_records_nothing_during_a_run() {
    let _ = trace::disable();
    let data = TpchData::new(0.1).expect("tpch data");
    let s = Session::new(
        cfg(),
        SimExecutor::new(ClusterSpec::new(WORKERS, 256 << 20)),
    );
    run_query_on(&s, &EngineKind::Xorbits.profile().caps, "xorbits", &data, 6)
        .expect("untraced run");
    assert!(!trace::is_enabled());
    assert!(trace::disable().is_none(), "no recorder should exist");
}

/// A minimal recursive-descent JSON parser — the workspace is
/// intentionally dependency-free, so the exporter's output is validated
/// by hand.
mod json {
    #[derive(Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Number(f64),
        String(String),
        Array(Vec<Value>),
        Object(Vec<(String, Value)>),
    }

    pub fn parse(src: &str) -> Result<Value, String> {
        let bytes = src.as_bytes();
        let mut pos = 0;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
        if b.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                ch as char,
                *pos,
                b.get(*pos).map(|&c| c as char)
            ))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::String(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            other => Err(format!("unexpected {other:?} at byte {pos}", pos = *pos)),
        }
    }

    fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", *pos))
        }
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Number)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(&c) => {
                    let ch_len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let s =
                        std::str::from_utf8(&b[*pos..*pos + ch_len]).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    *pos += ch_len;
                }
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                other => return Err(format!("expected , or ] (found {other:?})")),
            }
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(b, pos);
            let key = string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            fields.push((key, value(b, pos)?));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => return Err(format!("expected , or }} (found {other:?})")),
            }
        }
    }
}
