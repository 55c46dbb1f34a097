//! `--selfcheck` and `--quick`: run every workload in a child process of
//! its own and judge what the children print.

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What `BENCHMARK.json` says about the metrics.
struct Spec {
    /// name -> (unit, bound)
    end_to_end: BTreeMap<String, (String, f64)>,
    /// name -> unit
    per_layer: BTreeMap<String, String>,
    workloads: Vec<String>,
}

fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
    let mut spec = Spec {
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
        workloads: Vec::new(),
    };
    for m in v.get("end_to_end").map_or(&[][..], Json::as_arr) {
        let (Some(name), Some(unit), Some(bound)) = (
            field(m, "name"),
            field(m, "unit"),
            m.get("bound").and_then(Json::as_f64),
        ) else {
            return Err("BENCHMARK.json: malformed end_to_end entry".into());
        };
        spec.end_to_end.insert(name, (unit, bound));
    }
    for m in v.get("per_layer").map_or(&[][..], Json::as_arr) {
        let (Some(name), Some(unit)) = (field(m, "name"), field(m, "unit")) else {
            return Err("BENCHMARK.json: malformed per_layer entry".into());
        };
        spec.per_layer.insert(name, unit);
    }
    for w in v.get("workloads").map_or(&[][..], Json::as_arr) {
        spec.workloads.extend(field(w, "name"));
    }
    Ok(spec)
}

/// One child's result line.
struct ChildRun {
    correct: bool,
    failed: u64,
    /// name -> (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

impl ChildRun {
    fn value(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.0)
    }
}

/// Runs this executable again with `args`, waits for it, and parses the
/// last line it printed.
fn run_child(args: &[String]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let v = Json::parse(last).map_err(|e| {
        format!(
            "child {args:?} exited with {} and no result line ({e})",
            out.status
        )
    })?;
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(m)) = v.get("metrics") {
        for (name, entry) in m {
            let value = entry.get("value").and_then(Json::as_f64);
            let unit = entry.get("unit").and_then(Json::as_str);
            if let (Some(value), Some(unit)) = (value, unit) {
                metrics.insert(name.clone(), (value, unit.to_string()));
            }
        }
    }
    Ok(ChildRun {
        correct: v.get("correct") == Some(&Json::Bool(true)),
        failed: v.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// The static metric tables and `BENCHMARK.json` must name the same
/// metrics with the same units, and only workloads that exist.
fn spec_mismatches(spec: &Spec) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, unit) in END_TO_END {
        match spec.end_to_end.get(*name) {
            Some((u, _)) if u == unit => {}
            _ => bad.push(format!(
                "end_to_end {name} [{unit}] not in BENCHMARK.json with that unit"
            )),
        }
    }
    for (name, unit) in PER_LAYER {
        if spec.per_layer.get(*name).map(String::as_str) != Some(*unit) {
            bad.push(format!(
                "per_layer {name} [{unit}] not in BENCHMARK.json with that unit"
            ));
        }
    }
    for name in spec.end_to_end.keys().chain(spec.per_layer.keys()) {
        if !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name) {
            bad.push(format!(
                "BENCHMARK.json names {name}, which is never printed"
            ));
        }
    }
    // the driver may gate on fewer workloads than the benchmark has
    for listed in &spec.workloads {
        if !WORKLOADS.iter().any(|w| w.0 == listed) {
            bad.push(format!(
                "BENCHMARK.json lists workload {listed}, which does not exist"
            ));
        }
    }
    bad
}

/// Every metric `BENCHMARK.json` names must be in the child's output with
/// its unit.
fn missing_metrics(spec: &Spec, workload: &str, run: &ChildRun) -> Vec<String> {
    spec.end_to_end
        .iter()
        .map(|(n, (u, _))| (n, u))
        .chain(spec.per_layer.iter())
        .filter(|(name, unit)| run.metrics.get(*name).map(|m| &m.1) != Some(unit))
        .map(|(name, unit)| format!("{workload}: {name} [{unit}] not printed"))
        .collect()
}

/// The checks that show the workloads stress different layers. The time
/// shares only separate at full size: at `--quick`'s SF 1 planning
/// dominates every workload, so there they are printed, not judged.
fn layer_separation(runs: &BTreeMap<&str, ChildRun>, full_size: bool) -> Vec<String> {
    let v = |w: &str, m: &str| runs.get(w).map_or(f64::NAN, |r| r.value(m));
    let mut checks = vec![
        (
            "storage.spilled_mb is 0 on tpch_local",
            v("tpch_local", "storage.spilled_mb") == 0.0,
        ),
        (
            "storage.spilled_mb is > 0 on tpch_spill",
            v("tpch_spill", "storage.spilled_mb") > 0.0,
        ),
        (
            "serving.hit_rate is within 0.4-0.8",
            (0.4..=0.8).contains(&v("serving", "serving.hit_rate")),
        ),
        (
            "session.overhead_share on session_aged exceeds tpch_local's",
            v("session_aged", "session.overhead_share") > v("tpch_local", "session.overhead_share"),
        ),
    ];
    if full_size {
        checks.extend([
            (
                "session.overhead_share is < 0.2 on tpch_local",
                v("tpch_local", "session.overhead_share") < 0.2,
            ),
            (
                "session.overhead_share is > 0.5 on session_aged",
                v("session_aged", "session.overhead_share") > 0.5,
            ),
            (
                "runtime.overhead_ms is at least a quarter of runtime.execute_ms on tpch_cluster",
                v("tpch_cluster", "runtime.overhead_ms")
                    >= 0.25 * v("tpch_cluster", "runtime.execute_ms"),
            ),
        ]);
    }
    let mut bad = Vec::new();
    for (what, holds) in checks {
        println!("  [{}] {what}", if holds { "ok" } else { "FAIL" });
        if !holds {
            bad.push(format!("layer separation: {what}"));
        }
    }
    bad
}

fn child_args(workload: &str, seed: u64, extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = ["--workload", workload, "--seed", &seed.to_string()]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend(["--trace", "1", "--json-all"].iter().map(|s| s.to_string()));
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

fn report(problems: &[String], what: &str) -> i32 {
    if problems.is_empty() {
        println!("{what}: ok");
        0
    } else {
        for p in problems {
            println!("{what}: {p}");
        }
        1
    }
}

/// `--quick`: all six workloads at SF 1 with two passes; every metric of
/// `BENCHMARK.json` must be printed with its unit and the size-independent
/// layer-separation checks must hold.
pub fn quick(seed: u64) -> i32 {
    let started = Instant::now();
    let spec = match load_spec() {
        Ok(s) => s,
        Err(e) => return report(&[e], "quick"),
    };
    let mut problems = spec_mismatches(&spec);
    let mut runs = BTreeMap::new();
    for (workload, _, _) in WORKLOADS {
        let t = Instant::now();
        match run_child(&child_args(workload, seed, &["--sf", "1", "--passes", "2"])) {
            Ok(run) => {
                println!(
                    "  {workload:<14} {:>6.2} s  correct={} failed={}",
                    t.elapsed().as_secs_f64(),
                    run.correct,
                    run.failed
                );
                if !run.correct {
                    problems.push(format!("{workload}: {} ops failed", run.failed));
                }
                problems.extend(missing_metrics(&spec, workload, &run));
                runs.insert(workload, run);
            }
            Err(e) => problems.push(e),
        }
    }
    problems.extend(layer_separation(&runs, false));
    println!("quick: {:.1} s in total", started.elapsed().as_secs_f64());
    report(&problems, "quick")
}

/// `--selfcheck`: every workload twice back to back at full size; prints
/// per metric both values, the relative gap and the bound. Fails when an
/// end-to-end gap exceeds its bound, a count differs, an op failed, or a
/// layer-separation check does not hold.
pub fn selfcheck(seed: u64, seconds: f64) -> i32 {
    let spec = match load_spec() {
        Ok(s) => s,
        Err(e) => return report(&[e], "selfcheck"),
    };
    let mut problems = spec_mismatches(&spec);
    let mut first_runs = BTreeMap::new();
    let secs = seconds.to_string();
    for (workload, _, _) in WORKLOADS {
        let args = child_args(workload, seed, &["--seconds", &secs]);
        let (a, b) = match (run_child(&args), run_child(&args)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                problems.push(e);
                continue;
            }
        };
        println!("\n== {workload} (A/A, seed {seed}, {seconds} s) ==");
        println!(
            "  {:<32} {:>14} {:>14} {:>8} {:>6}",
            "metric", "first", "second", "gap", "bound"
        );
        for run in [&a, &b] {
            if !run.correct {
                problems.push(format!("{workload}: {} ops failed", run.failed));
            }
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            let (x, y) = (a.value(name), b.value(name));
            let gap = if x == y {
                0.0
            } else {
                (y - x) / x.abs().max(1e-12)
            };
            let unit = a.metrics.get(*name).map_or("", |m| m.1.as_str());
            let bound = spec.end_to_end.get(*name).map(|e| e.1);
            let verdict = match bound {
                Some(b) if gap.abs() > b => "EXCEEDS",
                _ if unit == "count" && x != y => "DIFFERS",
                _ => "",
            };
            println!(
                "  {name:<32} {x:>14.4} {y:>14.4} {:>7.2}% {:>6} {verdict}",
                gap * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            );
            if !verdict.is_empty() {
                problems.push(format!(
                    "{workload}: {name} {verdict} ({x} vs {y}, gap {:.2}%)",
                    gap * 100.0
                ));
            }
        }
        problems.extend(missing_metrics(&spec, workload, &a));
        first_runs.insert(workload, a);
    }
    println!();
    problems.extend(layer_separation(&first_runs, true));
    report(&problems, "selfcheck")
}
