//! Shared helpers for the benchmark targets: paper-style table printing
//! and the environment knobs of the `bench_*` targets. No other library
//! crate of the workspace reads the environment: they take every knob by
//! constructor.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation; see DESIGN.md §3 for the full index. Bench output pairs the
//! paper's reported values with the measured ones so EXPERIMENTS.md can be
//! filled mechanically.

#![warn(missing_docs)]

use xorbits_runtime::ClusterSpec;
use xorbits_storage::EncodingMode;

/// A knob's value from its raw text: `Ok(None)` when unset, `parse`'s
/// value when set, and a message naming the variable, the value and the
/// expected `form` when `parse` rejects it.
fn parse_knob<T>(
    name: &str,
    raw: Option<&str>,
    form: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(raw) = raw else { return Ok(None) };
    parse(raw)
        .map(Some)
        .ok_or_else(|| format!("{name}={raw:?} does not parse: expected {form}"))
}

/// The value of env var `name`, `None` when it is unset. A value that is
/// set and does not parse ends the process (exit code 2): a mistyped scale
/// must not silently run the full-size suite.
fn env_knob<T>(name: &str, form: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(name, raw.as_deref(), form, parse).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// The expected form of a [`FromStr`](std::str::FromStr) knob: its type
/// without the module path (`f64`, `NonZero<usize>`).
fn type_form<T>() -> String {
    let form = std::any::type_name::<T>();
    let form = form.rsplit_once("::").map_or(form, |(_, short)| short);
    format!("a value of type {form}")
}

/// [`env_knob`] for any [`FromStr`](std::str::FromStr) type.
fn env_parse<T: std::str::FromStr>(name: &str) -> Option<T> {
    env_knob(name, &type_form::<T>(), |s| s.parse().ok())
}

/// Reads an `f64` env override (e.g. `XORBITS_BENCH_SCALE`).
pub fn env_f64(name: &str, default: f64) -> f64 {
    env_parse(name).unwrap_or(default)
}

/// Global scale multiplier for bench datasets (default 1.0; lower it for
/// quick smoke runs: `XORBITS_BENCH_SCALE=0.1 cargo bench`).
pub fn bench_scale() -> f64 {
    env_f64("XORBITS_BENCH_SCALE", 1.0)
}

/// The paper's "SF" labels mapped to generator scale factors, multiplied
/// by the bench scale.
pub fn sf(label: u32) -> f64 {
    label as f64 * bench_scale()
}

/// The paper's TPC-H cluster: 16 workers. The per-worker memory budget is
/// fixed (machines don't grow with data): calibrated so one node fits
/// "SF10", struggles at "SF100" and cannot hold "SF1000" — the same
/// head-room ratios as the paper's 256 GB nodes.
pub fn paper_cluster(workers: usize) -> ClusterSpec {
    cluster(workers, (36. * bench_scale() * (1 << 20) as f64) as usize)
}

/// `ClusterSpec::new` with the `XORBITS_ENCODING` knob applied
/// ([`encoding_from_env`]): the bench targets build their clusters here
/// so every one of them honours the knob.
pub fn cluster(workers: usize, worker_bytes: usize) -> ClusterSpec {
    ClusterSpec::new(workers, worker_bytes).with_encoding(encoding_from_env())
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

/// Formats a makespan or NaN as a failure marker.
pub fn fmt_time(t: f64) -> String {
    if t.is_nan() {
        "fail".to_string()
    } else {
        format!("{t:.4}s")
    }
}

/// Formats a relative value ×.
pub fn fmt_rel(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    } else {
        format!("{v:.2}x")
    }
}

/// Enables structured tracing when `XORBITS_TRACE_OUT` is set to a target
/// path. Call at the top of a bench `main`; pair with [`trace_dump_from_env`]
/// at the end. A no-op (zero overhead beyond one env lookup) when the
/// variable is unset.
pub fn trace_init_from_env() {
    if std::env::var_os("XORBITS_TRACE_OUT").is_some() {
        xorbits_core::trace::enable_default();
    }
}

/// Tenant count from the `XORBITS_TENANTS` env knob, else `default`, so a
/// serving-bench fleet-size sweep needs no rebuild.
pub fn tenants_from_env(default: usize) -> usize {
    env_parse::<std::num::NonZeroUsize>("XORBITS_TENANTS").map_or(default, |n| n.get())
}

/// Result-cache budget in bytes from the `XORBITS_CACHE_BYTES` env knob,
/// else `default`. `0` disables the cache entirely.
pub fn cache_bytes_from_env(default: usize) -> usize {
    env_parse("XORBITS_CACHE_BYTES").unwrap_or(default)
}

/// Chunk-transport encoding from the `XORBITS_ENCODING` knob: `plain` or
/// `auto` (the default when unset). A bench applies it to the
/// `ClusterSpec` / `StorageConfig` it builds, so v1-vs-v2 A/B runs need
/// no rebuild.
pub fn encoding_from_env() -> EncodingMode {
    env_knob("XORBITS_ENCODING", "`plain` or `auto`", parse_encoding).unwrap_or(EncodingMode::Auto)
}

fn parse_encoding(raw: &str) -> Option<EncodingMode> {
    match raw {
        "plain" => Some(EncodingMode::Plain),
        "auto" => Some(EncodingMode::Auto),
        _ => None,
    }
}

/// Host worker threads from the `XORBITS_THREADS` knob (a positive
/// integer), else the host's available parallelism.
pub fn threads_from_env() -> usize {
    env_parse::<std::num::NonZeroUsize>("XORBITS_THREADS").map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |n| n.get(),
    )
}

/// If `XORBITS_TRACE_OUT` is set, drains the trace recorder, writes the
/// Chrome trace-event JSON to that path (load it in `chrome://tracing` or
/// Perfetto) and prints the per-stage breakdown and per-band utilization.
pub fn trace_dump_from_env() {
    let Some(path) = std::env::var_os("XORBITS_TRACE_OUT") else {
        return;
    };
    let Some(log) = xorbits_core::trace::disable() else {
        return;
    };
    print!(
        "{}",
        xorbits_core::explain::explain_stage_breakdown(&log.metrics)
    );
    print!("{}", xorbits_core::explain::explain_utilization(&log));
    match std::fs::write(&path, log.chrome_json()) {
        Ok(()) => println!(
            "trace: {} events ({} dropped) -> {}",
            log.events.len(),
            log.dropped,
            path.to_string_lossy()
        ),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.to_string_lossy()),
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_encoding, parse_knob, type_form, EncodingMode};

    /// What [`super::env_parse`] does with the raw text, minus the exit.
    fn typed<T: std::str::FromStr>(name: &str, raw: Option<&str>) -> Result<Option<T>, String> {
        parse_knob(name, raw, &type_form::<T>(), |s| s.parse().ok())
    }

    #[test]
    fn a_knob_is_unset_valid_or_an_error_naming_it() {
        assert_eq!(typed::<f64>("XORBITS_BENCH_SCALE", None), Ok(None));
        assert_eq!(
            typed::<f64>("XORBITS_BENCH_SCALE", Some("0.1")),
            Ok(Some(0.1))
        );
        assert_eq!(
            typed::<usize>("XORBITS_CACHE_BYTES", Some("0")),
            Ok(Some(0))
        );
        for raw in ["0,1", ""] {
            let msg = typed::<f64>("XORBITS_BENCH_SCALE", Some(raw)).unwrap_err();
            assert!(
                msg.contains("XORBITS_BENCH_SCALE") && msg.contains("f64"),
                "{msg}"
            );
            assert!(msg.contains(&format!("{raw:?}")), "{msg}");
        }
        let msg = typed::<usize>("XORBITS_CACHE_BYTES", Some("512M")).unwrap_err();
        assert!(msg.contains("XORBITS_CACHE_BYTES=\"512M\""), "{msg}");
        assert!(msg.contains("a value of type usize"), "{msg}");
        for raw in ["four", "0", "-1"] {
            let msg = typed::<std::num::NonZeroUsize>("XORBITS_THREADS", Some(raw)).unwrap_err();
            assert!(
                msg.contains("XORBITS_THREADS") && msg.contains("NonZero<usize>"),
                "{msg}"
            );
        }
    }

    #[test]
    fn encoding_accepts_plain_and_auto_only() {
        let enc = |raw| {
            parse_knob(
                "XORBITS_ENCODING",
                Some(raw),
                "`plain` or `auto`",
                parse_encoding,
            )
        };
        assert_eq!(enc("plain"), Ok(Some(EncodingMode::Plain)));
        assert_eq!(enc("auto"), Ok(Some(EncodingMode::Auto)));
        for raw in ["zstd", "PLAIN", ""] {
            let msg = enc(raw).unwrap_err();
            assert!(
                msg.contains(&format!("XORBITS_ENCODING={raw:?}"))
                    && msg.contains("`plain` or `auto`"),
                "{msg}"
            );
        }
    }
}
