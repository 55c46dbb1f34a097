//! Metric names and units, the best-of-N estimators, and the result line.
//!
//! Names and units here must match `BENCHMARK.json`; `--quick` checks it.

use crate::json::quote;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("suite_ms", "ms"),
    ("query_ms_geomean", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.plan_hit_us", "us"),
    ("sql.plan_cache_text_hits", "count"),
    ("sql.plan_cache_misses", "count"),
    ("session.fetch_ms", "ms"),
    ("session.overhead_ms", "ms"),
    ("session.overhead_share", "ratio"),
    ("session.aged_over_fresh", "ratio"),
    ("optimizer.prune_ms", "ms"),
    ("optimizer.build_ms", "ms"),
    ("optimizer.ops_fused", "count"),
    ("tiling.tile_ms", "ms"),
    ("tiling.yields", "count"),
    ("tiling.probes", "count"),
    ("tiling.chunk_ops", "count"),
    ("exec.execute_ms", "ms"),
    ("exec.graphs", "count"),
    ("exec.subtasks", "count"),
    ("exec.gather_ms", "ms"),
    ("exec.parallel_speedup", "ratio"),
    ("exec.query_ms_max", "ms"),
    ("dataframe.filter_mrows_s", "Mrows/s"),
    ("dataframe.groupby_mrows_s", "Mrows/s"),
    ("dataframe.join_mrows_s", "Mrows/s"),
    ("dataframe.partition_mrows_s", "Mrows/s"),
    ("dataframe.sort_mrows_s", "Mrows/s"),
    ("storage.encode_mb_s_plain", "MB/s"),
    ("storage.encode_mb_s_auto", "MB/s"),
    ("storage.decode_mb_s_plain", "MB/s"),
    ("storage.decode_mb_s_auto", "MB/s"),
    ("storage.measure_mb_s_auto", "MB/s"),
    ("storage.wire_ratio", "ratio"),
    ("storage.spilled_mb", "MB"),
    ("storage.read_back_mb", "MB"),
    ("storage.evictions", "count"),
    ("storage.peak_resident_mb", "MB"),
    ("runtime.execute_ms", "ms"),
    ("runtime.kernel_ms", "ms"),
    ("runtime.overhead_ms", "ms"),
    ("runtime.subtasks", "count"),
    ("runtime.net_mb", "MB"),
    ("runtime.encoded_raw_mb", "MB"),
    ("runtime.encoded_wire_mb", "MB"),
    ("runtime.peak_worker_mb", "MB"),
    ("runtime.band_utilization", "ratio"),
    ("runtime.sim_makespan_s", "s"),
    ("serving.hit_rate", "ratio"),
    ("serving.cache_hits", "count"),
    ("serving.cache_misses", "count"),
    ("serving.cache_evictions", "count"),
    ("serving.admission_queued", "count"),
    ("serving.admission_wait_ms", "ms"),
    ("serving.hit_host_us", "us"),
    ("serving.miss_host_ms", "ms"),
    ("serving.vlat_ms_mean", "ms"),
    ("serving.vlat_ms_p95", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

pub const MB: f64 = (1 << 20) as f64;

/// Per-op minimum over the timed passes. Host noise on a shared box only
/// ever adds time, so the minimum is the estimator that repeats.
pub struct BestOf {
    pub mins: Vec<f64>,
}

impl BestOf {
    pub fn new(ops: usize) -> BestOf {
        BestOf {
            mins: vec![f64::INFINITY; ops],
        }
    }

    pub fn record(&mut self, op: usize, value: f64) {
        self.mins[op] = self.mins[op].min(value);
    }

    /// Ops that completed at least once.
    fn seen(&self) -> impl Iterator<Item = f64> + '_ {
        self.mins.iter().copied().filter(|v| v.is_finite())
    }

    pub fn sum(&self) -> f64 {
        self.seen().sum()
    }

    pub fn max(&self) -> f64 {
        self.seen().fold(0.0, f64::max)
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.seen().count().max(1) as f64
    }

    pub fn geomean(&self) -> f64 {
        let n = self.seen().count().max(1) as f64;
        (self.seen().map(|v| v.max(1e-12).ln()).sum::<f64>() / n).exp()
    }

    /// Nearest-rank percentile of the per-op minima.
    pub fn percentile(&self, p: f64) -> f64 {
        xorbits_serving::percentile(&self.seen().collect::<Vec<_>>(), p)
    }
}

/// Ops attempted and ops failed (error, or result differing from the
/// oracle). A failed op has no time: it never enters a [`BestOf`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn exit_code(&self) -> i32 {
        if self.failed == 0 && self.attempted > 0 {
            0
        } else {
            1
        }
    }
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of `tables` by name with its unit, one per line.
    pub fn print_table(&self, tables: &[&[(&'static str, &'static str)]]) {
        for (name, unit) in tables.iter().flat_map(|t| t.iter()) {
            println!("  {name:<32} {:>16.6} {unit}", self.get(name));
        }
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and the
    /// metrics of `tables` (a metric never set prints 0).
    pub fn result_line(&self, tables: &[&[(&'static str, &'static str)]]) -> String {
        let metrics: Vec<String> = tables
            .iter()
            .flat_map(|t| t.iter())
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    fmt_num(self.get(name)),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.exit_code() == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number with all its digits; JSON has no NaN or infinity.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory per timed pass. The process-wide high-water mark
/// is a maximum over the whole run, so with threads it grows with the
/// pass count and differs from run to run by 8–16 %; the median of the
/// per-pass peaks repeats. The kernel resets `VmHWM` when `5` is written
/// to `/proc/self/clear_refs`; where that is refused, the process-wide
/// mark is reported.
#[derive(Default)]
pub struct PeakRss {
    per_pass: Vec<f64>,
    reset: bool,
}

impl PeakRss {
    /// Call before a timed pass.
    pub fn begin_pass(&mut self) {
        self.reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    }

    /// Call after it.
    pub fn end_pass(&mut self) {
        if self.reset {
            self.per_pass.push(vm_hwm_mb());
        }
    }

    pub fn median_mb(&mut self) -> f64 {
        if self.per_pass.is_empty() {
            return vm_hwm_mb();
        }
        self.per_pass.sort_by(f64::total_cmp);
        self.per_pass[self.per_pass.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn best_of_keeps_the_minimum_and_skips_missing_ops() {
        let mut b = BestOf::new(3);
        b.record(0, 4.0);
        b.record(0, 2.0);
        b.record(1, 8.0);
        assert_eq!(b.sum(), 10.0);
        assert_eq!(b.max(), 8.0);
        assert!((b.geomean() - 4.0).abs() < 1e-12);
        assert_eq!(b.percentile(100.0), 8.0);
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut r = Report::default();
        r.tally.attempted = 5;
        r.set("suite_ms", 12.5);
        let v = Json::parse(&r.result_line(&[END_TO_END])).expect("valid json");
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(5.0));
        let m = v.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            assert_eq!(
                m.get(name)
                    .and_then(|x| x.get("unit"))
                    .and_then(Json::as_str),
                Some(*unit)
            );
        }
        assert_eq!(
            m.get("suite_ms")
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64),
            Some(12.5)
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
