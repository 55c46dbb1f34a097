//! Run reports — what a run did, rendered from its statistics: re-tiling,
//! serving, the per-stage time breakdown and band utilization.

use crate::session::ExecStats;
use crate::trace::{MetricsSnapshot, TraceLog};

/// Summarises what mid-run skew-aware re-tiling did: hot shuffle
/// partitions split after harvesting lopsided histograms
/// (`ClusterSpec::with_retile(RetileMode::Auto)`).
pub fn explain_retile(stats: &ExecStats) -> String {
    if stats.retiled_partitions == 0 {
        return "Retile: none (balanced shuffles or static tiling)\n".to_string();
    }
    format!(
        "Retile: {} shuffle partitions split mid-run\n",
        stats.retiled_partitions
    )
}

/// Per-tenant slice of a serving run (filled by the serving runtime).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantServingStats {
    /// Tenant id.
    pub tenant: u32,
    /// Fair-share weight the scheduler gave this tenant.
    pub weight: u32,
    /// Queries the tenant completed.
    pub queries: usize,
    /// Queries answered from the result cache.
    pub cache_hits: usize,
    /// Mean virtual-time latency (submission → last chunk finished).
    pub mean_latency: f64,
    /// Median virtual-time latency.
    pub p50_latency: f64,
    /// 99th-percentile virtual-time latency.
    pub p99_latency: f64,
    /// Total virtual seconds the tenant's queries spent queued in
    /// admission control before execution began.
    pub admission_wait: f64,
    /// Contended mean latency over the tenant's solo-run mean latency
    /// (0 when no solo baseline was measured).
    pub slowdown: f64,
}

/// Aggregate statistics of one serving run — what
/// [`explain_serving`] renders and `BENCH_serving.json` reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingStats {
    /// Per-tenant breakdown, sorted by tenant id.
    pub tenants: Vec<TenantServingStats>,
    /// Result-cache hits across all tenants.
    pub cache_hits: usize,
    /// Result-cache misses (entries computed and offered for caching).
    pub cache_misses: usize,
    /// Entries dropped by cache-budget eviction.
    pub cache_evictions: usize,
    /// Entries dropped by lineage invalidation.
    pub cache_invalidations: usize,
    /// Queries that had to wait in the admission queue.
    pub admission_queued: usize,
    /// Total virtual seconds spent waiting in the admission queue.
    pub admission_wait: f64,
    /// Virtual makespan of the whole serving run.
    pub makespan: f64,
}

impl ServingStats {
    /// Cache hit rate over all lookups (0 when the cache saw no traffic).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Max/min tenant slowdown ratio — the fairness number the serving
    /// benchmark gates on (1.0 = perfectly even; 0 when unknown).
    pub fn slowdown_spread(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi: f64 = 0.0;
        for t in &self.tenants {
            if t.slowdown > 0.0 {
                lo = lo.min(t.slowdown);
                hi = hi.max(t.slowdown);
            }
        }
        if lo.is_finite() && lo > 0.0 {
            hi / lo
        } else {
            0.0
        }
    }
}

/// Renders a serving run: cache behaviour, admission pressure and the
/// per-tenant latency/fairness table.
pub fn explain_serving(stats: &ServingStats) -> String {
    let mut out = String::from("Serving\n");
    out.push_str(&format!(
        "  cache: {} hits / {} misses ({:.0}% hit rate), {} evicted, {} invalidated\n",
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate() * 100.0,
        stats.cache_evictions,
        stats.cache_invalidations,
    ));
    out.push_str(&format!(
        "  admission: {} queries queued, {:.3}s total virtual wait\n",
        stats.admission_queued, stats.admission_wait,
    ));
    out.push_str(&format!("  makespan: {:.3}s virtual\n", stats.makespan));
    for t in &stats.tenants {
        out.push_str(&format!(
            "  tenant {} (weight {}): {} queries, {} cache hits, \
             latency mean {:.3}s p50 {:.3}s p99 {:.3}s, wait {:.3}s",
            t.tenant,
            t.weight,
            t.queries,
            t.cache_hits,
            t.mean_latency,
            t.p50_latency,
            t.p99_latency,
            t.admission_wait,
        ));
        if t.slowdown > 0.0 {
            out.push_str(&format!(", slowdown {:.2}x", t.slowdown));
        }
        out.push('\n');
    }
    let spread = stats.slowdown_spread();
    if spread > 0.0 {
        out.push_str(&format!(
            "  fairness: max/min tenant slowdown {spread:.2}x\n"
        ));
    }
    out
}

/// Renders the per-stage time breakdown from a metrics-registry snapshot
/// (see [`crate::session::RunReport::metrics`]): host-clock driver stages
/// (`stage.*`) with their share of the total, virtual-clock simulator
/// stages (`vstage.*`), then every counter. Returns a short placeholder
/// when tracing was disabled for the run.
pub fn explain_stage_breakdown(metrics: &MetricsSnapshot) -> String {
    if metrics.is_empty() {
        return "Stage breakdown: unavailable (tracing disabled)\n".to_string();
    }
    let mut out = String::from("Stage breakdown (host clock)\n");
    let host: Vec<(&String, &f64)> = metrics
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("stage.") && k.ends_with(".seconds"))
        .collect();
    let total: f64 = host.iter().map(|(_, v)| **v).sum();
    for (k, v) in &host {
        let name = &k["stage.".len()..k.len() - ".seconds".len()];
        let pct = if total > 0.0 {
            **v / total * 100.0
        } else {
            0.0
        };
        out.push_str(&format!("  {name:<16} {v:>10.6}s  {pct:5.1}%\n"));
    }
    let virt: Vec<(&String, &f64)> = metrics
        .gauges
        .iter()
        .filter(|(k, _)| k.starts_with("vstage.") && k.ends_with(".seconds"))
        .collect();
    if !virt.is_empty() {
        out.push_str("Stage breakdown (virtual clock)\n");
        for (k, v) in &virt {
            let name = &k["vstage.".len()..k.len() - ".seconds".len()];
            out.push_str(&format!("  {name:<16} {v:>10.6}s\n"));
        }
    }
    if !metrics.counters.is_empty() {
        out.push_str("Counters\n");
        for (k, v) in &metrics.counters {
            out.push_str(&format!("  {k:<32} {v}\n"));
        }
    }
    out
}

/// Renders per-band utilization of the virtual cluster from a trace: busy
/// seconds (sum of span durations on each pid-1 track) over the latest
/// span end across the cluster.
pub fn explain_utilization(log: &TraceLog) -> String {
    let horizon = log.span_horizon(1);
    if horizon <= 0.0 {
        return "Utilization: no virtual-cluster spans recorded\n".to_string();
    }
    let mut out = format!("Per-band utilization over {horizon:.6}s virtual\n");
    for ((pid, tid), busy) in log.busy_seconds() {
        if pid != 1 {
            continue;
        }
        let name = log
            .track_names
            .get(&(pid, tid))
            .map(String::as_str)
            .unwrap_or("band");
        out.push_str(&format!(
            "  {name:<18} busy {busy:>10.6}s  ({:5.1}%)\n",
            busy / horizon * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retile_render() {
        let idle = ExecStats::default();
        assert!(explain_retile(&idle).contains("none"));
        let stats = ExecStats {
            retiled_partitions: 5,
            ..ExecStats::default()
        };
        let text = explain_retile(&stats);
        assert!(text.contains("5 shuffle partitions"), "{text}");
    }

    #[test]
    fn stage_breakdown_render() {
        let empty = MetricsSnapshot::default();
        assert!(explain_stage_breakdown(&empty).contains("tracing disabled"));
        let mut m = MetricsSnapshot::default();
        m.gauges.insert("stage.tile_step.seconds".into(), 0.75);
        m.gauges.insert("stage.execute.seconds".into(), 0.25);
        m.gauges.insert("vstage.execute.seconds".into(), 3.5);
        m.counters.insert("exec.retries".into(), 4);
        let text = explain_stage_breakdown(&m);
        assert!(text.contains("tile_step"), "{text}");
        assert!(text.contains("75.0%"), "{text}");
        assert!(text.contains("virtual clock"), "{text}");
        assert!(text.contains("exec.retries"), "{text}");
    }

    #[test]
    fn utilization_render() {
        use crate::trace::{self, Stage, Track};
        let _ = trace::disable();
        trace::enable(64);
        trace::name_track(Track::band(0), "worker 0 band 0");
        trace::span_at(Stage::Execute, "a", Track::band(0), 0.0, 1.0, &[]);
        trace::span_at(Stage::Execute, "b", Track::band(1), 0.0, 2.0, &[]);
        let log = trace::disable().unwrap();
        let text = explain_utilization(&log);
        assert!(text.contains("worker 0 band 0"), "{text}");
        assert!(text.contains("50.0%"), "{text}");
        assert!(text.contains("100.0%"), "{text}");
        assert!(explain_utilization(&TraceLog::default()).contains("no virtual-cluster spans"));
    }
}
