//! Layer attribution from outside the crates: spans around each call into
//! a layer's public function, an executor wrapper that times the
//! `Executor` trait, readers for the `core::trace` gauges that already
//! exist, and micro-sections over kernel and codec entry points.

use crate::inputs::Inputs;
use crate::metrics::{Report, MB};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xorbits_core::chunk::{ChunkKey, ChunkMeta, Payload};
use xorbits_core::error::XbResult;
use xorbits_core::local::LocalExecutor;
use xorbits_core::parallel::ParallelExecutor;
use xorbits_core::session::{ExecStats, Executor};
use xorbits_core::subtask::SubtaskGraph;
use xorbits_core::tiling::MetaView;
use xorbits_core::trace::{MetricsSnapshot, TraceLog};
use xorbits_dataframe::{
    col, dates, eval, groupby, join, lit, partition, sort, AggFunc, AggSpec, JoinOptions, Scalar,
};
use xorbits_runtime::SimExecutor;
use xorbits_storage::{
    decode_chunk_with, ChunkValue, DecodeWorkspace, EncodeWorkspace, EncodingMode, StorageMetrics,
};

/// One timed interval at a layer boundary.
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub op: String,
}

struct Recorder {
    t0: Instant,
    op: String,
    spans: Vec<Span>,
    /// Open spans of the submitting thread, innermost last.
    stack: Vec<usize>,
}

/// The benchmark's own span log: kept in memory, written out at exit.
#[derive(Clone)]
pub struct Spans(Arc<Mutex<Recorder>>);

impl Spans {
    pub fn new() -> Spans {
        Spans(Arc::new(Mutex::new(Recorder {
            t0: Instant::now(),
            op: String::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorder> {
        self.0.lock().expect("span recorder poisoned")
    }

    /// Names the op that subsequent spans belong to.
    pub fn set_op(&self, op: &str) {
        self.lock().op = op.to_string();
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str) -> usize {
        let mut r = self.lock();
        let id = r.spans.len();
        let span = Span {
            id,
            parent: r.stack.last().copied(),
            name,
            start_us: r.t0.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
            op: r.op.clone(),
        };
        r.spans.push(span);
        r.stack.push(id);
        id
    }

    pub fn exit(&self, id: usize) {
        let mut r = self.lock();
        r.spans[id].end_us = r.t0.elapsed().as_secs_f64() * 1e6;
        r.stack.retain(|&open| open != id);
    }

    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records a finished span from another thread (the serving tenants),
    /// which has no place on the submitting thread's stack; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut r = self.lock();
        let id = r.spans.len();
        let (start_us, end_us) = (
            start.saturating_duration_since(r.t0).as_secs_f64() * 1e6,
            end.saturating_duration_since(r.t0).as_secs_f64() * 1e6,
        );
        r.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us,
            op: op.to_string(),
        });
        id
    }

    /// Per span name: `(count, total seconds, self seconds)`, self time
    /// being a span's duration minus what its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let r = self.lock();
        let mut child_us = vec![0.0; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in r.spans.iter().filter(|s| s.end_us.is_finite()) {
            let dur = s.end_us - s.start_us;
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur / 1e6;
            e.2 += (dur - child_us[s.id]).max(0.0) / 1e6;
        }
        out
    }

    /// The span log as JSON: `{id, parent, name, start, end, workload, op}`
    /// with times in microseconds since the recorder was created.
    pub fn to_json(&self, workload: &str) -> String {
        let r = self.lock();
        let rows: Vec<String> = r
            .spans
            .iter()
            .filter(|s| s.end_us.is_finite())
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start\": {:.3}, \"end\": {:.3}, \"workload\": {}, \"op\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    crate::json::quote(s.name),
                    s.start_us,
                    s.end_us,
                    crate::json::quote(workload),
                    crate::json::quote(&s.op),
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// An executor the benchmark can build fresh per op and ask for its
/// storage-tier counters.
pub trait BenchExecutor: Executor {
    fn storage(&self) -> Option<StorageMetrics> {
        None
    }
}

impl BenchExecutor for LocalExecutor {
    fn storage(&self) -> Option<StorageMetrics> {
        Some(self.storage_metrics())
    }
}

impl BenchExecutor for ParallelExecutor {
    fn storage(&self) -> Option<StorageMetrics> {
        Some(self.storage_metrics())
    }
}

impl BenchExecutor for SimExecutor {}

/// Delegates the `Executor` trait to `inner` and records a span per call,
/// so a fetch's self time is the session's own work: prune, tile, build,
/// gather and bookkeeping.
pub struct TimedExecutor<E> {
    inner: E,
    spans: Spans,
    /// Chunk-graph nodes over every executed graph.
    pub chunk_ops: u64,
}

impl<E> TimedExecutor<E> {
    pub fn new(inner: E, spans: Spans) -> TimedExecutor<E> {
        TimedExecutor {
            inner,
            spans,
            chunk_ops: 0,
        }
    }
}

impl<E: Executor> MetaView for TimedExecutor<E> {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.spans.scope("executor.meta", || self.inner.meta(key))
    }
}

impl<E: Executor> Executor for TimedExecutor<E> {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        self.chunk_ops += graph.chunks.nodes.len() as u64;
        let (spans, inner) = (&self.spans, &mut self.inner);
        spans.scope("executor.execute", || inner.execute(graph))
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.spans
            .scope("executor.payload", || self.inner.payload(key))
    }

    fn clear(&mut self) {
        let (spans, inner) = (&self.spans, &mut self.inner);
        spans.scope("executor.clear", || inner.clear())
    }

    fn release(&mut self, keys: &[ChunkKey]) {
        let (spans, inner) = (&self.spans, &mut self.inner);
        spans.scope("executor.release", || inner.release(keys))
    }
}

impl<E: BenchExecutor> BenchExecutor for TimedExecutor<E> {
    fn storage(&self) -> Option<StorageMetrics> {
        self.inner.storage()
    }
}

/// Runs `f` with the existing `core::trace` recorder on and returns what
/// it collected. The benchmark adds no span of its own to that recorder;
/// it only reads the `stage.*` gauges, counters and band spans.
pub fn with_core_trace<T>(f: impl FnOnce() -> T) -> (T, TraceLog) {
    xorbits_core::trace::enable(1 << 20);
    let out = f();
    let log = xorbits_core::trace::disable().unwrap_or_default();
    (out, log)
}

fn gauge_ms(m: &MetricsSnapshot, name: &str) -> f64 {
    m.gauges.get(name).copied().unwrap_or(0.0) * 1e3
}

fn counter(m: &MetricsSnapshot, name: &str) -> f64 {
    m.counters.get(name).copied().unwrap_or(0) as f64
}

/// Busy and available band-seconds of the virtual cluster in one log.
pub fn band_seconds(log: &TraceLog, bands: usize) -> (f64, f64) {
    let busy: f64 = log
        .busy_seconds()
        .iter()
        .filter(|((pid, _), _)| *pid == 1)
        .map(|(_, s)| s)
        .sum();
    (busy, log.span_horizon(1) * bands as f64)
}

/// Adds one op's (or one serving run's) `core::trace` readings.
pub fn add_core_trace(report: &mut Report, log: &TraceLog) {
    let m = &log.metrics;
    report.add(
        "optimizer.prune_ms",
        gauge_ms(m, "stage.prune_columns.seconds"),
    );
    report.add(
        "optimizer.build_ms",
        gauge_ms(m, "stage.build_subtasks.seconds"),
    );
    report.add("optimizer.ops_fused", counter(m, "optimize.ops_fused"));
    report.add("tiling.tile_ms", gauge_ms(m, "stage.tile_step.seconds"));
    report.add("tiling.yields", counter(m, "tiling.yields"));
    report.add("tiling.probes", counter(m, "tiling.probes"));
    report.add("exec.gather_ms", gauge_ms(m, "stage.gather.seconds"));
}

/// Adds one op's storage-tier counters.
pub fn add_storage(report: &mut Report, s: &StorageMetrics) {
    report.add("storage.spilled_mb", s.spilled_bytes as f64 / MB);
    report.add("storage.read_back_mb", s.read_back_bytes as f64 / MB);
    report.add("storage.evictions", s.evictions as f64);
    let peak = report
        .get("storage.peak_resident_mb")
        .max(s.peak_resident_bytes as f64 / MB);
    report.set("storage.peak_resident_mb", peak);
}

/// Adds the simulator's side of one op's `ExecStats`.
pub fn add_runtime(report: &mut Report, s: &ExecStats) {
    report.add("runtime.kernel_ms", s.real_cpu_seconds * 1e3);
    report.add("runtime.subtasks", s.subtasks as f64);
    report.add("runtime.net_mb", s.net_bytes as f64 / MB);
    report.add("runtime.encoded_raw_mb", s.encoded_raw_bytes as f64 / MB);
    report.add("runtime.encoded_wire_mb", s.encoded_wire_bytes as f64 / MB);
    let peak = report
        .get("runtime.peak_worker_mb")
        .max(s.peak_worker_bytes as f64 / MB);
    report.set("runtime.peak_worker_mb", peak);
}

/// Seconds spent inside the executor: every `executor.*` span.
pub fn executor_seconds(spans: &Spans) -> f64 {
    spans
        .totals()
        .iter()
        .filter(|(name, _)| name.starts_with("executor."))
        .map(|(_, totals)| totals.1)
        .sum()
}

/// Turns the span log of the traced pass into the sql, session and exec
/// metrics. Session overhead is fetch time minus `needed_executor_s`, the
/// executor time the same texts need in sessions of their own. With a
/// fresh session per op that is the executor time inside the fetches
/// themselves; a long-lived session that executes more than the query
/// asked for pays for it here.
pub fn add_span_metrics(report: &mut Report, spans: &Spans, needed_executor_s: Option<f64>) {
    let totals = spans.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or((0, 0.0, 0.0));
    let mean_us = |name: &str| {
        let (n, total, _) = get(name);
        total * 1e6 / n.max(1) as f64
    };
    report.set("sql.parse_us", mean_us("sql.parse"));
    report.set("sql.plan_us", mean_us("sql.plan"));
    report.set("sql.plan_hit_us", mean_us("sql.plan_hit"));
    let (_, fetch_s, fetch_self_s) = get("session.fetch");
    let overhead_s = match needed_executor_s {
        Some(needed) => (fetch_s - needed).max(0.0),
        None => fetch_self_s,
    };
    report.set("session.fetch_ms", fetch_s * 1e3);
    report.set("session.overhead_ms", overhead_s * 1e3);
    report.set("session.overhead_share", overhead_s / fetch_s.max(1e-12));
    let (graphs, execute_s, _) = get("executor.execute");
    report.set("exec.execute_ms", execute_s * 1e3);
    report.set("exec.graphs", graphs as f64);
}

/// Best of `n` timed calls after one untimed call, in seconds.
pub fn best_of<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    (0..n)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

const MICRO_REPS: usize = 5;
/// Rows of the codec micro-section: about one 8 MiB chunk of lineitem.
const CODEC_ROWS: usize = 64 * 1024;

/// Kernel and codec entry points on the workload's own tables.
pub fn micro_sections(report: &mut Report, inputs: &Inputs) {
    let li = &*inputs.lineitem;
    let ord = &*inputs.orders;
    let mrows = |rows: usize, secs: f64| rows as f64 / 1e6 / secs.max(1e-12);
    let date = |y, m, d| lit(Scalar::Date(dates::to_days(y, m, d)));

    // the Q6 predicate
    let q6 = col("l_shipdate")
        .ge(date(1994, 1, 1))
        .and(col("l_shipdate").lt(date(1995, 1, 1)))
        .and(col("l_discount").ge(lit(0.05)))
        .and(col("l_discount").le(lit(0.07)))
        .and(col("l_quantity").lt(lit(24.0)));
    let secs = best_of(MICRO_REPS, || {
        eval::eval_mask(li, &q6).and_then(|mask| li.filter(&mask))
    });
    report.set("dataframe.filter_mrows_s", mrows(li.num_rows(), secs));

    // the Q1 group-by
    let specs = [
        AggSpec::new("l_quantity", AggFunc::Sum, "sum_qty"),
        AggSpec::new("l_extendedprice", AggFunc::Sum, "sum_base_price"),
        AggSpec::new("l_quantity", AggFunc::Mean, "avg_qty"),
        AggSpec::new("l_discount", AggFunc::Mean, "avg_disc"),
        AggSpec::new("l_quantity", AggFunc::Count, "count_order"),
    ];
    let secs = best_of(MICRO_REPS, || {
        groupby::groupby_agg(li, &["l_returnflag", "l_linestatus"], &specs)
    });
    report.set("dataframe.groupby_mrows_s", mrows(li.num_rows(), secs));

    // orders joined to lineitem; two columns a side keep it a join, not a copy
    let probe = li.select(&["l_orderkey", "l_extendedprice"]);
    let build = ord.select(&["o_orderkey", "o_orderdate"]);
    if let (Ok(probe), Ok(build)) = (probe, build) {
        let secs = best_of(MICRO_REPS, || {
            join::merge(
                &probe,
                &build,
                &["l_orderkey"],
                &["o_orderkey"],
                &JoinOptions::default(),
            )
        });
        report.set(
            "dataframe.join_mrows_s",
            mrows(probe.num_rows() + build.num_rows(), secs),
        );
    }

    let secs = best_of(MICRO_REPS, || {
        partition::hash_partition(li, &["l_orderkey"], 8)
    });
    report.set("dataframe.partition_mrows_s", mrows(li.num_rows(), secs));

    // the Q1 sort keys, over the whole table
    let secs = best_of(MICRO_REPS, || {
        sort::sort_by(li, &[("l_returnflag", true), ("l_linestatus", true)])
    });
    report.set("dataframe.sort_mrows_s", mrows(li.num_rows(), secs));

    // the codec, both ways, on one chunk of lineitem
    let chunk = ChunkValue::Df(li.slice(0, li.num_rows().min(CODEC_ROWS)));
    let raw_mb = chunk.nbytes() as f64 / MB;
    let mut enc = EncodeWorkspace::new();
    let mut dec = DecodeWorkspace::new();
    for (mode, enc_name, dec_name) in [
        (
            EncodingMode::Plain,
            "storage.encode_mb_s_plain",
            "storage.decode_mb_s_plain",
        ),
        (
            EncodingMode::Auto,
            "storage.encode_mb_s_auto",
            "storage.decode_mb_s_auto",
        ),
    ] {
        let secs = best_of(MICRO_REPS, || enc.encode(&chunk, mode).len());
        report.set(enc_name, raw_mb / secs.max(1e-12));
        let bytes = enc.encode(&chunk, mode).to_vec();
        // the copy handed to the decoder is made outside the timer
        let secs = (0..=MICRO_REPS)
            .map(|_| {
                let owned = bytes.clone();
                let t = Instant::now();
                std::hint::black_box(decode_chunk_with(owned, &mut dec).is_ok());
                t.elapsed().as_secs_f64()
            })
            .skip(1)
            .fold(f64::INFINITY, f64::min);
        report.set(dec_name, raw_mb / secs.max(1e-12));
    }
    let secs = best_of(MICRO_REPS, || enc.measure(&chunk, EncodingMode::Auto));
    report.set("storage.measure_mb_s_auto", raw_mb / secs.max(1e-12));
    let plain = enc.encode(&chunk, EncodingMode::Plain).len() as f64;
    let auto = enc.encode(&chunk, EncodingMode::Auto).len() as f64;
    report.set("storage.wire_ratio", plain / auto.max(1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = Spans::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + std::time::Duration::from_millis(ms);
        spans.record("fetch", None, "Q1", at(0), at(100));
        spans.record("execute", Some(0), "Q1", at(10), at(40));
        spans.record("execute", Some(0), "Q1", at(50), at(70));
        let totals = spans.totals();
        let (n, total, own) = totals["fetch"];
        assert_eq!(n, 1);
        assert!((total - 0.100).abs() < 1e-9 && (own - 0.050).abs() < 1e-9);
        let (n, total, own) = totals["execute"];
        assert_eq!(n, 2);
        assert!((total - 0.050).abs() < 1e-9 && (own - 0.050).abs() < 1e-9);
    }

    #[test]
    fn nested_scopes_link_to_their_parent() {
        let spans = Spans::new();
        spans.set_op("Q3");
        spans.scope("outer", || spans.scope("inner", || ()));
        let json = spans.to_json("w");
        let v = crate::json::Json::parse(&json).expect("valid json");
        let rows = v.as_arr();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(rows[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
        assert_eq!(rows[1].get("op").and_then(|p| p.as_str()), Some("Q3"));
    }
}
