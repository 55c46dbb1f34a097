//! Structured tracing + metrics for the tiling/scheduling/storage stack.
//!
//! Zero-dependency observability layer answering "where does the time and
//! memory go" across the whole pipeline: tile → optimize → subtask build →
//! schedule/execute → spill/read-back/recovery. Two clocks coexist:
//!
//! * **Host time** — monotonic [`Instant`] seconds since [`enable`], used
//!   for driver-side stages ([`span`]/[`timed`]) and the
//!   [`local::LocalExecutor`](crate::local::LocalExecutor). Host-timed
//!   values are *measured* and therefore never part of determinism gates.
//! * **Virtual time** — the simulator's deterministic clock, stamped
//!   explicitly via [`span_at`]/[`instant_at`]/[`counter_at`]. Two
//!   same-seed fault-injection runs must emit identical virtual-time event
//!   streams; [`TraceLog::deterministic_lines`] serializes exactly the
//!   replayable fields (everything except timestamps and durations) so a
//!   byte-comparison of two runs is meaningful even though host-measured
//!   kernel durations differ.
//!
//! One trace is one recorder behind one lock: a bounded event ring (oldest
//! dropped first; see [`TraceLog::dropped`]), the track names and the
//! metrics registry. [`enable`] installs it on the calling thread; executor
//! pool workers and serving's tenant drivers join it via
//! [`handle`]/[`adopt`], so every thread's events land in the same ring in
//! the order they were recorded, and a log never holds more than the
//! capacity it was enabled with, however many threads recorded into it.
//! The enabled flag lives beside the lock as an `AtomicBool`, so enabling
//! or disabling tracing on the driver thread is immediately visible to
//! every adopted thread; a thread that never enabled nor adopted sees only
//! a thread-local `None` check, keeping untraced sessions (and tests
//! running in parallel in one process) fully isolated.
//! [`TraceLog::chrome_json`] exports the Chrome trace-event format
//! (`chrome://tracing` / Perfetto): pid 0 is the driver (host clock),
//! pid 1 the virtual cluster (virtual clock), one thread per band.
//!
//! The metrics registry (counters and gauges) keeps what a reader reads:
//! [`record_exec_stats`] bridges [`ExecStats`] into `exec.*` counters,
//! driver spans feed `stage.<name>.seconds` and simulator spans
//! `vstage.<stage>.seconds`, and [`explain`](crate::explain) renders
//! per-stage breakdowns from the resulting [`MetricsSnapshot`].

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::session::ExecStats;

/// Default ring capacity used by [`enable_default`]: 65 536 events.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Pipeline stage an event belongs to; becomes the Chrome `cat` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Column pruning on the tileable graph.
    Prune,
    /// One dynamic-tiling iteration (meta propagation + chunking).
    Tile,
    /// Graph optimization: coloring fusion.
    Optimize,
    /// Subtask-graph construction from the chunk graph.
    Build,
    /// Scheduler decisions (band assignment, dispatch).
    Schedule,
    /// Kernel execution of a subtask.
    Execute,
    /// Eviction of a chunk to the disk tier.
    Spill,
    /// Read-back of a spilled chunk into memory.
    ReadBack,
    /// Lineage recompute / spill-first recovery after a fault.
    Recovery,
    /// A transiently failed attempt that was retried.
    Retry,
    /// A fault-plan event firing (crash, chunk loss).
    Fault,
    /// Result gathering at the end of a fetch.
    Gather,
    /// Storage-service bookkeeping (pin/unpin anomalies, tier moves).
    Storage,
    /// Mid-run skew-aware re-tiling of a shuffle wave.
    Retile,
}

impl Stage {
    /// Stable lowercase label, used as the Chrome `cat` and in
    /// deterministic serialization.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Prune => "prune",
            Stage::Tile => "tile",
            Stage::Optimize => "optimize",
            Stage::Build => "build",
            Stage::Schedule => "schedule",
            Stage::Execute => "execute",
            Stage::Spill => "spill",
            Stage::ReadBack => "readback",
            Stage::Recovery => "recovery",
            Stage::Retry => "retry",
            Stage::Fault => "fault",
            Stage::Gather => "gather",
            Stage::Storage => "storage",
            Stage::Retile => "retile",
        }
    }
}

/// Where an event renders: Chrome `(pid, tid)` pair.
///
/// Process 0 is the driver (host clock): tid 0 is the session/tiler, tid 1
/// the local executor. Process 1 is the virtual cluster (virtual clock):
/// one thread per band, named via [`name_track`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Track {
    /// Chrome process id.
    pub pid: u32,
    /// Chrome thread id.
    pub tid: u32,
}

impl Track {
    /// The driver/session track (host clock).
    pub const DRIVER: Track = Track { pid: 0, tid: 0 };
    /// The local executor's track (host clock).
    pub const LOCAL: Track = Track { pid: 0, tid: 1 };

    /// The virtual-cluster track for band `b`.
    pub fn band(b: usize) -> Track {
        Track {
            pid: 1,
            tid: b as u32,
        }
    }

    /// The serving-layer track for tenant `t`: Chrome renders one lane per
    /// tenant alongside the per-band lanes.
    pub fn tenant(t: u32) -> Track {
        Track { pid: 2, tid: t }
    }
}

/// What kind of event this is. Chrome phases: `X` (complete span), `i`
/// (instant), `C` (counter sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A completed span with a duration in seconds.
    Span {
        /// Duration in seconds (host- or virtual-clock, matching `ts`).
        dur: f64,
    },
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value (e.g. live bytes on a worker).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Pipeline stage (Chrome `cat`).
    pub stage: Stage,
    /// Event name (Chrome `name`); static for hot paths, owned when the
    /// name is derived from graph contents.
    pub name: Cow<'static, str>,
    /// Destination track.
    pub track: Track,
    /// Timestamp in seconds on the track's clock.
    pub ts: f64,
    /// Span / instant / counter.
    pub kind: EventKind,
    /// Small structured payload (subtask / chunk / worker ids, byte
    /// counts). Keys are static so args never allocate per event.
    pub args: Vec<(&'static str, u64)>,
}

/// Point-in-time copy of the metrics registry. All maps are `BTreeMap`s so
/// iteration (and therefore every rendered report) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic event counts (`exec.retries`, `storage.unbalanced_unpins`…).
    pub counters: BTreeMap<String, u64>,
    /// Last-value / accumulated measurements (`stage.<name>.seconds`,
    /// `vstage.<cat>.seconds`, `exec.makespan_seconds`…).
    pub gauges: BTreeMap<String, f64>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }
}

/// A finished (or snapshotted) trace: the ring contents plus registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Events in arrival order (oldest first). At most `capacity` long.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
    /// Ring capacity the recorder ran with.
    pub capacity: usize,
    /// Human names for tracks, registered via [`name_track`].
    pub track_names: BTreeMap<(u32, u32), String>,
    /// The metrics registry at snapshot time.
    pub metrics: MetricsSnapshot,
}

/// Everything one trace collects, behind its one lock.
#[derive(Clone)]
struct Recorder {
    /// The bounded ring, oldest first, in recording order across threads.
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    track_names: BTreeMap<(u32, u32), String>,
    metrics: MetricsSnapshot,
}

impl Recorder {
    fn new(capacity: usize) -> Recorder {
        Recorder {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
            track_names: BTreeMap::new(),
            metrics: MetricsSnapshot::default(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn into_log(self) -> TraceLog {
        TraceLog {
            events: self.events.into(),
            dropped: self.dropped,
            capacity: self.capacity,
            track_names: self.track_names,
            metrics: self.metrics,
        }
    }
}

/// The trace context shared by the enabling thread and every adopted one.
struct Shared {
    enabled: AtomicBool,
    t0: Instant,
    recorder: Mutex<Recorder>,
}

impl Shared {
    /// The recorder. Poison-tolerant: every update is one push or one map
    /// entry, so the recorder is whole even if a recording thread panicked.
    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.recorder.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The log so far; `drain` empties the recorder (final [`disable`])
    /// instead of copying it ([`snapshot`]).
    fn log(&self, drain: bool) -> TraceLog {
        let mut r = self.lock();
        if drain {
            let capacity = r.capacity;
            std::mem::replace(&mut *r, Recorder::new(capacity)).into_log()
        } else {
            r.clone().into_log()
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
}

/// A cloneable, `Send` reference to a live trace context. Executor pools
/// capture one on the driver thread ([`handle`]) and [`adopt`] it on each
/// worker so worker-side spans/metrics land in the same trace.
#[derive(Clone)]
pub struct TraceHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle").finish_non_exhaustive()
    }
}

/// Whether tracing is currently enabled for this thread: it has (or
/// adopted) a context whose shared atomic flag is set. Threads that never
/// touched tracing pay one thread-local `None` check.
#[inline]
pub fn is_enabled() -> bool {
    CTX.with(|c| match c.borrow().as_ref() {
        Some(shared) => shared.enabled.load(Ordering::Relaxed),
        None => false,
    })
}

/// Enables tracing on this thread with a ring of `capacity` events shared
/// by every thread that [`adopt`]s it, replacing any previous context (its
/// contents are discarded, and threads still adopted into it go inert via
/// the shared atomic flag).
pub fn enable(capacity: usize) {
    CTX.with(|c| {
        let mut c = c.borrow_mut();
        if let Some(old) = c.take() {
            old.enabled.store(false, Ordering::Release);
        }
        *c = Some(Arc::new(Shared {
            enabled: AtomicBool::new(true),
            t0: Instant::now(),
            recorder: Mutex::new(Recorder::new(capacity.max(1))),
        }));
    });
}

/// Enables tracing with [`DEFAULT_CAPACITY`].
pub fn enable_default() {
    enable(DEFAULT_CAPACITY);
}

/// Disables tracing and returns the final [`TraceLog`], or `None` if this
/// thread has no trace context. The shared flag flips first, so adopted
/// threads stop recording immediately.
pub fn disable() -> Option<TraceLog> {
    CTX.with(|c| c.borrow_mut().take()).map(|shared| {
        shared.enabled.store(false, Ordering::Release);
        shared.log(true)
    })
}

/// A handle to this thread's live trace context, for [`adopt`]ing on pool
/// workers. `None` when tracing is disabled.
pub fn handle() -> Option<TraceHandle> {
    CTX.with(|c| {
        c.borrow().as_ref().and_then(|shared| {
            shared.enabled.load(Ordering::Relaxed).then(|| TraceHandle {
                shared: Arc::clone(shared),
            })
        })
    })
}

/// Joins this thread to the handle's trace context: from now on it records
/// into the same ring and registry. Call once per thread, before it
/// records.
pub fn adopt(handle: &TraceHandle) {
    CTX.with(|c| *c.borrow_mut() = Some(Arc::clone(&handle.shared)));
}

/// Copies the current log without disabling tracing.
pub fn snapshot() -> Option<TraceLog> {
    CTX.with(|c| c.borrow().as_ref().map(|shared| shared.log(false)))
}

/// Seconds of host time since [`enable`] (0 when disabled). Use as the
/// `ts` for host-clock events recorded via the `*_at` functions.
pub fn host_now_s() -> f64 {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|shared| shared.t0.elapsed().as_secs_f64())
            .unwrap_or(0.0)
    })
}

/// Runs `f` with the thread's context when tracing is enabled.
fn with_ctx(f: impl FnOnce(&Shared)) {
    CTX.with(|c| {
        if let Some(shared) = c.borrow().as_ref() {
            if shared.enabled.load(Ordering::Relaxed) {
                f(shared);
            }
        }
    });
}

/// Runs `f` against the recorder when tracing is enabled.
fn with_recorder(f: impl FnOnce(&mut Recorder)) {
    with_ctx(|shared| f(&mut shared.lock()));
}

/// Pushes an event onto the ring.
fn push_event(ev: TraceEvent) {
    with_recorder(|r| r.push(ev));
}

/// Registers a human-readable name for a track (Chrome thread name).
pub fn name_track(track: Track, name: impl Into<String>) {
    with_recorder(|r| {
        r.track_names.insert((track.pid, track.tid), name.into());
    });
}

/// Records a completed span with an explicit timestamp and duration (both
/// in seconds on the track's clock). This is how the simulator stamps
/// virtual-time spans; it also accumulates the `vstage.<cat>.seconds`
/// gauge for per-stage breakdowns.
pub fn span_at(
    stage: Stage,
    name: impl Into<Cow<'static, str>>,
    track: Track,
    ts: f64,
    dur: f64,
    args: &[(&'static str, u64)],
) {
    with_recorder(|r| {
        *r.metrics
            .gauges
            .entry(format!("vstage.{}.seconds", stage.label()))
            .or_insert(0.0) += dur;
        r.push(TraceEvent {
            stage,
            name: name.into(),
            track,
            ts,
            kind: EventKind::Span { dur },
            args: args.to_vec(),
        });
    });
}

/// Records an instant event at an explicit timestamp.
pub fn instant_at(
    stage: Stage,
    name: impl Into<Cow<'static, str>>,
    track: Track,
    ts: f64,
    args: &[(&'static str, u64)],
) {
    push_event(TraceEvent {
        stage,
        name: name.into(),
        track,
        ts,
        kind: EventKind::Instant,
        args: args.to_vec(),
    });
}

/// Records an instant event at the current host time on the given track.
pub fn instant(stage: Stage, name: impl Into<Cow<'static, str>>, args: &[(&'static str, u64)]) {
    if !is_enabled() {
        return;
    }
    let ts = host_now_s();
    instant_at(stage, name, Track::DRIVER, ts, args);
}

/// Records a counter sample (Chrome `C` phase) at an explicit timestamp.
pub fn counter_at(name: impl Into<Cow<'static, str>>, track: Track, ts: f64, value: f64) {
    push_event(TraceEvent {
        stage: Stage::Schedule,
        name: name.into(),
        track,
        ts,
        kind: EventKind::Counter { value },
        args: Vec::new(),
    });
}

/// RAII guard for a host-timed span; see [`span`].
pub struct SpanGuard {
    start: Option<(Stage, Cow<'static, str>, Track, Instant)>,
}

impl SpanGuard {
    /// A guard that records nothing (tracing disabled).
    pub fn disabled() -> SpanGuard {
        SpanGuard { start: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stage, name, track, start)) = self.start.take() {
            let dur = start.elapsed().as_secs_f64();
            with_ctx(|shared| {
                let ts = start.duration_since(shared.t0).as_secs_f64();
                let mut r = shared.lock();
                if track == Track::DRIVER {
                    *r.metrics
                        .gauges
                        .entry(format!("stage.{name}.seconds"))
                        .or_insert(0.0) += dur;
                }
                r.push(TraceEvent {
                    stage,
                    name,
                    track,
                    ts,
                    kind: EventKind::Span { dur },
                    args: Vec::new(),
                });
            });
        }
    }
}

/// Opens a host-timed span on the driver track; the span is recorded when
/// the returned guard drops, and `stage.<name>.seconds` accumulates its
/// duration for the per-stage breakdown. Spans on other tracks (per-subtask
/// spans on [`Track::LOCAL`]) feed no gauge.
pub fn span(stage: Stage, name: impl Into<Cow<'static, str>>) -> SpanGuard {
    span_on(stage, name, Track::DRIVER)
}

/// Opens a host-timed span on an explicit track (e.g. [`Track::LOCAL`]).
pub fn span_on(stage: Stage, name: impl Into<Cow<'static, str>>, track: Track) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::disabled();
    }
    SpanGuard {
        start: Some((stage, name.into(), track, Instant::now())),
    }
}

/// Runs `f` inside a host-timed span.
pub fn timed<T>(stage: Stage, name: impl Into<Cow<'static, str>>, f: impl FnOnce() -> T) -> T {
    let _g = span(stage, name);
    f()
}

/// Adds `delta` to a registry counter.
pub fn counter_add(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_recorder(|r| {
        *r.metrics.counters.entry(name.to_string()).or_insert(0) += delta;
    });
}

/// Adds `delta` to a registry gauge.
pub fn gauge_add(name: &str, delta: f64) {
    with_recorder(|r| {
        *r.metrics.gauges.entry(name.to_string()).or_insert(0.0) += delta;
    });
}

/// Raises a registry gauge to `value` if it is currently lower.
pub fn gauge_max(name: &str, value: f64) {
    with_recorder(|r| {
        let g = r.metrics.gauges.entry(name.to_string()).or_insert(0.0);
        if value > *g {
            *g = value;
        }
    });
}

/// Folds one fetch's [`ExecStats`] into the registry: counts become
/// counters, measured seconds accumulate into gauges, and the worker peak
/// keeps its maximum. This is the bridge that lets `explain` and the
/// bench harness report statistics without new struct fields.
pub fn record_exec_stats(stats: &ExecStats) {
    if !is_enabled() {
        return;
    }
    counter_add("exec.subtasks", stats.subtasks as u64);
    counter_add("exec.net_bytes", stats.net_bytes as u64);
    counter_add("exec.spilled_bytes", stats.spilled_bytes as u64);
    counter_add("exec.read_back_bytes", stats.read_back_bytes as u64);
    counter_add("exec.retries", stats.retries as u64);
    counter_add("exec.recomputed_subtasks", stats.recomputed_subtasks as u64);
    counter_add(
        "exec.recovered_from_spill_bytes",
        stats.recovered_from_spill_bytes as u64,
    );
    counter_add("exec.encoded_raw_bytes", stats.encoded_raw_bytes as u64);
    counter_add("exec.encoded_wire_bytes", stats.encoded_wire_bytes as u64);
    counter_add("exec.retiled_partitions", stats.retiled_partitions as u64);
    gauge_add("exec.makespan_seconds", stats.makespan);
    gauge_add("exec.real_cpu_seconds", stats.real_cpu_seconds);
    gauge_max("exec.peak_worker_bytes", stats.peak_worker_bytes as f64);
}

fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl TraceLog {
    /// Renders the log as Chrome trace-event JSON (an object with a
    /// `traceEvents` array), loadable in `chrome://tracing` or Perfetto.
    /// Timestamps and durations are microseconds; pid 0 is the driver
    /// (host clock) and pid 1 the virtual cluster (virtual clock).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool, body: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('{');
            out.push_str(body);
            out.push('}');
        };

        // Process/thread metadata first so the viewer names the tracks.
        let mut named = BTreeMap::new();
        named.insert((0u32, 0u32), "session/tiler".to_string());
        named.insert((0, 1), "local executor".to_string());
        for (k, v) in &self.track_names {
            named.insert(*k, v.clone());
        }
        let mut pids: Vec<u32> = named.keys().map(|k| k.0).collect();
        pids.extend(self.events.iter().map(|e| e.track.pid));
        pids.sort_unstable();
        pids.dedup();
        for pid in pids {
            let pname = match pid {
                0 => "driver (host clock)",
                2 => "tenants",
                _ => "virtual cluster",
            };
            emit(
                &mut out,
                &mut first,
                &format!(
                    "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{pname}\"}}"
                ),
            );
        }
        for ((pid, tid), tname) in &named {
            let mut escaped = String::new();
            escape_json_into(&mut escaped, tname);
            emit(
                &mut out,
                &mut first,
                &format!(
                    "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{escaped}\"}}"
                ),
            );
        }

        for ev in &self.events {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, &ev.name);
            let _ = write!(
                out,
                "\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3}",
                ev.stage.label(),
                ev.track.pid,
                ev.track.tid,
                ev.ts * 1e6
            );
            match ev.kind {
                EventKind::Span { dur } => {
                    let _ = write!(out, ",\"ph\":\"X\",\"dur\":{:.3}", dur * 1e6);
                }
                EventKind::Instant => out.push_str(",\"ph\":\"i\",\"s\":\"t\""),
                EventKind::Counter { value } => {
                    let _ = write!(out, ",\"ph\":\"C\"");
                    out.push_str(",\"args\":{\"value\":");
                    let _ = write!(out, "{value}");
                    out.push_str("}}");
                    continue;
                }
            }
            if !ev.args.is_empty() {
                out.push_str(",\"args\":{");
                for (i, (k, v)) in ev.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{k}\":{v}");
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Serializes the replayable fields of every event, one line each:
    /// stage, kind, name, track, and args — **excluding** timestamps and
    /// durations, which incorporate measured host time. Two same-seed
    /// fault-injection runs must produce byte-identical output.
    pub fn deterministic_lines(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 48);
        for ev in &self.events {
            let kind = match ev.kind {
                EventKind::Span { .. } => "span",
                EventKind::Instant => "instant",
                EventKind::Counter { .. } => "counter",
            };
            let _ = write!(
                out,
                "{} {} {} pid={} tid={}",
                kind,
                ev.stage.label(),
                ev.name,
                ev.track.pid,
                ev.track.tid
            );
            if let EventKind::Counter { value } = ev.kind {
                let _ = write!(out, " value={value}");
            }
            for (k, v) in &ev.args {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
        }
        out
    }

    /// Per-track busy seconds from span events, keyed by `(pid, tid)`.
    /// Spans on a band track never overlap (bands are serial execution
    /// slots), so summing durations gives the busy time directly.
    pub fn busy_seconds(&self) -> BTreeMap<(u32, u32), f64> {
        let mut busy: BTreeMap<(u32, u32), f64> = BTreeMap::new();
        for ev in &self.events {
            if let EventKind::Span { dur } = ev.kind {
                *busy.entry((ev.track.pid, ev.track.tid)).or_insert(0.0) += dur;
            }
        }
        busy
    }

    /// Latest span end (`ts + dur`) per process, used as the utilization
    /// denominator for virtual-cluster tracks.
    pub fn span_horizon(&self, pid: u32) -> f64 {
        self.events
            .iter()
            .filter(|e| e.track.pid == pid)
            .filter_map(|e| match e.kind {
                EventKind::Span { dur } => Some(e.ts + dur),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset() {
        let _ = disable();
    }

    #[test]
    fn disabled_is_inert() {
        reset();
        assert!(!is_enabled());
        counter_add("x", 3);
        instant(Stage::Fault, "nope", &[]);
        timed(Stage::Tile, "nope", || ());
        assert!(snapshot().is_none());
        assert!(disable().is_none());
    }

    #[test]
    fn ring_overflow_drops_oldest_without_corrupting_open_spans() {
        reset();
        enable(8);
        // Open a host span, then flood the ring well past capacity.
        let guard = span(Stage::Tile, "outer");
        for i in 0..32u64 {
            instant_at(
                Stage::Execute,
                "tick",
                Track::band(0),
                i as f64,
                &[("i", i)],
            );
        }
        drop(guard); // closes cleanly even though the ring wrapped
        let log = disable().expect("enabled");
        assert_eq!(log.events.len(), 8, "ring must stay bounded");
        assert_eq!(log.dropped, 25, "32 ticks + 1 span - 8 kept");
        // Oldest dropped first: the survivors are the newest events, and
        // the span closed after the flood so it must be present and whole.
        let span_ev = log
            .events
            .iter()
            .find(|e| e.name == "outer")
            .expect("open span survived overflow");
        assert!(matches!(span_ev.kind, EventKind::Span { dur } if dur >= 0.0));
        let ticks: Vec<u64> = log
            .events
            .iter()
            .filter(|e| e.name == "tick")
            .map(|e| e.args[0].1)
            .collect();
        assert_eq!(ticks, (25..32).collect::<Vec<u64>>());
    }

    #[test]
    fn chrome_json_escapes_and_structures() {
        reset();
        enable(64);
        name_track(Track::band(0), "w0:b0 \"main\"");
        span_at(
            Stage::Execute,
            "filter\"x\"\n",
            Track::band(0),
            0.5,
            0.25,
            &[("subtask", 7), ("worker", 0)],
        );
        counter_at("live_bytes", Track::band(0), 0.75, 4096.0);
        instant_at(
            Stage::Fault,
            "worker_crash",
            Track::band(0),
            1.0,
            &[("worker", 1)],
        );
        let log = disable().unwrap();
        let js = log.chrome_json();
        assert!(js.starts_with("{\"traceEvents\":["));
        assert!(js.ends_with("]}"));
        assert!(js.contains("\\\"x\\\"\\n"), "name must be escaped: {js}");
        assert!(js.contains("\"ph\":\"X\""));
        assert!(js.contains("\"ph\":\"C\""));
        assert!(js.contains("\"ph\":\"i\""));
        assert!(js.contains("\"cat\":\"fault\""));
        assert!(js.contains("\"subtask\":7"));
        // span_at stamped virtual seconds; exporter converts to µs
        assert!(js.contains("\"ts\":500000.000"));
        assert!(js.contains("\"dur\":250000.000"));
    }

    #[test]
    fn deterministic_lines_exclude_time() {
        reset();
        enable(64);
        span_at(Stage::Execute, "k", Track::band(1), 1.25, 0.5, &[("s", 3)]);
        let a = disable().unwrap();
        enable(64);
        span_at(
            Stage::Execute,
            "k",
            Track::band(1),
            9.75,
            0.125,
            &[("s", 3)],
        );
        let b = disable().unwrap();
        assert_ne!(a.events[0].ts, b.events[0].ts);
        assert_eq!(a.deterministic_lines(), b.deterministic_lines());
        assert_eq!(a.deterministic_lines(), "span execute k pid=1 tid=1 s=3\n");
    }

    #[test]
    fn metrics_registry_counts_gauges() {
        reset();
        enable(16);
        counter_add("exec.retries", 2);
        counter_add("exec.retries", 3);
        gauge_add("g", 1.5);
        gauge_add("g", 0.5);
        gauge_max("peak", 10.0);
        gauge_max("peak", 4.0);
        let m = disable().unwrap().metrics;
        assert_eq!(m.counters["exec.retries"], 5);
        assert_eq!(m.gauges["g"], 2.0);
        assert_eq!(m.gauges["peak"], 10.0);
    }

    #[test]
    fn exec_stats_bridge() {
        reset();
        enable(16);
        let stats = ExecStats {
            makespan: 1.0,
            subtasks: 4,
            retries: 2,
            peak_worker_bytes: 100,
            encoded_raw_bytes: 30,
            encoded_wire_bytes: 20,
            retiled_partitions: 1,
            ..Default::default()
        };
        record_exec_stats(&stats);
        record_exec_stats(&stats);
        let m = disable().unwrap().metrics;
        assert_eq!(m.counters["exec.subtasks"], 8);
        assert_eq!(m.counters["exec.retries"], 4);
        assert_eq!(m.counters["exec.encoded_raw_bytes"], 60);
        assert_eq!(m.counters["exec.encoded_wire_bytes"], 40);
        assert_eq!(m.counters["exec.retiled_partitions"], 2);
        assert_eq!(m.gauges["exec.makespan_seconds"], 2.0);
        assert_eq!(m.gauges["exec.peak_worker_bytes"], 100.0);
    }

    /// Pool workers must see the driver's enable/disable through the
    /// shared atomic flag, and their events must reach the one ring —
    /// while threads with no adopted context stay inert.
    #[test]
    fn adopted_workers_share_the_trace_context() {
        reset();
        enable(64);
        let h = handle().expect("enabled → handle");
        instant(Stage::Schedule, "driver_side", &[]);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!is_enabled(), "fresh thread has no context");
                instant(Stage::Execute, "lost", &[]); // no context: dropped
                adopt(&h);
                assert!(is_enabled(), "enable is visible through the handle");
                instant_at(
                    Stage::Execute,
                    "worker_side",
                    Track::band(0),
                    1.0,
                    &[("w", 1)],
                );
            });
        });
        let log = disable().expect("enabled");
        let names: Vec<&str> = log.events.iter().map(|e| e.name.as_ref()).collect();
        // one ring, in recording order: the driver recorded first
        assert_eq!(names, vec!["driver_side", "worker_side"]);
        assert!(!names.contains(&"lost"));
    }

    #[test]
    fn disable_is_visible_to_adopted_workers() {
        reset();
        enable(64);
        let h = handle().expect("enabled → handle");
        let _ = disable();
        std::thread::scope(|s| {
            s.spawn(|| {
                adopt(&h);
                assert!(!is_enabled(), "disable flips the shared atomic flag");
                instant(Stage::Execute, "late", &[]);
            });
        });
        assert!(snapshot().is_none(), "driver context is gone");
    }

    /// Worker-side counters and gauges land in the one shared registry, not
    /// per-thread copies.
    #[test]
    fn adopted_workers_merge_metrics() {
        reset();
        enable(16);
        counter_add("exec.retries", 1);
        let h = handle().unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    adopt(&h);
                    counter_add("exec.retries", 1);
                    gauge_max("peak", 7.0);
                });
            }
        });
        let m = disable().unwrap().metrics;
        assert_eq!(m.counters["exec.retries"], 5);
        assert_eq!(m.gauges["peak"], 7.0);
    }

    /// A traced group-by over a 4-thread pool: 2,000 rows in 256-byte
    /// chunks run as dozens of subtasks spread over the workers.
    fn traced_pool_fetch(capacity: usize) -> TraceLog {
        use crate::config::XorbitsConfig;
        use crate::parallel::ParallelExecutor;
        use crate::session::Session;
        use xorbits_dataframe::{AggFunc, AggSpec, Column, DataFrame};

        let cfg = XorbitsConfig {
            chunk_limit_bytes: 256,
            ..Default::default()
        };
        let df = DataFrame::new(vec![
            ("k", Column::from_i64((0..2000).map(|i| i % 7).collect())),
            ("v", Column::from_i64((0..2000).collect())),
        ])
        .unwrap();
        reset();
        enable(capacity);
        let s = Session::new(cfg, ParallelExecutor::with_threads(4));
        s.from_df(df)
            .unwrap()
            .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])
            .unwrap()
            .fetch()
            .unwrap();
        disable().unwrap()
    }

    /// The capacity bounds the whole trace, however many pool workers
    /// recorded into it; what did not fit is counted, not kept.
    #[test]
    fn a_pool_fetch_keeps_the_trace_bound() {
        let full = traced_pool_fetch(1 << 16);
        assert!(full.events.len() > 64, "the fetch records more than 64");
        let log = traced_pool_fetch(64);
        assert_eq!(log.capacity, 64);
        assert!(log.events.len() <= 64, "{} events", log.events.len());
        assert!(log.dropped > 0);
        assert_eq!(
            log.events.len() as u64 + log.dropped,
            full.events.len() as u64
        );
    }

    /// Only driver stages feed `stage.*`: per-subtask spans on the local
    /// executor's track are named after fused op labels and overlap the
    /// `execute` stage, so they would count its time twice. The breakdown's
    /// shares are then taken over stages that do not nest.
    #[test]
    fn stage_gauges_are_driver_stages_and_their_shares_sum_to_one() {
        let log = traced_pool_fetch(1 << 16);
        let gauges = &log.metrics.gauges;
        assert!(gauges.contains_key("stage.execute.seconds"), "{gauges:?}");
        let labels: Vec<&str> = log
            .events
            .iter()
            .filter(|e| e.track == Track::LOCAL)
            .map(|e| e.name.as_ref())
            .collect();
        assert!(!labels.is_empty(), "the pool records per-subtask spans");
        for label in labels {
            let key = format!("stage.{label}.seconds");
            assert!(
                !gauges.contains_key(&key),
                "a gauge named after an op label: {key}"
            );
        }
        let text = crate::explain::explain_stage_breakdown(&log.metrics);
        let shares: f64 = text
            .lines()
            .take_while(|l| !l.starts_with("Stage breakdown (virtual") && *l != "Counters")
            .filter_map(|l| l.strip_suffix('%'))
            .filter_map(|l| l.split_whitespace().last()?.parse::<f64>().ok())
            .sum();
        assert!(
            (shares - 100.0).abs() <= 0.5,
            "shares sum to {shares}:\n{text}"
        );
    }

    #[test]
    fn utilization_helpers() {
        reset();
        enable(16);
        span_at(Stage::Execute, "a", Track::band(0), 0.0, 1.0, &[]);
        span_at(Stage::Execute, "b", Track::band(0), 2.0, 1.0, &[]);
        span_at(Stage::Execute, "c", Track::band(1), 0.0, 0.5, &[]);
        let log = disable().unwrap();
        let busy = log.busy_seconds();
        assert_eq!(busy[&(1, 0)], 2.0);
        assert_eq!(busy[&(1, 1)], 0.5);
        assert_eq!(log.span_horizon(1), 3.0);
    }
}
