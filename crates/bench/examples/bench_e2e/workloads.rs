//! The six workloads: one untimed warm-up pass, the timed passes, and with
//! `--trace 1` one more pass under the span recorder.
//!
//! An *op* is one query submission. Every timing is taken per op as the
//! minimum over the timed passes and only then aggregated, because host
//! noise on a shared box is additive and bursty: per-pass sums of one run
//! spread 10–20 %, per-op minima of ten passes 1–3 %.

use crate::inputs::{self, pass_order, Inputs};
use crate::layers::{
    add_core_trace, add_runtime, add_span_metrics, add_storage, band_seconds, best_of,
    executor_seconds, micro_sections, with_core_trace, BenchExecutor, Spans, TimedExecutor,
};
use crate::metrics::{BestOf, PeakRss, Report, Tally};
use crate::oracle::Oracle;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::error::XbResult;
use xorbits_core::local::LocalExecutor;
use xorbits_core::parallel::ParallelExecutor;
use xorbits_core::retile::RetileMode;
use xorbits_core::session::{ExecStats, Executor, Session};
use xorbits_core::sql::{parse, plan_sql, run_sql, Catalog, SqlFrontend};
use xorbits_core::trace::TraceLog;
use xorbits_dataframe::DataFrame;
use xorbits_runtime::{ClusterSpec, SimExecutor};
use xorbits_serving::{ServingOutcome, ServingRuntime, TenantStream};
use xorbits_storage::{EncodingMode, SpillConfig, StorageConfig};

/// Name, scale factor and reason of each workload. The scale factors were
/// timed on a 2-core host so that `RUN_SECONDS` holds at least twenty-five
/// timed passes (`session_aged`: twelve sessions). `BENCHMARK.json` lists
/// all of them but `tpch_spill`, whose A/A spread (15–23 %) is too close
/// to the widest bound the driver allows; see the README.
pub const WORKLOADS: [(&str, f64, &str); 6] = [
    (
        "tpch_local",
        100.0,
        "22 TPC-H texts, fresh single-thread LocalExecutor session per op: kernels, tiling and optimizer do the work; codec, runtime and serving do none",
    ),
    (
        "tpch_parallel",
        100.0,
        "same texts on the work-stealing ParallelExecutor with morsel kernels: a gain for one executor that costs the other shows",
    ),
    (
        "tpch_cluster",
        50.0,
        "same texts on the simulated 4-worker cluster: dispatch, ledger, IO charging and codec measure() are over half of host time",
    ),
    (
        "tpch_spill",
        50.0,
        "same texts under a 4 MiB storage budget with a spill directory: encode, file write, read-back and decode do most of the work",
    ),
    (
        "session_aged",
        10.0,
        "one long-lived SqlFrontend session, cold texts then whitespace variants: planning, prune and tiling over a growing graph dominate, kernels are small",
    ),
    (
        "serving",
        20.0,
        "two tenants stream 200 Zipf-weighted rebound texts through ServingRuntime: coordinator, admission, fair scheduling and the lineage cache, hits and misses",
    ),
];

/// Seconds the timed passes of one run take by default; must equal
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

const CLUSTER_WORKERS: usize = 4;
const CLUSTER_WORKER_BYTES: usize = 256 << 20;
/// Storage budget of `tpch_spill` per unit of scale factor: 4 MiB at SF 50,
/// about a quarter of the lineitem table, so that most chunks spill.
const SPILL_BUDGET_PER_SF: f64 = 80.0 * 1024.0;
const SERVING_CACHE_BYTES: usize = 256 << 20;

/// When the timed passes stop.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Whole passes until this many seconds have gone by (the contract's
    /// `--seconds`).
    Seconds(f64),
    /// Exactly this many passes (`--passes`, used by `--quick`).
    Passes(usize),
}

impl Budget {
    fn more(&self, done: usize, started: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => done == 0 || started.elapsed().as_secs_f64() < s,
            Budget::Passes(n) => done < n.max(1),
        }
    }
}

/// What one workload run needs.
pub struct Ctx<'a> {
    pub workload: &'a str,
    pub inputs: &'a Inputs,
    pub oracle: &'a Oracle,
    pub seed: u64,
    pub budget: Budget,
    /// Kernel and pool threads of this workload: 1, or `min(nproc, 2)`
    /// on `tpch_parallel`.
    pub threads: usize,
    /// Scale factor the inputs were built at, and the fastest build so far.
    pub sf: f64,
    pub setup_s: f64,
    /// Directory for spill files, inside the checkout.
    pub spill_dir: PathBuf,
    /// The span recorder, present with `--trace 1`.
    pub spans: Option<Spans>,
}

/// Every knob is set by constructor, none is left to the environment.
pub fn engine_config(threads: usize) -> XorbitsConfig {
    XorbitsConfig::default()
        .with_threads(threads)
        .with_encoding(EncodingMode::Auto)
}

impl Ctx<'_> {
    fn cfg(&self) -> XorbitsConfig {
        engine_config(self.threads)
    }

    fn cluster(&self) -> ClusterSpec {
        ClusterSpec::new(CLUSTER_WORKERS, CLUSTER_WORKER_BYTES)
            .with_encoding(EncodingMode::Auto)
            .with_retile(RetileMode::Off)
    }
}

/// Runs the workload and fills `report`; returns the timed pass count.
pub fn run(ctx: &Ctx, report: &mut Report) -> XbResult<usize> {
    match ctx.workload {
        "tpch_local" => run_fresh(ctx, report, false, &LocalExecutor::new),
        "tpch_parallel" => {
            let passes = run_fresh(ctx, report, false, &|| {
                ParallelExecutor::with_threads(ctx.threads)
            })?;
            if ctx.spans.is_some() {
                parallel_speedup(ctx, report)?;
            }
            Ok(passes)
        }
        "tpch_cluster" => run_fresh(ctx, report, true, &|| SimExecutor::new(ctx.cluster())),
        "tpch_spill" => {
            std::fs::create_dir_all(&ctx.spill_dir).map_err(|e| {
                xorbits_core::error::XbError::Plan(format!(
                    "cannot create {}: {e}",
                    ctx.spill_dir.display()
                ))
            })?;
            let storage = StorageConfig {
                memory_budget: Some((ctx.inputs.data.scale.sf * SPILL_BUDGET_PER_SF) as usize),
                spill: SpillConfig::Dir(ctx.spill_dir.clone()),
                encoding: EncodingMode::Auto,
            };
            LocalExecutor::with_storage(storage.clone())?;
            let passes = run_fresh(ctx, report, false, &|| {
                LocalExecutor::with_storage(storage.clone())
                    .expect("the spill directory was usable a moment ago")
            });
            let _ = std::fs::remove_dir_all(&ctx.spill_dir);
            passes
        }
        "session_aged" => run_aged(ctx, report),
        "serving" => run_serving(ctx, report),
        other => Err(xorbits_core::error::XbError::Plan(format!(
            "no such workload: {other}"
        ))),
    }
}

/// One query from SQL text. Under the span recorder the same calls are
/// made one by one, plus a stand-alone `parse` so that parsing has a span
/// of its own (`plan_sql` parses again inside).
fn submit<E: Executor>(
    session: &Session<E>,
    catalog: &Catalog,
    text: &str,
    spans: Option<&Spans>,
) -> XbResult<DataFrame> {
    match spans {
        None => run_sql(session, catalog, text),
        Some(s) => {
            s.scope("sql.parse", || parse(text).is_ok());
            let handle = s.scope("sql.plan", || plan_sql(session, catalog, text))?;
            s.scope("session.fetch", || handle.fetch())
        }
    }
}

/// What is measured around the timed passes rather than per op: each
/// pass's peak resident memory, and after each pass one more build of the
/// inputs. Set-up is a few tens of milliseconds of mostly page faults;
/// timed only before the first pass, a slow second of the host moved
/// `setup_s` by 40–60 %, so its builds are spread over the whole run.
struct AroundPasses {
    rss: PeakRss,
    setup_s: f64,
}

impl AroundPasses {
    fn new(ctx: &Ctx) -> AroundPasses {
        AroundPasses {
            rss: PeakRss::default(),
            setup_s: ctx.setup_s,
        }
    }

    fn end(&mut self, ctx: &Ctx) {
        self.rss.end_pass();
        let t = Instant::now();
        let built = inputs::build(ctx.workload, ctx.sf, ctx.seed);
        if built.is_ok() {
            self.setup_s = self.setup_s.min(t.elapsed().as_secs_f64());
        }
    }
}

/// The timed passes: `pass(k)` for k = 1, 2, … until the budget is spent,
/// each framed by the around-pass measurements. Returns how many ran.
fn timed_passes(
    ctx: &Ctx,
    mut pass: impl FnMut(usize) -> XbResult<()>,
) -> XbResult<(usize, AroundPasses)> {
    let mut around = AroundPasses::new(ctx);
    let started = Instant::now();
    let mut done = 0;
    while ctx.budget.more(done, started) {
        done += 1;
        around.rss.begin_pass();
        pass(done)?;
        around.end(ctx);
    }
    Ok((done, around))
}

fn set_end_to_end(
    report: &mut Report,
    suite_s: f64,
    per_op_host: &BestOf,
    around: &mut AroundPasses,
) {
    report.set("setup_s", around.setup_s);
    report.set("peak_rss_mb", around.rss.median_mb());
    report.set("suite_ms", suite_s * 1e3);
    report.set("query_ms_geomean", per_op_host.geomean() * 1e3);
    report.set("exec.query_ms_max", per_op_host.max() * 1e3);
}

/// Sees a correct op after its timer has stopped and before its session
/// is dropped: op index, wall seconds, the session, and with tracing on
/// what `core::trace` collected.
type OnOp<'a, X> = &'a mut dyn FnMut(usize, f64, &Session<X>, Option<&TraceLog>);

/// One pass over the ops in the seeded order of `pass`, a fresh session
/// and executor per op.
fn fresh_pass<X: BenchExecutor>(
    ctx: &Ctx,
    catalog: &Catalog,
    pass: usize,
    mk: &dyn Fn() -> X,
    spans: Option<&Spans>,
    tally: &mut Tally,
    each: OnOp<X>,
) {
    for i in pass_order(ctx.inputs.ops.len(), ctx.seed, pass) {
        let op = &ctx.inputs.ops[i];
        let timed = || {
            let t = Instant::now();
            let session = Session::new(ctx.cfg(), mk());
            let got = submit(&session, catalog, &op.text, spans);
            (got, t.elapsed().as_secs_f64(), session)
        };
        let ((got, wall, session), log) = match spans {
            Some(s) => {
                s.set_op(&op.name);
                let (out, log) = with_core_trace(|| s.scope("op", timed));
                (out, Some(log))
            }
            None => (timed(), None),
        };
        if ctx.oracle.check(i, got.as_ref(), tally) {
            each(i, wall, &session, log.as_ref());
        }
    }
}

/// The four TPC-H workloads: fresh session per op on executor `mk`.
fn run_fresh<E: BenchExecutor>(
    ctx: &Ctx,
    report: &mut Report,
    virtual_cluster: bool,
    mk: &dyn Fn() -> E,
) -> XbResult<usize> {
    let catalog = ctx.inputs.catalog()?;
    let n = ctx.inputs.ops.len();
    let mut tally = report.tally;
    let mut host = BestOf::new(n);
    let mut virt = BestOf::new(n);
    let mut best_pass = f64::INFINITY;

    fresh_pass(ctx, &catalog, 0, mk, None, &mut tally, &mut |_, _, _, _| {});
    let (passes, mut around) = timed_passes(ctx, |pass| {
        let (mut total, mut correct) = (0.0, 0);
        fresh_pass(
            ctx,
            &catalog,
            pass,
            mk,
            None,
            &mut tally,
            &mut |i, wall, session, _| {
                host.record(i, wall);
                virt.record(i, session.total_stats().makespan);
                total += wall;
                correct += 1;
            },
        );
        if correct == n {
            best_pass = best_pass.min(total);
        }
        Ok(())
    })?;
    set_end_to_end(report, host.sum(), &host, &mut around);

    if let Some(spans) = &ctx.spans {
        if virtual_cluster {
            report.set("runtime.sim_makespan_s", virt.sum());
        }
        let bands = ctx.cluster().n_bands();
        let mut layer = Report::default();
        let (mut traced, mut busy, mut avail) = (0.0, 0.0, 0.0);
        fresh_pass(
            ctx,
            &catalog,
            passes + 1,
            &|| TimedExecutor::new(mk(), spans.clone()),
            Some(spans),
            &mut tally,
            &mut |_, wall, session, log| {
                traced += wall;
                let stats = session.total_stats();
                let (storage, chunk_ops) = session.with_executor(|e| (e.storage(), e.chunk_ops));
                layer.add("tiling.chunk_ops", chunk_ops as f64);
                layer.add("exec.subtasks", stats.subtasks as f64);
                if let Some(s) = storage {
                    add_storage(&mut layer, &s);
                }
                if let Some(log) = log {
                    add_core_trace(&mut layer, log);
                    if virtual_cluster {
                        add_runtime(&mut layer, &stats);
                        let (b, a) = band_seconds(log, bands);
                        busy += b;
                        avail += a;
                    }
                }
            },
        );
        report.values.extend(layer.values);
        add_span_metrics(report, spans, None);
        if virtual_cluster {
            let execute = report.get("exec.execute_ms");
            report.set("runtime.execute_ms", execute);
            report.set(
                "runtime.overhead_ms",
                execute - report.get("runtime.kernel_ms"),
            );
            report.set("runtime.band_utilization", busy / avail.max(1e-12));
        }
        report.set("trace.overhead_ratio", traced / best_pass);
        micro_sections(report, ctx.inputs);
    }
    report.tally = tally;
    Ok(passes)
}

/// `exec.parallel_speedup`: this run's `tpch_parallel` suite time against
/// the same ops, best of three passes each, on a one-thread
/// `LocalExecutor`, which is what `tpch_local` times.
fn parallel_speedup(ctx: &Ctx, report: &mut Report) -> XbResult<()> {
    let catalog = ctx.inputs.catalog()?;
    let mut local = BestOf::new(ctx.inputs.ops.len());
    xorbits_dataframe::par::set_kernel_threads(1);
    let mut tally = report.tally;
    for pass in 0..3 {
        fresh_pass(
            ctx,
            &catalog,
            pass,
            &LocalExecutor::new,
            None,
            &mut tally,
            &mut |i, wall, _, _| local.record(i, wall),
        );
    }
    xorbits_dataframe::par::set_kernel_threads(ctx.threads);
    report.tally = tally;
    report.set(
        "exec.parallel_speedup",
        local.sum() * 1e3 / report.get("suite_ms").max(1e-9),
    );
    Ok(())
}

/// What one aged session left behind, for the traced pass.
struct AgedSession<X: Executor> {
    frontend: SqlFrontend<X>,
    /// Sum of the walls of its ops, when all were correct.
    total: Option<f64>,
}

/// One session of `session_aged`: the 22 cold texts, then their 22
/// whitespace variants, through one `SqlFrontend` in a fixed order (an
/// op's cost depends on how much graph the session holds when it runs).
fn aged_session<X: BenchExecutor>(
    ctx: &Ctx,
    executor: X,
    spans: Option<&Spans>,
    tally: &mut Tally,
    each: &mut dyn FnMut(usize, f64),
) -> XbResult<AgedSession<X>> {
    let frontend = SqlFrontend::new(Session::new(ctx.cfg(), executor), ctx.inputs.catalog()?);
    let cold_ops = ctx.inputs.ops.len() / 2;
    let (mut total, mut correct) = (0.0, 0);
    for (i, op) in ctx.inputs.ops.iter().enumerate() {
        let t = Instant::now();
        let got = match spans {
            None => frontend.query(&op.text),
            Some(s) => {
                s.set_op(&op.name);
                s.scope("op", || {
                    let plan = if i < cold_ops {
                        s.scope("sql.parse", || parse(&op.text).is_ok());
                        "sql.plan"
                    } else {
                        "sql.plan_hit"
                    };
                    let handle = s.scope(plan, || frontend.plan(&op.text))?;
                    s.scope("session.fetch", || handle.fetch())
                })
            }
        };
        let wall = t.elapsed().as_secs_f64();
        if ctx.oracle.check(i, got.as_ref(), tally) {
            each(i, wall);
            total += wall;
            correct += 1;
        }
    }
    Ok(AgedSession {
        frontend,
        total: (correct == ctx.inputs.ops.len()).then_some(total),
    })
}

/// Executor seconds the session's ops need when each runs in a session
/// of its own: what `session_aged` would spend in the executor if a fetch
/// cost what it touches.
fn fresh_executor_seconds(ctx: &Ctx) -> XbResult<f64> {
    let scratch = Spans::new();
    let catalog = ctx.inputs.catalog()?;
    for op in &ctx.inputs.ops {
        let executor = TimedExecutor::new(LocalExecutor::new(), scratch.clone());
        run_sql(&Session::new(ctx.cfg(), executor), &catalog, &op.text)?;
    }
    Ok(executor_seconds(&scratch))
}

fn run_aged(ctx: &Ctx, report: &mut Report) -> XbResult<usize> {
    let n = ctx.inputs.ops.len();
    let mut tally = report.tally;
    let mut host = BestOf::new(n);
    let mut best_session = f64::INFINITY;

    aged_session(ctx, LocalExecutor::new(), None, &mut tally, &mut |_, _| {})?;
    let (sessions, mut around) = timed_passes(ctx, |_| {
        let s = aged_session(
            ctx,
            LocalExecutor::new(),
            None,
            &mut tally,
            &mut |i, wall| host.record(i, wall),
        )?;
        best_session = best_session.min(s.total.unwrap_or(f64::INFINITY));
        Ok(())
    })?;
    set_end_to_end(report, host.sum(), &host, &mut around);

    if let Some(spans) = &ctx.spans {
        let timed = TimedExecutor::new(LocalExecutor::new(), spans.clone());
        let (session, log) =
            with_core_trace(|| aged_session(ctx, timed, Some(spans), &mut tally, &mut |_, _| {}));
        let session = session?;
        let stats = session.frontend.session().total_stats();
        let (storage, chunk_ops) = session
            .frontend
            .session()
            .with_executor(|e| (e.storage(), e.chunk_ops));
        report.set("tiling.chunk_ops", chunk_ops as f64);
        report.set("exec.subtasks", stats.subtasks as f64);
        if let Some(s) = storage {
            add_storage(report, &s);
        }
        add_core_trace(report, &log);
        add_span_metrics(report, spans, Some(fresh_executor_seconds(ctx)?));
        let cache = session.frontend.cache_stats();
        report.set("sql.plan_cache_text_hits", cache.text_hits as f64);
        report.set("sql.plan_cache_misses", cache.misses as f64);
        report.set(
            "trace.overhead_ratio",
            session.total.unwrap_or(0.0) / best_session,
        );

        // the last warm op in the aged session against the same text in a
        // fresh one: what session age costs (ROADMAP gate: within 1.5x)
        let last = n - 1;
        let catalog = ctx.inputs.catalog()?;
        let fresh = best_of(5, || {
            run_sql(
                &Session::new(ctx.cfg(), LocalExecutor::new()),
                &catalog,
                &ctx.inputs.ops[last].text,
            )
        });
        report.set("session.aged_over_fresh", host.mins[last] / fresh);
        micro_sections(report, ctx.inputs);
    }
    report.tally = tally;
    Ok(sessions)
}

/// Host wall and execution stats of one stream position, taken inside the
/// tenant's query closure.
#[derive(Clone, Copy, Default)]
struct Position {
    host_s: f64,
    stats: ExecStats,
}

/// One whole `ServingRuntime::run` over both tenants' streams, with a
/// cold lineage cache. Returns its wall time, outcome and per-position
/// records (tenant-major, like `Inputs::streams` flattened).
fn serving_run(
    ctx: &Ctx,
    catalog: &Arc<Catalog>,
    spans: Option<(&Spans, usize)>,
) -> XbResult<(f64, ServingOutcome, Vec<Position>)> {
    let per_tenant = ctx.inputs.streams.first().map_or(0, Vec::len);
    let records = Arc::new(Mutex::new(vec![
        Position::default();
        per_tenant * ctx.inputs.streams.len()
    ]));
    let streams: Vec<TenantStream> = ctx
        .inputs
        .streams
        .iter()
        .enumerate()
        .map(|(t, positions)| {
            let mut stream = TenantStream::new(1);
            for (q, &i) in positions.iter().enumerate() {
                let catalog = Arc::clone(catalog);
                let records = Arc::clone(&records);
                let text = ctx.inputs.ops[i].text.clone();
                let name = ctx.inputs.ops[i].name.clone();
                let spans = spans.map(|(s, root)| (s.clone(), root));
                stream.push(move |session| {
                    let start = Instant::now();
                    let handle = plan_sql(session, &catalog, &text);
                    let planned = Instant::now();
                    let got = handle.and_then(|h| h.fetch());
                    let end = Instant::now();
                    if let Some((s, root)) = &spans {
                        let query = s.record("serving.query", Some(*root), &name, start, end);
                        s.record("sql.plan", Some(query), &name, start, planned);
                        s.record("session.fetch", Some(query), &name, planned, end);
                    }
                    records.lock().expect("position records poisoned")[t * per_tenant + q] =
                        Position {
                            host_s: (end - start).as_secs_f64(),
                            stats: session.total_stats(),
                        };
                    got
                });
            }
            stream
        })
        .collect();
    let runtime =
        ServingRuntime::new(ctx.cluster(), ctx.cfg()).with_cache_bytes(SERVING_CACHE_BYTES);
    let t = Instant::now();
    let outcome = runtime.run(streams)?;
    let wall = t.elapsed().as_secs_f64();
    let records = records.lock().expect("position records poisoned").clone();
    Ok((wall, outcome, records))
}

/// Checks every position of a serving run against the oracle.
fn check_serving(
    ctx: &Ctx,
    run: &XbResult<(f64, ServingOutcome, Vec<Position>)>,
    tally: &mut Tally,
) -> bool {
    let before = tally.failed;
    for (t, positions) in ctx.inputs.streams.iter().enumerate() {
        for (q, &i) in positions.iter().enumerate() {
            let got = match run {
                Ok((_, outcome, _)) => Ok(&outcome.results[t][q]),
                Err(e) => Err(e),
            };
            ctx.oracle.check(i, got, tally);
        }
    }
    tally.failed == before
}

fn run_serving(ctx: &Ctx, report: &mut Report) -> XbResult<usize> {
    let catalog = Arc::new(ctx.inputs.catalog()?);
    let n: usize = ctx.inputs.streams.iter().map(Vec::len).sum();
    let mut tally = report.tally;
    let per_tenant = n / ctx.inputs.streams.len().max(1);
    let mut host = BestOf::new(n);
    // the end-to-end ops of `serving` are its two closed-loop clients: a
    // tenant's time is the sum over its stream, which does not depend on
    // which of its hits happened to wait behind the other tenant's miss
    let mut tenant = BestOf::new(ctx.inputs.streams.len());
    let mut vlat = BestOf::new(n);
    let mut whole = BestOf::new(1);
    let mut makespan = BestOf::new(1);
    let mut hits = vec![false; n];

    check_serving(ctx, &serving_run(ctx, &catalog, None), &mut tally);
    let (runs, mut around) = timed_passes(ctx, |_| {
        let run = serving_run(ctx, &catalog, None);
        if !check_serving(ctx, &run, &mut tally) {
            return Ok(());
        }
        let (wall, outcome, records) = run?;
        whole.record(0, wall);
        makespan.record(0, outcome.stats.makespan);
        for (p, (rec, lat)) in records.iter().zip(outcome.latencies.concat()).enumerate() {
            host.record(p, rec.host_s);
            vlat.record(p, lat);
        }
        for (t, stream) in records.chunks(per_tenant.max(1)).enumerate() {
            tenant.record(t, stream.iter().map(|rec| rec.host_s).sum());
        }
        hits = outcome.cache_hits.concat();
        Ok(())
    })?;
    set_end_to_end(report, whole.sum(), &tenant, &mut around);

    if let Some(spans) = &ctx.spans {
        report.set("runtime.sim_makespan_s", makespan.sum());
        report.set("serving.vlat_ms_mean", vlat.mean() * 1e3);
        report.set("serving.vlat_ms_p95", vlat.percentile(95.0) * 1e3);
        let (mut hit_s, mut miss_s) = (Vec::new(), Vec::new());
        for (p, &hit) in hits.iter().enumerate() {
            if host.mins[p].is_finite() {
                if hit { &mut hit_s } else { &mut miss_s }.push(host.mins[p]);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        report.set("serving.hit_host_us", mean(&hit_s) * 1e6);
        report.set("serving.miss_host_ms", mean(&miss_s) * 1e3);

        spans.set_op("run");
        let root = spans.enter("serving.run");
        let (run, log) = with_core_trace(|| serving_run(ctx, &catalog, Some((spans, root))));
        spans.exit(root);
        if check_serving(ctx, &run, &mut tally) {
            let (wall, outcome, records) = run?;
            let s = &outcome.stats;
            report.set("serving.hit_rate", s.hit_rate());
            report.set("serving.cache_hits", s.cache_hits as f64);
            report.set("serving.cache_misses", s.cache_misses as f64);
            report.set("serving.cache_evictions", s.cache_evictions as f64);
            report.set("serving.admission_queued", s.admission_queued as f64);
            report.set("serving.admission_wait_ms", s.admission_wait * 1e3);
            for rec in &records {
                add_runtime(report, &rec.stats);
            }
            let (busy, avail) = band_seconds(&log, ctx.cluster().n_bands());
            report.set("runtime.band_utilization", busy / avail.max(1e-12));
            report.set("trace.overhead_ratio", wall / whole.sum().max(1e-12));
            // a tenant's executor is the coordinator's stub, so the fetch
            // cannot be split into session and executor time from outside
            let totals = spans.totals();
            if let Some(&(n, plan_s, _)) = totals.get("sql.plan") {
                report.set("sql.plan_us", plan_s * 1e6 / n.max(1) as f64);
            }
            if let Some(&(_, fetch_s, _)) = totals.get("session.fetch") {
                report.set("session.fetch_ms", fetch_s * 1e3);
            }
        }
        micro_sections(report, ctx.inputs);
    }
    report.tally = tally;
    Ok(runs)
}
