//! The multi-tenant serving runtime.
//!
//! N tenant *drivers* run on OS threads, each submitting a stream of
//! queries against its own [`Session`]. Every session's executor is a
//! [`TenantExecutor`]; all of them share one `Coordinator` — the single
//! [`SimExecutor`] (the virtual cluster), the result cache, admission and
//! fair-share state — behind one lock. There is no message protocol: an
//! executor call is a method call on the locked coordinator, made on the
//! caller's own thread.
//!
//! # One lock, quiesce points, answer slots
//!
//! Thread scheduling must not leak into results or statistics, so whatever
//! *decides* something — which buffered cache inserts land, what a lookup
//! finds, who is admitted, whose subtask runs next — happens in
//! `service_cycle`, and only at a *quiesce point*: a moment when every
//! unfinished driver is blocked (inside `execute`, a cache lookup or the
//! admission queue). The thread that called [`ServingRuntime::run`] is the
//! coordinator: it sleeps until the run is quiesced, runs one cycle under
//! the lock — tenants in tenant-id order — and wakes the drivers.
//!
//! `execute` and the cache `lookup` are the calls that wait: the driver
//! records what it wants in its tenant's `TState` and sleeps until the
//! coordinator has put the result in the tenant's *answer slot*. Every
//! other call returns at once, and that is safe because the coordinator is
//! asleep while any driver runs, so the cluster state is frozen: `meta` and
//! `payload` read one value whenever they happen, `release` and `clear`
//! touch only the calling tenant's key space ([`tenant_key_base`]) and
//! reservation, and a cache `insert` is only buffered — applied at the
//! next quiesce point in tenant-id order. Each cycle therefore advances
//! every tenant to its next blocking point in lockstep: same seed + same
//! tenant streams ⇒ bit-identical results, identical cache hit counts,
//! identical virtual clocks — however the OS schedules the drivers.
//!
//! A query that returns `Err` or panics drops its executor, which closes
//! the fetch it had open; its tenant is marked `Done` by a drop guard and
//! the others run to the end. A panic on the coordinator's side (a kernel
//! or source generator under `step_graph`) or a deadlock aborts the run:
//! every sleeping driver is woken with a typed error. Either way `run`
//! returns an `Err` naming tenant and query, and never hangs.
//!
//! # Fair sharing
//!
//! Admitted graphs execute one subtask at a time via
//! [`SimExecutor::step_graph`], interleaved across tenants by deficit
//! round-robin: each pass gives tenant `t` a quantum of `weight(t)`
//! subtask credits, so over time the virtual bands divide in proportion
//! to the weights while any single tenant's burst cannot starve the rest.
//!
//! # Admission control
//!
//! The first subtask graph of a fetch carries the tiler's source chunking,
//! so its source-chunk count × `chunk_limit_bytes` estimates the fetch's
//! working set. A fetch whose estimate does not fit in the cluster's free
//! budget (workers × worker memory, minus active reservations) waits in a
//! FIFO queue until earlier fetches complete; when nothing is reserved the
//! head is always admitted, so an oversized query degrades to running
//! alone (and spilling) instead of deadlocking the queue.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::cache::{CacheStats, LineageCache};
use xorbits_core::chunk::{ChunkKey, ChunkMeta, Payload};
use xorbits_core::config::XorbitsConfig;
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::explain::{ServingStats, TenantServingStats};
use xorbits_core::session::{ExecStats, Executor, ResultCache, Session};
use xorbits_core::subtask::SubtaskGraph;
use xorbits_core::tiling::MetaView;
use xorbits_dataframe::DataFrame;
use xorbits_runtime::{ClusterSpec, GraphRun, SimExecutor};

/// One tenant query: runs against the tenant's session and returns the
/// result frame. Queries fetch internally (possibly more than once — each
/// fetch is admitted and cached independently).
pub type Query = Box<dyn FnOnce(&Session<TenantExecutor>) -> XbResult<DataFrame> + Send>;

/// One tenant's workload: a fair-share weight and an ordered query stream.
pub struct TenantStream {
    /// Fair-share weight (≥ 1; the DRR quantum in subtasks per pass).
    pub weight: u32,
    /// Queries, submitted in order.
    pub queries: Vec<Query>,
}

impl TenantStream {
    /// An empty stream with the given weight.
    pub fn new(weight: u32) -> TenantStream {
        TenantStream {
            weight,
            queries: Vec::new(),
        }
    }

    /// Appends a query.
    pub fn push(
        &mut self,
        q: impl FnOnce(&Session<TenantExecutor>) -> XbResult<DataFrame> + Send + 'static,
    ) {
        self.queries.push(Box::new(q));
    }
}

/// Chunk-key namespace of one tenant's query: the high bits encode the
/// tenant and query index so concurrent sessions sharing the simulator
/// never collide (20 bits ≈ 1M chunk keys per query).
pub fn tenant_key_base(tenant: u32, query: u32) -> ChunkKey {
    ((tenant as ChunkKey + 1) << 40) | ((query as ChunkKey) << 20)
}

// ---------------------------------------------------------------------------
// the drivers' side: executor and cache handles on the shared coordinator

/// What the drivers and the coordinator share: the one lock, and the one
/// condvar every wait in this module is on.
struct Monitor {
    coord: Mutex<Coordinator>,
    changed: Condvar,
}

fn aborted() -> XbError {
    XbError::Plan("the serving run was aborted".into())
}

impl Monitor {
    /// The coordinator, locked for one call from a driver's thread. `None`
    /// when the lock is poisoned: something panicked under it (a kernel,
    /// mid-cycle), the run is aborted and its state is not touched again.
    fn enter(&self) -> Option<MutexGuard<'_, Coordinator>> {
        self.coord.lock().ok()
    }

    /// Sleeps the driver of `tenant` — already put in a waiting [`TState`]
    /// — until the coordinator has filled its answer slot.
    fn wait<T>(
        &self,
        mut c: MutexGuard<'_, Coordinator>,
        tenant: u32,
        slot: fn(&mut Tenant) -> &mut Option<T>,
    ) -> XbResult<T> {
        // the coordinator sleeps until the last running driver has blocked
        if c.quiesced() {
            self.changed.notify_all();
        }
        while !c.aborted {
            if let Some(answer) = slot(&mut c.tenants[tenant as usize]).take() {
                return Ok(answer);
            }
            c = self.changed.wait(c).map_err(|_| aborted())?;
        }
        Err(aborted())
    }
}

/// The per-tenant [`Executor`]: every call is a method call on the locked
/// coordinator. `execute` blocks until the coordinator has fair-share
/// scheduled the whole graph; everything else returns at once (the cluster
/// state is frozen while any driver runs).
pub struct TenantExecutor {
    tenant: u32,
    query: u32,
    shared: Arc<Monitor>,
    /// Every key this query published to the simulator, handed over on
    /// `clear` so the coordinator can drop exactly this query's chunks.
    published: Vec<ChunkKey>,
}

/// A fetch that fails between its graphs — an `Err` or a panic in the query
/// — never reaches `clear`; the session drops its executor either way.
impl Drop for TenantExecutor {
    fn drop(&mut self) {
        self.clear();
    }
}

impl MetaView for TenantExecutor {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.shared.enter()?.sim.meta(key)
    }
}

impl Executor for TenantExecutor {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        for st in &graph.subtasks {
            self.published.extend(st.published_outputs.iter().copied());
        }
        let graph = graph.clone();
        let mut c = self.shared.enter().ok_or_else(aborted)?;
        c.submit(self.tenant, self.query, graph);
        self.shared.wait(c, self.tenant, |t| &mut t.executed)?
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.shared.enter()?.sim.payload(key)
    }

    fn clear(&mut self) {
        let keys = std::mem::take(&mut self.published);
        if let Some(mut c) = self.shared.enter() {
            c.fetch_done(self.tenant, self.query, &keys);
        }
    }

    fn release(&mut self, keys: &[ChunkKey]) {
        if let Some(mut c) = self.shared.enter() {
            c.sim.release(keys);
        }
    }
}

/// The [`ResultCache`] sessions get: a lookup blocks until the
/// coordinator's next quiesce point (so cross-tenant cache races cannot
/// make hit counts timing-dependent); an insert is buffered and applied at
/// the next quiesce in tenant-id order.
struct CoordCache {
    tenant: u32,
    shared: Arc<Monitor>,
}

impl ResultCache for CoordCache {
    fn lookup(&mut self, key: u64) -> Option<Vec<Arc<Payload>>> {
        let mut c = self.shared.enter()?;
        c.lookup(self.tenant, key);
        self.shared.wait(c, self.tenant, |t| &mut t.hit).ok()?
    }

    fn insert(&mut self, key: u64, sources: &[u64], payloads: &[Arc<Payload>]) {
        if let Some(mut c) = self.shared.enter() {
            c.buffer_insert(self.tenant, key, sources, payloads);
        }
    }
}

// ---------------------------------------------------------------------------
// coordinator

/// What a driver is blocked on (its next pending coordinator action).
#[derive(Default)]
enum TState {
    /// Doing host-side work (tiling, gather, building the next query).
    #[default]
    Running,
    /// Blocked in a cache lookup; answered into [`Tenant::hit`] at the
    /// next quiesce.
    WaitLookup { key: u64 },
    /// Blocked in `execute`. `graph` is `Some` until the fetch is admitted
    /// and a [`GraphRun`] begun; the completed run's result goes into
    /// [`Tenant::executed`].
    WaitExec {
        query: u32,
        graph: Option<SubtaskGraph>,
    },
    /// Stream finished.
    Done,
}

/// Accumulated per-query serving record (admission wait + virtual latency
/// over the query's executed fetches; cache-hit queries never appear).
#[derive(Debug, Clone, Copy, Default)]
struct QueryRecord {
    wait: f64,
    latency: f64,
    queued: bool,
}

#[derive(Default)]
struct Tenant {
    weight: u32,
    state: TState,
    /// Answer slots: filled by the coordinator as it puts the tenant back
    /// to `Running`, emptied by the driver when it wakes.
    hit: Option<Option<Vec<Arc<Payload>>>>,
    executed: Option<XbResult<ExecStats>>,
    run: Option<GraphRun>,
    /// DRR subtask credit.
    deficit: f64,
    /// A fetch of this tenant has been admitted and not yet cleared.
    in_fetch: bool,
    /// Query index of the admitted fetch.
    fetch_query: u32,
    /// Virtual time the fetch's first graph arrived.
    fetch_arrival: f64,
    /// Admission-queue wait accumulated by the fetch.
    fetch_wait: f64,
    /// Latest virtual finish over the fetch's dispatched subtasks.
    fetch_last_finish: f64,
    /// Bytes reserved against the cluster budget while the fetch runs.
    reservation: usize,
    /// Waiting in the admission queue.
    queued: bool,
    records: HashMap<u32, QueryRecord>,
}

/// A buffered cache insert awaiting the next quiesce.
struct PendingInsert {
    tenant: u32,
    key: u64,
    sources: Vec<u64>,
    payloads: Vec<Arc<Payload>>,
}

struct Coordinator {
    sim: SimExecutor,
    tenants: Vec<Tenant>,
    cache: Option<LineageCache>,
    /// Buffered cache inserts, applied at quiesce in tenant-id order
    /// (stable sort keeps per-tenant arrival order).
    pending_inserts: Vec<PendingInsert>,
    /// FIFO of tenants waiting for admission.
    admission_queue: Vec<u32>,
    /// Cluster memory budget admission reserves against.
    budget: usize,
    /// Per-source-chunk byte estimate (the config's chunk size cap).
    est_unit: usize,
    queued_total: usize,
    wait_total: f64,
    /// Monotone DRR pass counter; rotates which tenant a pass starts at so
    /// low tenant ids hold no standing claim on the earliest virtual band.
    pass: u64,
    /// The tenant whose subtask is being stepped, for the error message
    /// should the step panic.
    stepping: Option<usize>,
    /// The service loop ended early (deadlock, panic): nothing answers a
    /// waiting driver any more.
    aborted: bool,
}

impl Coordinator {
    fn reserved(&self) -> usize {
        self.tenants.iter().map(|t| t.reservation).sum()
    }

    fn all_done(&self) -> bool {
        self.tenants.iter().all(|t| matches!(t.state, TState::Done))
    }

    /// Every unfinished driver is blocked waiting on the coordinator.
    fn quiesced(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| !matches!(t.state, TState::Running))
    }

    /// The driver of `tenant` blocks in `execute` on `graph`.
    fn submit(&mut self, tenant: u32, query: u32, graph: SubtaskGraph) {
        let graph = Some(graph);
        self.tenants[tenant as usize].state = TState::WaitExec { query, graph };
    }

    /// End of a fetch (`clear`, or the executor dropped mid-fetch): the
    /// query's chunks leave the simulator, its reservation the budget.
    fn fetch_done(&mut self, tenant: u32, query: u32, keys: &[ChunkKey]) {
        self.sim.forget_chunks(keys);
        let t = &mut self.tenants[tenant as usize];
        if t.in_fetch && t.fetch_query == query {
            let rec = t.records.entry(query).or_default();
            rec.latency += t.fetch_last_finish.max(t.fetch_arrival) - t.fetch_arrival;
            rec.wait += t.fetch_wait;
            self.wait_total += t.fetch_wait;
            t.in_fetch = false;
            t.reservation = 0;
            t.fetch_wait = 0.0;
        }
    }

    /// The driver of `tenant` blocks in a cache lookup of `key`.
    fn lookup(&mut self, tenant: u32, key: u64) {
        self.tenants[tenant as usize].state = TState::WaitLookup { key };
    }

    fn buffer_insert(&mut self, tenant: u32, key: u64, sources: &[u64], payloads: &[Arc<Payload>]) {
        self.pending_inserts.push(PendingInsert {
            tenant,
            key,
            sources: sources.to_vec(),
            payloads: payloads.to_vec(),
        });
    }

    fn tenant_done(&mut self, tenant: u32) {
        self.tenants[tenant as usize].state = TState::Done;
    }

    /// One quiesce-point service cycle. Returns whether anything advanced
    /// (nothing advancing while fully quiesced would be a deadlock).
    fn service_cycle(&mut self) -> bool {
        let mut progressed = false;

        // 1. apply buffered cache inserts in tenant-id order
        if !self.pending_inserts.is_empty() {
            let mut inserts = std::mem::take(&mut self.pending_inserts);
            inserts.sort_by_key(|ins| ins.tenant);
            if let Some(cache) = &mut self.cache {
                for ins in inserts {
                    cache.insert(ins.key, &ins.sources, &ins.payloads);
                }
            }
            progressed = true;
        }

        // 2. answer cache lookups in tenant-id order
        for i in 0..self.tenants.len() {
            if let TState::WaitLookup { key } = self.tenants[i].state {
                let hit = self.cache.as_mut().and_then(|c| c.lookup(key));
                self.tenants[i].hit = Some(hit);
                self.tenants[i].state = TState::Running;
                progressed = true;
            }
        }

        // 3. admission + run creation
        progressed |= self.admit();

        // 4. fair-share dispatch of all admitted runs
        progressed |= self.dispatch_round();
        progressed
    }

    /// Source-chunk working-set estimate of a fetch's first graph.
    fn estimate(&self, graph: &SubtaskGraph) -> usize {
        let sources = graph
            .chunks
            .nodes
            .iter()
            .filter(|n| n.op.is_source())
            .count();
        sources.max(1) * self.est_unit
    }

    /// Admits queued and newly arrived fetches (queue first, FIFO), then
    /// begins runs for every admitted blocked graph.
    fn admit(&mut self) -> bool {
        let mut progressed = false;

        // drain the FIFO head while it fits (or the cluster is idle)
        while let Some(&t) = self.admission_queue.first() {
            let ti = t as usize;
            let est = match &self.tenants[ti].state {
                TState::WaitExec { graph: Some(g), .. } => self.estimate(g),
                // driver died/errored while queued: drop from the queue
                _ => {
                    self.admission_queue.remove(0);
                    self.tenants[ti].queued = false;
                    continue;
                }
            };
            let reserved = self.reserved();
            if reserved > 0 && reserved + est > self.budget {
                break;
            }
            self.admission_queue.remove(0);
            let now = self.sim.virtual_now();
            let ten = &mut self.tenants[ti];
            ten.queued = false;
            ten.fetch_wait = now - ten.fetch_arrival;
            self.start_fetch(ti, est);
            progressed = true;
        }

        // new arrivals in tenant-id order
        for i in 0..self.tenants.len() {
            let ten = &self.tenants[i];
            if ten.run.is_some() || ten.queued {
                continue;
            }
            let TState::WaitExec {
                query,
                graph: Some(g),
            } = &ten.state
            else {
                continue;
            };
            let query = *query;
            if ten.in_fetch && ten.fetch_query == query {
                // later graph of an already admitted fetch
                self.begin_run(i);
                progressed = true;
                continue;
            }
            let est = self.estimate(g);
            let reserved = self.reserved();
            // the clock stands still between quiesce points: the graph
            // arrived at the virtual time it is first seen here
            let arrived = self.sim.virtual_now();
            let ten = &mut self.tenants[i];
            ten.in_fetch = false;
            ten.fetch_query = query;
            ten.fetch_arrival = arrived;
            ten.fetch_wait = 0.0;
            if reserved > 0 && reserved + est > self.budget {
                ten.queued = true;
                ten.records.entry(query).or_default().queued = true;
                self.queued_total += 1;
                self.admission_queue.push(i as u32);
            } else {
                self.start_fetch(i, est);
                progressed = true;
            }
        }
        progressed
    }

    /// Marks tenant `i`'s pending fetch admitted and begins its first run.
    fn start_fetch(&mut self, i: usize, reservation: usize) {
        let ten = &mut self.tenants[i];
        ten.in_fetch = true;
        ten.reservation = reservation;
        ten.fetch_last_finish = self.sim.virtual_now();
        self.begin_run(i);
    }

    /// Moves the blocked graph of tenant `i` into a live [`GraphRun`].
    fn begin_run(&mut self, i: usize) {
        let TState::WaitExec { graph, .. } = &mut self.tenants[i].state else {
            unreachable!("begin_run on a non-blocked tenant")
        };
        let graph = graph.take().expect("begin_run needs a pending graph");
        self.sim.set_tenant_track(Some(i as u32));
        let run = self.sim.begin_graph(graph);
        self.sim.set_tenant_track(None);
        self.tenants[i].run = Some(run);
    }

    /// Deficit round-robin over all live runs, one subtask per credit,
    /// until every run begun in this cycle has completed. Completions
    /// unblock their drivers immediately; newly submitted graphs wait for
    /// the next quiesce.
    fn dispatch_round(&mut self) -> bool {
        let mut progressed = false;
        let n = self.tenants.len();
        loop {
            // rotate the pass's start tenant (deterministically — the pass
            // counter only advances at quiesce points): with ties in
            // deficit, whoever steps first claims the earliest band, and a
            // fixed id order would hand that edge to tenant 0 every pass
            let start = (self.pass % n as u64) as usize;
            self.pass += 1;
            let active: Vec<usize> = (0..n)
                .map(|k| (start + k) % n)
                .filter(|&i| self.tenants[i].run.is_some())
                .collect();
            if active.is_empty() {
                break;
            }
            for i in active {
                let quantum = self.tenants[i].weight as f64;
                self.tenants[i].deficit += quantum;
                while self.tenants[i].deficit >= 1.0 && self.tenants[i].run.is_some() {
                    self.tenants[i].deficit -= 1.0;
                    progressed = true;
                    self.sim.set_tenant_track(Some(i as u32));
                    self.stepping = Some(i);
                    let stepped = self
                        .sim
                        .step_graph(self.tenants[i].run.as_mut().expect("run checked"));
                    self.stepping = None;
                    self.sim.set_tenant_track(None);
                    match stepped {
                        Ok(true) => {}
                        Ok(false) => self.finish_run(i, None),
                        Err(e) => self.finish_run(i, Some(e)),
                    }
                }
                if self.tenants[i].run.is_none() {
                    // empty credit carries no meaning without a backlog
                    self.tenants[i].deficit = 0.0;
                }
            }
        }
        progressed
    }

    /// Ends tenant `i`'s run (or aborts it with `err`) and unblocks the
    /// driver.
    fn finish_run(&mut self, i: usize, err: Option<XbError>) {
        let run = self.tenants[i].run.take().expect("finish_run needs a run");
        let result = match err {
            Some(e) => {
                drop(run);
                Err(e)
            }
            None => {
                let last_finish = run.last_finish();
                let ten = &mut self.tenants[i];
                ten.fetch_last_finish = ten.fetch_last_finish.max(last_finish);
                self.sim.end_graph(run)
            }
        };
        let ten = &mut self.tenants[i];
        debug_assert!(matches!(ten.state, TState::WaitExec { .. }));
        ten.state = TState::Running;
        ten.executed = Some(result);
    }

    /// Every tenant chunk freed, per-worker live bytes zero and allocation
    /// refcounts balanced.
    fn ledger_drained(&self) -> bool {
        self.sim.ledger_balanced()
            && self.sim.live_worker_bytes().iter().all(|&b| b == 0)
            && self.sim.chunk_placements().is_empty()
    }
}

/// What a poisoned lock means to the coordinator's own thread: only a
/// driver can have panicked while holding it.
fn driver_poisoned<T>(_: PoisonError<T>) -> XbError {
    XbError::Plan("a tenant driver panicked inside a coordinator call".into())
}

impl Monitor {
    /// The coordinator's loop, on the thread that called `run`: sleep until
    /// the run is quiesced, run one service cycle, wake the drivers. However
    /// it ends early — a deadlock, a panic under `step_graph` — the run is
    /// marked aborted and every sleeping driver woken before this returns.
    fn serve(&self) -> XbResult<()> {
        let served = catch_unwind(AssertUnwindSafe(|| {
            let mut c = self.coord.lock().map_err(driver_poisoned)?;
            loop {
                let busy = |c: &mut Coordinator| !c.quiesced();
                c = self.changed.wait_while(c, busy).map_err(driver_poisoned)?;
                if c.all_done() {
                    return Ok(());
                }
                if !c.service_cycle() {
                    return Err(XbError::Plan(
                        "serving deadlock: all tenants blocked with nothing to do".into(),
                    ));
                }
                self.changed.notify_all();
            }
        }));
        // this thread's own panic poisons the lock; the fields read and
        // written here are whole whatever `step_graph` left half-done
        let mut c = self.coord.lock().unwrap_or_else(PoisonError::into_inner);
        let err = match served {
            Ok(Ok(())) => return Ok(()),
            Ok(Err(e)) => e,
            Err(panic) => {
                let whose = c.stepping.map_or(String::new(), |i| {
                    format!(" running tenant {i} query {}", c.tenants[i].fetch_query)
                });
                let what = panic_message(panic);
                XbError::Plan(format!("serving coordinator panicked{whose}: {what}"))
            }
        };
        c.aborted = true;
        self.changed.notify_all();
        Err(err)
    }
}

// ---------------------------------------------------------------------------
// public runtime

/// Per-tenant, per-query outputs of one serving run plus the aggregate
/// statistics.
pub struct ServingOutcome {
    /// Result frames, `results[tenant][query]`.
    pub results: Vec<Vec<DataFrame>>,
    /// Whether each query was answered entirely from the result cache
    /// (every fetch hit; no subtask executed).
    pub cache_hits: Vec<Vec<bool>>,
    /// Virtual end-to-end latency of each query (admission wait included;
    /// 0 for fully cached queries).
    pub latencies: Vec<Vec<f64>>,
    /// Virtual admission-queue wait of each query.
    pub waits: Vec<Vec<f64>>,
    /// Aggregate serving statistics ([`ServingStats::tenants`] slowdowns
    /// are 0 — only a solo-baseline caller can compute them).
    pub stats: ServingStats,
    /// Result-cache counters (zeros when the cache was off).
    pub cache: CacheStats,
    /// The execution ledger drained on shutdown: every tenant chunk freed,
    /// per-worker live bytes zero, and allocation refcounts balanced.
    pub ledger_drained: bool,
}

/// The serving runtime: builds the shared virtual cluster, spawns one
/// driver thread per tenant and coordinates them deterministically.
pub struct ServingRuntime {
    spec: ClusterSpec,
    cfg: XorbitsConfig,
    cache_bytes: usize,
}

impl ServingRuntime {
    /// A runtime over the given cluster and tiling configuration, result
    /// cache off.
    pub fn new(spec: ClusterSpec, cfg: XorbitsConfig) -> ServingRuntime {
        ServingRuntime {
            spec,
            cfg,
            cache_bytes: 0,
        }
    }

    /// Enables the lineage-keyed result cache with this byte budget
    /// (0 keeps it off).
    pub fn with_cache_bytes(mut self, bytes: usize) -> ServingRuntime {
        self.cache_bytes = bytes;
        self
    }

    /// Runs every tenant's query stream to completion and returns results
    /// plus statistics. Deterministic: same spec/config/streams ⇒
    /// bit-identical results and identical statistics. A query that
    /// errors or panics ends its tenant's stream only: the other tenants
    /// run to the end, then the run fails naming the tenant and the query.
    pub fn run(&self, streams: Vec<TenantStream>) -> XbResult<ServingOutcome> {
        if streams.is_empty() {
            return Err(XbError::Plan("serving needs at least one tenant".into()));
        }
        let tenant = |s: &TenantStream| Tenant {
            weight: s.weight.max(1),
            ..Tenant::default()
        };
        let coord = Coordinator {
            sim: SimExecutor::new(self.spec.clone()),
            tenants: streams.iter().map(tenant).collect(),
            cache: (self.cache_bytes > 0).then(|| LineageCache::new(self.cache_bytes)),
            pending_inserts: Vec::new(),
            admission_queue: Vec::new(),
            budget: self.spec.workers * self.spec.worker_memory_bytes,
            est_unit: self.cfg.chunk_limit_bytes,
            queued_total: 0,
            wait_total: 0.0,
            pass: 0,
            stepping: None,
            aborted: false,
        };
        let shared = Arc::new(Monitor {
            coord: Mutex::new(coord),
            changed: Condvar::new(),
        });
        let cache_on = self.cache_bytes > 0;
        // the logs live out here so that what a tenant finished survives a
        // panic of its driver
        let mut logs: Vec<DriverLog> = streams.iter().map(|_| DriverLog::default()).collect();
        let (served, panics) = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .into_iter()
                .zip(&mut logs)
                .enumerate()
                .map(|(t, (stream, log))| {
                    let (cfg, shared) = (self.cfg.clone(), Arc::clone(&shared));
                    scope.spawn(move || drive_tenant(t as u32, stream, cfg, shared, cache_on, log))
                })
                .collect();
            let served = shared.serve();
            let panics: Vec<Option<String>> = handles
                .into_iter()
                .map(|h| h.join().err().map(panic_message))
                .collect();
            (served, panics)
        });
        served?;
        let coord = shared.coord.lock().map_err(driver_poisoned)?;
        let mut tenants = logs.iter().zip(panics).enumerate();
        let failure = tenants.find_map(|(t, (log, panic))| {
            let what = match panic {
                Some(panic) => format!("panicked: {panic}"),
                None => format!("failed: {}", log.error.as_ref()?),
            };
            // queries run in order: the first without a result is the culprit
            Some(format!("tenant {t} query {} {what}", log.results.len()))
        });
        if let Some(mut failure) = failure {
            if !coord.ledger_drained() {
                failure.push_str("; the execution ledger did not drain");
            }
            return Err(XbError::Plan(failure));
        }
        Ok(self.outcome(&coord, logs))
    }

    fn outcome(&self, coord: &Coordinator, logs: Vec<DriverLog>) -> ServingOutcome {
        let cache = coord.cache.as_ref().map(|c| c.stats()).unwrap_or_default();
        let mut results = Vec::with_capacity(logs.len());
        let mut hits = Vec::with_capacity(logs.len());
        let mut latencies = Vec::with_capacity(logs.len());
        let mut waits = Vec::with_capacity(logs.len());
        let mut tenants = Vec::with_capacity(logs.len());
        for (t, log) in logs.into_iter().enumerate() {
            let ten = &coord.tenants[t];
            let nq = log.results.len();
            let mut lat = Vec::with_capacity(nq);
            let mut wat = Vec::with_capacity(nq);
            for q in 0..nq {
                let rec = ten.records.get(&(q as u32)).copied().unwrap_or_default();
                lat.push(rec.wait + rec.latency);
                wat.push(rec.wait);
            }
            let cache_hits = log.hits.iter().filter(|&&h| h).count();
            tenants.push(TenantServingStats {
                tenant: t as u32,
                weight: ten.weight,
                queries: nq,
                cache_hits,
                mean_latency: mean(&lat),
                p50_latency: percentile(&lat, 50.0),
                p99_latency: percentile(&lat, 99.0),
                admission_wait: wat.iter().sum(),
                slowdown: 0.0,
            });
            results.push(log.results);
            hits.push(log.hits);
            latencies.push(lat);
            waits.push(wat);
        }
        let ledger_drained = coord.ledger_drained();
        let stats = ServingStats {
            tenants,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_invalidations: cache.invalidations,
            admission_queued: coord.queued_total,
            admission_wait: coord.wait_total,
            makespan: coord.sim.virtual_now(),
        };
        ServingOutcome {
            results,
            cache_hits: hits,
            latencies,
            waits,
            stats,
            cache,
            ledger_drained,
        }
    }
}

#[derive(Default)]
struct DriverLog {
    results: Vec<DataFrame>,
    hits: Vec<bool>,
    error: Option<XbError>,
}

/// Marks a tenant `Done` when its driver goes out of scope — also when a
/// query panicked and the driver is unwinding. Without it the coordinator
/// would wait for that tenant to block forever.
struct DoneOnDrop {
    tenant: u32,
    shared: Arc<Monitor>,
}

impl Drop for DoneOnDrop {
    fn drop(&mut self) {
        if let Some(mut c) = self.shared.enter() {
            c.tenant_done(self.tenant);
        }
        // whatever the lock's state: this is also how a sleeping
        // coordinator finds out that a driver poisoned it
        self.shared.changed.notify_all();
    }
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "(non-string panic payload)".into())
}

fn drive_tenant(
    tenant: u32,
    stream: TenantStream,
    cfg: XorbitsConfig,
    shared: Arc<Monitor>,
    cache_on: bool,
    log: &mut DriverLog,
) {
    // declared first, dropped last: nothing of this tenant follows it
    let _done = DoneOnDrop {
        tenant,
        shared: Arc::clone(&shared),
    };
    for (qi, query) in stream.queries.into_iter().enumerate() {
        let executor = TenantExecutor {
            tenant,
            query: qi as u32,
            shared: Arc::clone(&shared),
            published: Vec::new(),
        };
        let session =
            Session::with_key_base(cfg.clone(), executor, tenant_key_base(tenant, qi as u32));
        if cache_on {
            session.set_result_cache(Arc::new(Mutex::new(CoordCache {
                tenant,
                shared: Arc::clone(&shared),
            })));
        }
        match query(&session) {
            Ok(df) => {
                // fully cached ⇔ the whole query executed zero subtasks
                log.hits.push(session.total_stats().subtasks == 0);
                log.results.push(df);
            }
            Err(e) => {
                log.error = Some(e);
                break;
            }
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Nearest-rank percentile over a copy of `xs` (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}
