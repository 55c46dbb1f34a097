//! The virtual-time cluster executor.
//!
//! Subtasks run *for real* on the host (real chunk data through the real
//! kernels, CPU time measured per subtask); placement, queueing, network
//! transfer, memory pressure and spilling are simulated deterministically
//! on top of those measurements. Makespan — the number every benchmark
//! reports — is the virtual completion time across all bands.
//!
//! This file is the event core: the virtual clock (per-band free times,
//! the central dispatcher, the dispatch-step counter), the resumable
//! [`GraphRun`], the lineage replay loop and all trace emission. What to
//! decide at each event belongs to four sibling parts, each owning its own
//! state and knowing nothing of the others — the core carries values
//! between them:
//!
//! * [`crate::placement`] — which band a dispatch runs on (§V-B:
//!   breadth-first sources, locality-aware successors);
//! * [`crate::ledger`] — per-worker retained-bytes accounting and which
//!   chunks are evicted under pressure (§V-C);
//! * [`crate::chunks`] — the chunk table: payloads, placement, tiers, when
//!   a wire size is measured and what moving a chunk costs;
//! * [`crate::recovery`] — fault schedule state, lineage, and the minimal
//!   replay closure.
//!
//! A fused subtask charges, besides its published outputs, its *transient
//! working set* — the peak of its internal intermediates — because fusion
//! saves storage traffic, not the memory the computation itself needs.

use crate::chunks::{Chunks, InputCost, ReadBack};
use crate::cluster::ClusterSpec;
use crate::fault::FaultKind;
use crate::ledger::{Charged, Ledger};
use crate::placement::{self, Bands, Placement};
use crate::recovery::Recovery;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use xorbits_core::chunk::{ChunkKey, ChunkMeta, Payload};
use xorbits_core::error::{PendingSubtask, XbError, XbResult};
use xorbits_core::exec;
use xorbits_core::retile::{RetileMode, RetileRun};
use xorbits_core::session::{ExecStats, Executor};
use xorbits_core::subtask::SubtaskGraph;
use xorbits_core::tiling::MetaView;
use xorbits_core::trace::{self, Stage, Track};

/// The simulator (implements [`Executor`]).
pub struct SimExecutor {
    spec: ClusterSpec,
    /// Virtual time each band is free from.
    band_free: Vec<f64>,
    /// Virtual time of the central scheduler thread (when enabled).
    sched_clock: f64,
    /// Subtasks dispatched since the last `clear()` — the deterministic
    /// logical clock [`crate::fault::FaultTrigger::Step`] fires on.
    dispatch_step: u64,
    placement: Placement,
    ledger: Ledger,
    chunks: Chunks,
    recovery: Recovery,
    /// When set, every dispatched subtask also appears on the tenant's
    /// trace lane ([`Track::tenant`]) — the serving coordinator points this
    /// at whichever tenant owns the subtask it is about to dispatch.
    tenant_track: Option<u32>,
}

/// An in-flight subtask graph: the resumable state of one [`Executor::
/// execute`] call. `execute` itself is begin → step-to-completion → end;
/// the serving coordinator instead holds one `GraphRun` per tenant and
/// interleaves [`SimExecutor::step_graph`] calls across them in fair-share
/// order, so tenants share the virtual bands at subtask granularity.
pub struct GraphRun {
    graph: SubtaskGraph,
    /// Next subtask index to dispatch.
    next: usize,
    /// Virtual submission time.
    t0: f64,
    /// What [`SimExecutor::end_graph`] reports. Every counter is bumped
    /// where it happens, on the run whose dispatch caused it (under
    /// multi-tenant interleaving, executor-wide deltas would charge one run
    /// for every tenant's traffic); makespan and peak are filled at the end.
    stats: ExecStats,
    /// Latest virtual finish time over this run's dispatched subtasks.
    last_finish: f64,
    /// Last consuming subtask per key within this graph.
    last_consumer: HashMap<ChunkKey, usize>,
    /// Mid-run re-tiling state; `None` when the spec's mode is off.
    retile: Option<RetileRun>,
}

impl GraphRun {
    /// True once every subtask has been dispatched.
    pub fn is_done(&self) -> bool {
        self.next >= self.graph.subtasks.len()
    }

    /// Latest virtual finish time over this run's dispatched subtasks
    /// (equals the submission time until something runs).
    pub fn last_finish(&self) -> f64 {
        self.last_finish
    }
}

impl SimExecutor {
    /// Creates an executor over a virtual cluster.
    pub fn new(spec: ClusterSpec) -> SimExecutor {
        SimExecutor {
            band_free: vec![0.0; spec.n_bands()],
            sched_clock: 0.0,
            dispatch_step: 0,
            placement: Placement::default(),
            ledger: Ledger::new(spec.workers, spec.worker_memory_bytes, spec.spill_enabled),
            chunks: Chunks::new(spec.encoding),
            recovery: Recovery::new(spec.n_bands(), spec.fault_plan.clone()),
            tenant_track: None,
            spec,
        }
    }

    /// Points subsequent dispatches at a tenant's trace lane (`None` turns
    /// the extra lane off). Purely observational — scheduling is unchanged.
    pub fn set_tenant_track(&mut self, tenant: Option<u32>) {
        self.tenant_track = tenant;
    }

    /// Current virtual frontier (max band-free time).
    pub fn virtual_now(&self) -> f64 {
        self.band_free.iter().copied().fold(0.0, f64::max)
    }

    /// Current live bytes per worker (test introspection).
    pub fn live_worker_bytes(&self) -> &[usize] {
        self.ledger.live()
    }

    /// First output key of every lineage node replayed so far this fetch,
    /// in replay order (test introspection).
    pub fn recovery_log(&self) -> &[ChunkKey] {
        &self.recovery.log
    }

    /// `(key, worker, resident, spilled)` for every chunk the simulator
    /// tracks, sorted by key (test introspection).
    pub fn chunk_placements(&self) -> Vec<(ChunkKey, usize, bool, bool)> {
        self.chunks.placements(&self.spec)
    }

    /// Checks the memory-ledger invariant: the ledger and the chunk table
    /// agree on what is resident where, on every worker the refcount of
    /// each allocation equals the number of resident chunks referencing
    /// it, and live bytes equal the sum of distinct referenced allocation
    /// sizes. Recovery must keep this exact even as chunks vanish and
    /// reappear mid-flight.
    pub fn ledger_balanced(&self) -> bool {
        self.ledger.balanced(&self.chunks.resident(&self.spec))
    }

    /// Virtual start of a dispatch whose band and inputs are ready at
    /// `ready`. With a central scheduler, one supervisor/driver thread
    /// works through dispatches back-to-back from submission: task k cannot
    /// start before its dispatch slot (k × overhead into the graph) nor
    /// before `ready` — large graphs queue on the dispatcher, chains do not.
    fn dispatch_start(&mut self, ready: f64) -> f64 {
        if self.spec.central_scheduler {
            self.sched_clock += self.spec.sched_overhead;
            ready.max(self.sched_clock)
        } else {
            ready + self.spec.sched_overhead
        }
    }

    /// Where lineage recomputation (and end-of-graph read-back) runs.
    fn recovery_band(&self) -> XbResult<usize> {
        let bands = bands(&self.spec, &self.recovery, &self.band_free, &self.ledger);
        placement::recovery_band(&bands)
    }

    /// Moves the chunks a ledger charge evicted to the disk tier, then
    /// reports whether the charge fit.
    fn settle(&mut self, charged: Charged, stats: &mut ExecStats) -> XbResult<()> {
        for k in charged.evicted {
            let Some((bytes, band)) = self.chunks.spill(k, stats) else {
                continue;
            };
            if trace::is_enabled() {
                let args = [
                    ("chunk", k),
                    ("bytes", bytes as u64),
                    ("worker", self.spec.worker_of(band) as u64),
                ];
                let now = self.virtual_now();
                trace::instant_at(Stage::Spill, "spill", Track::band(band), now, &args);
            }
        }
        charged.fits
    }

    /// Charges `keys` as the inputs of a dispatch on `worker`; read-backs
    /// are traced on `read_on` (lineage replay) or, without one, on the
    /// band that produced the chunk.
    fn charge_inputs(
        &mut self,
        keys: &[ChunkKey],
        worker: usize,
        read_on: Option<usize>,
        stats: &mut ExecStats,
    ) -> XbResult<InputCost> {
        let cost = self.chunks.charge_inputs(keys, worker, &self.spec, stats)?;
        if trace::is_enabled() {
            for rb in &cost.read_backs {
                trace_read_back(rb, read_on.unwrap_or(rb.band), rb.at);
            }
        }
        Ok(cost)
    }

    /// Places one published chunk on `band` at virtual time `finish` and
    /// charges its retained footprint to the worker's ledger.
    fn publish_chunk(
        &mut self,
        key: ChunkKey,
        payload: Arc<Payload>,
        band: usize,
        finish: f64,
        republish: bool,
        stats: &mut ExecStats,
    ) -> XbResult<()> {
        let worker = self.spec.worker_of(band);
        let charged = self.ledger.admit(worker, key, finish, &payload);
        self.chunks.publish(key, payload, band, finish, republish);
        self.settle(charged, stats)
    }

    /// Reclaims one chunk's memory (and its real payload).
    fn free_chunk(&mut self, key: ChunkKey) {
        self.chunks.free(key);
        self.ledger.release(key);
    }

    // ---- fault injection + lineage recovery --------------------------------

    /// Destroys one resident chunk: the payload vanishes and the ledger
    /// releases its allocations. Lineage (and any surviving spilled copy)
    /// is what recovery uses.
    fn lose_chunk(&mut self, key: ChunkKey) {
        let Some(band) = self.chunks.lose(key) else {
            return;
        };
        self.ledger.release(key);
        self.recovery.lost.insert(key);
        if trace::is_enabled() {
            let args = [("chunk", key), ("worker", self.spec.worker_of(band) as u64)];
            let now = self.virtual_now();
            trace::instant_at(Stage::Fault, "chunk_lost", Track::band(band), now, &args);
            trace::counter_add("fault.chunks_lost", 1);
        }
    }

    fn fire_fault(&mut self, kind: FaultKind) {
        let (now, step) = (self.virtual_now(), self.dispatch_step);
        match kind {
            FaultKind::WorkerCrash { worker } if worker < self.spec.workers => {
                let base = worker * self.spec.bands_per_worker;
                self.recovery.band_dead[base..base + self.spec.bands_per_worker].fill(true);
                if trace::is_enabled() {
                    let args = [("worker", worker as u64), ("step", step)];
                    trace::instant_at(Stage::Fault, "worker_crash", Track::band(base), now, &args);
                    trace::counter_add("fault.worker_crashes", 1);
                }
                // resident chunks die with the worker's memory; spilled
                // ones survive on the disk tier as the fast recovery path
                for k in self.chunks.crash_worker(worker, &self.spec) {
                    self.lose_chunk(k);
                }
            }
            // an execution slot dies; the worker's memory survives
            FaultKind::BandCrash { band } if band < self.band_free.len() => {
                self.recovery.band_dead[band] = true;
                if trace::is_enabled() {
                    let args = [("band", band as u64), ("step", step)];
                    trace::instant_at(Stage::Fault, "band_crash", Track::band(band), now, &args);
                    trace::counter_add("fault.band_crashes", 1);
                }
            }
            FaultKind::ChunkLoss { fraction } => {
                let resident = self.chunks.resident(&self.spec);
                let keys = resident.into_iter().map(|(k, _)| k).collect();
                let victims = self.recovery.sample_victims(keys, fraction);
                if trace::is_enabled() && !victims.is_empty() {
                    let args = [("victims", victims.len() as u64), ("step", step)];
                    trace::instant_at(Stage::Fault, "chunk_loss", Track::band(0), now, &args);
                }
                for k in victims {
                    self.lose_chunk(k);
                }
            }
            // a crash aimed outside the cluster hits nothing
            FaultKind::WorkerCrash { .. } | FaultKind::BandCrash { .. } => {}
        }
    }

    /// Lineage-based recovery: makes every key of `targets` readable again
    /// by replaying the minimal ancestor closure in production order on
    /// one surviving band, paying scheduling, transfer, disk and *measured*
    /// kernel and codec costs in virtual time. Chunks that were published
    /// before being lost are republished (and recharged to the ledger); purely
    /// internal ancestors stay scratch-only. No-op without targets.
    fn recover(&mut self, targets: &[ChunkKey], stats: &mut ExecStats) -> XbResult<()> {
        if targets.is_empty() {
            return Ok(());
        }
        let chunks = &self.chunks;
        let nodes = self.recovery.closure(targets, &|k| chunks.readable(k))?;
        let band = self.recovery_band()?;
        let worker = self.spec.worker_of(band);
        let mut clock = self.band_free[band];
        let mut scratch: HashMap<ChunkKey, Arc<Payload>> = HashMap::new();
        let mut transient_bytes = 0usize;
        let want: HashSet<ChunkKey> = targets.iter().copied().collect();

        // seq is topological
        for rec in &nodes {
            let stored: Vec<ChunkKey> = rec
                .node
                .inputs
                .iter()
                .copied()
                .filter(|k| !scratch.contains_key(k))
                .collect();
            let cost = self.charge_inputs(&stored, worker, Some(band), stats)?;

            // republish only what the fault destroyed (or what the caller
            // demands): ancestors that already had their last read —
            // refcount-freed or fused-internal — stay scratch, so recovery
            // never resurrects memory nobody will read
            let timer = Instant::now();
            let mut io = self.chunks.io();
            let lost = &self.recovery.lost;
            let publishes = |k| lost.contains(&k) || want.contains(&k);
            let out_bytes = exec::run_node(&rec.node, &mut scratch, publishes, &mut io)?;
            let published = io.published;
            let measured = timer.elapsed().as_secs_f64();
            stats.real_cpu_seconds += measured;

            let published_bytes: usize = published.iter().map(|(_, p)| p.nbytes()).sum();
            transient_bytes += out_bytes - published_bytes;

            // recompute dispatches pay the scheduler like any other subtask
            let start = self.dispatch_start(clock.max(cost.arrival));
            clock = start + cost.io_seconds(&self.spec, published_bytes) + measured;
            if trace::is_enabled() {
                trace::span_at(
                    Stage::Recovery,
                    format!("recompute {}", rec.node.op.name()),
                    Track::band(band),
                    start,
                    clock - start,
                    &[("seq", rec.seq), ("worker", worker as u64)],
                );
            }

            for (key, payload) in published {
                // later replay nodes read it like any other replayed output
                scratch.insert(key, Arc::clone(&payload));
                self.publish_chunk(key, payload, band, clock, true, stats)?;
            }
            stats.recomputed_subtasks += 1;
            self.recovery.replayed(&rec.node);
        }
        self.band_free[band] = clock;

        // unpublished scratch was the recompute's transient working set
        let charged = self.ledger.transient(worker, transient_bytes);
        self.settle(charged, stats)
    }

    /// Admits a subtask graph for stepwise execution. The returned
    /// [`GraphRun`] owns the graph; drive it with [`Self::step_graph`] and
    /// settle it with [`Self::end_graph`]. Multiple runs may be in flight
    /// at once (the serving coordinator interleaves them); a lone run
    /// stepped to completion behaves exactly like [`Executor::execute`].
    pub fn begin_graph(&mut self, graph: SubtaskGraph) -> GraphRun {
        let t0 = self.virtual_now();
        if trace::is_enabled() {
            // one Chrome thread per band under the virtual-cluster process
            for b in 0..self.spec.n_bands() {
                let w = self.spec.worker_of(b);
                trace::name_track(
                    Track::band(b),
                    format!("worker {w} band {}", b - w * self.spec.bands_per_worker),
                );
            }
            if let Some(t) = self.tenant_track {
                trace::name_track(Track::tenant(t), format!("tenant {t}"));
            }
        }
        // the dispatcher starts working through this graph at submission
        self.sched_clock = self.sched_clock.max(t0);
        // lineage is kept per fetch, shared across its partial executions
        if self.recovery.on() {
            self.recovery.record_lineage(&graph.chunks);
        }
        GraphRun {
            next: 0,
            t0,
            stats: ExecStats::default(),
            last_finish: t0,
            last_consumer: last_consumers(&graph),
            retile: (self.spec.retile == RetileMode::Auto)
                .then(|| RetileRun::for_graph(&graph.chunks)),
            graph,
        }
    }

    /// Attempts a skew-aware re-tile splice at the run's dispatch head
    /// (dynamic tiling v2): when the head is a shuffle wave whose harvested
    /// byte histogram the planner finds skewed, its hot partitions are
    /// split and the pending tail of the graph is rewritten in place. All
    /// index-derived bookkeeping (lineage, last-consumer refcounts) is
    /// refreshed after a splice.
    fn maybe_retile_run(&mut self, run: &mut GraphRun) {
        let Some(retile) = run.retile.as_mut() else {
            return;
        };
        let chunks = &self.chunks;
        // virtual time the last harvested piece was published: the
        // histogram the plan is made from does not exist before it
        let harvested_at = Cell::new(0.0_f64);
        let size_of = |k| {
            let (nbytes, finish) = chunks.size_and_finish(k)?;
            harvested_at.set(harvested_at.get().max(finish));
            Some(nbytes as u64)
        };
        let Some(out) = retile.maybe_retile(&mut run.graph, run.next, &size_of) else {
            return;
        };
        run.stats.retiled_partitions += out.splits;
        // the dispatcher plans the splice, then dispatches it: no spliced
        // subtask gets a dispatch slot from before its histogram existed
        // (without a central scheduler a dispatch already waits on its inputs)
        self.sched_clock = self.sched_clock.max(harvested_at.get());

        // the splice rewrote the pending tail: refresh everything derived
        // from node or subtask indices. Lineage records for the whole
        // graph are re-registered with fresh (still topological) seqs so
        // recovery replays the spliced shape, not the pre-splice one.
        if self.recovery.on() {
            self.recovery.record_lineage(&run.graph.chunks);
        }
        run.last_consumer = last_consumers(&run.graph);
        if trace::is_enabled() {
            trace::instant_at(
                Stage::Retile,
                "retile",
                Track::band(0),
                self.virtual_now(),
                &[
                    ("partitions", out.partitions as u64),
                    ("splits", out.splits as u64),
                ],
            );
        }
    }

    /// Dispatches the run's next subtask; returns `Ok(true)` while more
    /// remain. One call = one dispatch on the virtual cluster, so a
    /// coordinator interleaving several runs shares the bands at subtask
    /// granularity.
    pub fn step_graph(&mut self, run: &mut GraphRun) -> XbResult<bool> {
        if run.is_done() {
            return Ok(false);
        }
        // skew-aware re-tiling happens at the quiesce point right before a
        // shuffle wave's first reduce-side dispatch: every map-side partial
        // has been produced, so the wave's partition histogram is complete
        self.maybe_retile_run(run);
        let si = run.next;
        run.stats.subtasks += 1;
        if self.recovery.on() {
            for kind in self.recovery.take_due(self.dispatch_step) {
                self.fire_fault(kind);
            }
            // lineage recovery: rematerialise lost inputs before
            // placement so locality sees the recovered chunks
            let missing = self.chunks.missing(&run.graph.subtasks[si].external_inputs);
            self.recover(&missing, &mut run.stats)?;
        }
        let inputs = &run.graph.subtasks[si].external_inputs;
        self.dispatch_step += 1;
        let home = self.chunks.largest_band(inputs);
        let bands = bands(&self.spec, &self.recovery, &self.band_free, &self.ledger);
        let band = self.placement.pick(&bands, inputs.is_empty(), home)?;
        let worker = self.spec.worker_of(band);
        let cost = self.charge_inputs(inputs, worker, None, &mut run.stats)?;

        // real execution, measured; its peak transient working set is
        // charged below
        let timer = Instant::now();
        let mut io = self.chunks.io();
        let peak_extra = exec::run_subtask(&run.graph, si, &mut io)?;
        let produced = io.published;
        let measured = timer.elapsed().as_secs_f64();
        run.stats.real_cpu_seconds += measured;

        // transient fault injection; the kernel itself ran once above
        let (failures, attempt_overhead) = self
            .recovery
            .draw_attempts(self.spec.retry, measured)
            .map_err(|attempts| XbError::Fault {
            subtask: si,
            attempts,
        })?;
        run.stats.retries += failures;

        // virtual bookkeeping
        let published_bytes: usize = produced.iter().map(|(_, p)| p.nbytes()).sum();
        let start = self.dispatch_start(self.band_free[band].max(cost.arrival));
        let finish =
            start + cost.io_seconds(&self.spec, published_bytes) + measured + attempt_overhead;
        self.band_free[band] = finish;
        run.last_finish = run.last_finish.max(finish);
        if trace::is_enabled() {
            self.trace_dispatch(run, band, start, finish, failures);
        }

        // the transient working set is held only while the subtask runs
        let charged = self.ledger.transient(worker, peak_extra);
        self.settle(charged, &mut run.stats)?;
        for (key, payload) in produced {
            self.publish_chunk(key, payload, band, finish, false, &mut run.stats)?;
        }
        if trace::is_enabled() {
            trace::counter_at(
                format!("worker {worker} live_bytes"),
                Track::band(band),
                finish,
                self.ledger.live()[worker] as f64,
            );
        }

        // refcount release: anything whose last consumer just ran and
        // which the plan does not retain is reclaimed
        let released: Vec<ChunkKey> = run
            .last_consumer
            .iter()
            .filter(|(k, &last)| last == si && !run.graph.retained.contains(*k))
            .map(|(k, _)| *k)
            .collect();
        for k in released {
            self.free_chunk(k);
        }
        run.next += 1;

        // a run past its deadline fails *at* the straggling subtask,
        // carrying the not-yet-dispatched work and its missing inputs
        if let Some(deadline) = self.spec.deadline_seconds {
            let now = self.virtual_now();
            if now > deadline {
                return Err(XbError::Hang {
                    makespan: now,
                    deadline,
                    pending: self.pending_after(&run.graph, si),
                });
            }
        }
        Ok(!run.is_done())
    }

    /// The dispatch of `run`'s next subtask as trace events: its span on
    /// the band (mirrored on the tenant's lane so Chrome renders per-tenant
    /// occupancy alongside) and any retries.
    fn trace_dispatch(
        &self,
        run: &GraphRun,
        band: usize,
        start: f64,
        finish: f64,
        failures: usize,
    ) {
        let si = run.next as u64;
        let name = run.graph.subtask_label(run.next);
        if let Some(t) = self.tenant_track {
            trace::span_at(
                Stage::Execute,
                name.clone(),
                Track::tenant(t),
                start,
                finish - start,
                &[("subtask", si), ("band", band as u64)],
            );
        }
        trace::span_at(
            Stage::Execute,
            name,
            Track::band(band),
            start,
            finish - start,
            &[
                ("subtask", si),
                ("worker", self.spec.worker_of(band) as u64),
                ("step", self.dispatch_step),
            ],
        );
        if failures > 0 {
            let args = [("subtask", si), ("attempts", failures as u64)];
            trace::instant_at(
                Stage::Retry,
                "transient_retries",
                Track::band(band),
                start,
                &args,
            );
        }
    }

    /// Settles a fully-stepped run: frees orphaned outputs, recovers
    /// fault-lost retained chunks, enforces the deadline and returns the
    /// run's statistics (bit-identical to what the one-shot
    /// [`Executor::execute`] path reports).
    pub fn end_graph(&mut self, mut run: GraphRun) -> XbResult<ExecStats> {
        debug_assert!(run.is_done(), "end_graph on a run with subtasks pending");

        // published-but-never-consumed, unretained chunks die with the graph
        let orphans: Vec<ChunkKey> = run
            .graph
            .subtasks
            .iter()
            .flat_map(|st| st.published_outputs.iter().copied())
            .filter(|k| !run.last_consumer.contains_key(k) && !run.graph.retained.contains(k))
            .collect();
        for k in orphans {
            self.free_chunk(k);
        }

        if self.recovery.on() {
            // retained keys must outlive this graph (future tiling or the
            // final gather reads them): rematerialise any that a fault
            // destroyed after their producing subtask ran
            let retained = &run.graph.retained;
            let mut lost: Vec<ChunkKey> = (retained & &self.recovery.lost).into_iter().collect();
            lost.sort_unstable();
            self.recover(&lost, &mut run.stats)?;
            // retained chunks whose memory copy died with a crashed worker
            // but whose spilled copy survived: the gather reads them off
            // the disk tier — pay the read-back now, on a surviving band
            let read_backs = self.chunks.read_back_orphans(retained, &mut run.stats);
            if !read_backs.is_empty() {
                let band = self.recovery_band()?;
                let at = self.band_free[band];
                for rb in &read_backs {
                    self.band_free[band] += rb.bytes as f64 / self.spec.disk_bandwidth;
                    if trace::is_enabled() {
                        trace_read_back(rb, band, at);
                    }
                }
            }
        }

        let makespan_total = self.virtual_now();
        if let Some(deadline) = self.spec.deadline_seconds {
            if makespan_total > deadline {
                return Err(XbError::Hang {
                    makespan: makespan_total,
                    deadline,
                    pending: Vec::new(),
                });
            }
        }
        Ok(ExecStats {
            makespan: makespan_total - run.t0,
            peak_worker_bytes: self.ledger.peak(),
            ..run.stats
        })
    }

    /// Erases all record of `keys`: frees their memory, then drops their
    /// states, metas and arrival cache entries. Unlike [`Executor::
    /// release`] (which keeps states so late readers still see arrival
    /// times), this makes the keys reusable — the serving runtime calls it
    /// when a tenant's fetch retires so recycled key ranges never alias
    /// stale placement data.
    pub fn forget_chunks(&mut self, keys: &[ChunkKey]) {
        for k in keys {
            self.ledger.release(*k);
            self.recovery.lost.remove(k);
        }
        self.chunks.forget(keys);
    }

    /// Subtasks after `si` that have not run, with the inputs they are
    /// still missing — attached to [`XbError::Hang`] for debuggability.
    fn pending_after(&self, graph: &SubtaskGraph, si: usize) -> Vec<PendingSubtask> {
        graph
            .subtasks
            .iter()
            .enumerate()
            .skip(si + 1)
            .map(|(i, st)| PendingSubtask {
                subtask: i,
                missing_inputs: self.chunks.missing(&st.external_inputs),
            })
            .collect()
    }
}

/// The cluster as placement sees it. A free function over the fields, so
/// the view can be held while `placement` itself is borrowed mutably.
fn bands<'a>(
    spec: &'a ClusterSpec,
    recovery: &'a Recovery,
    band_free: &'a [f64],
    ledger: &'a Ledger,
) -> Bands<'a> {
    Bands {
        spec,
        dead: &recovery.band_dead,
        free_at: band_free,
        live_bytes: ledger.live(),
    }
}

/// Refcount lifecycle: the last consuming subtask of every key in `graph`.
fn last_consumers(graph: &SubtaskGraph) -> HashMap<ChunkKey, usize> {
    let mut last = HashMap::new();
    for (si, st) in graph.subtasks.iter().enumerate() {
        for &ni in &st.nodes {
            for k in &graph.chunks.nodes[ni].inputs {
                last.insert(*k, si);
            }
        }
    }
    last
}

/// One disk-tier read as trace events, on `band` at virtual time `at`.
fn trace_read_back(rb: &ReadBack, band: usize, at: f64) {
    let args = [("chunk", rb.key), ("bytes", rb.bytes as u64)];
    trace::instant_at(Stage::ReadBack, "read_back", Track::band(band), at, &args);
    if rb.recovered {
        let name = "recovered_from_spill";
        trace::instant_at(Stage::Recovery, name, Track::band(band), at, &args);
    }
}

impl MetaView for SimExecutor {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.chunks.meta(key)
    }
}

impl Executor for SimExecutor {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        let mut run = self.begin_graph(graph.clone());
        while self.step_graph(&mut run)? {}
        self.end_graph(run)
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.chunks.payload(key)
    }

    fn clear(&mut self) {
        self.chunks.clear();
        self.ledger.clear();
        self.placement = Placement::default();
        self.band_free.iter_mut().for_each(|b| *b = 0.0);
        self.sched_clock = 0.0;
        self.dispatch_step = 0;
        self.recovery.arm();
    }

    fn release(&mut self, keys: &[ChunkKey]) {
        for k in keys {
            self.free_chunk(*k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_core::config::XorbitsConfig;
    use xorbits_core::session::Session;
    use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame};

    fn sample_df(n: usize) -> DataFrame {
        DataFrame::new(vec![
            (
                "k",
                Column::from_i64((0..n as i64).map(|i| i % 11).collect()),
            ),
            ("v", Column::from_f64((0..n).map(|i| i as f64).collect())),
        ])
        .unwrap()
    }

    fn cfg() -> XorbitsConfig {
        XorbitsConfig {
            chunk_limit_bytes: 4 << 10,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_groupby_on_simulator() {
        let spec = ClusterSpec::new(4, 64 << 20);
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(5000)).unwrap();
        let out = df
            .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])
            .unwrap()
            .fetch()
            .unwrap();
        assert_eq!(out.num_rows(), 11);
        let report = s.last_report().unwrap();
        assert!(report.stats.makespan > 0.0);
        assert!(report.stats.subtasks > 1);
    }

    #[test]
    fn oom_without_spill() {
        let spec = ClusterSpec::new(1, 16 << 10).without_spill();
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(100_000)).unwrap();
        let err = df
            .filter(col("v").ge(lit(0.0)))
            .unwrap()
            .fetch()
            .unwrap_err();
        assert!(matches!(err, XbError::Oom { .. }), "got {err:?}");
    }

    #[test]
    fn spill_rescues_oversized_working_set() {
        let spec = ClusterSpec::new(1, 16 << 10); // spill on by default
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(100_000)).unwrap();
        let out = df.filter(col("v").ge(lit(0.0))).unwrap().fetch().unwrap();
        assert_eq!(out.num_rows(), 100_000);
        let report = s.last_report().unwrap();
        assert!(
            report.stats.spilled_bytes > 0,
            "expected spilling, stats: {:?}",
            report.stats
        );
    }

    #[test]
    fn deadline_produces_hang() {
        let spec = ClusterSpec::new(1, 1 << 30).with_deadline(0.0);
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(10_000)).unwrap();
        let err = df.fetch().unwrap_err();
        assert!(matches!(err, XbError::Hang { .. }), "got {err:?}");
    }

    #[test]
    fn more_workers_reduce_makespan() {
        // a parallel map workload: makespan on 4 workers should be well
        // below 1 worker (same measured kernel times, more bands)
        let run = |workers: usize| {
            // isolate band parallelism from dispatcher queueing
            let mut spec = ClusterSpec::new(workers, 1 << 30);
            spec.central_scheduler = false;
            let s = Session::new(
                XorbitsConfig {
                    chunk_limit_bytes: 64 << 10,
                    ..Default::default()
                },
                SimExecutor::new(spec),
            );
            let df = s.from_df(sample_df(200_000)).unwrap();
            let out = df
                .assign(vec![("w".into(), col("v").mul(col("v")))])
                .unwrap()
                .groupby_agg(vec!["k".into()], vec![AggSpec::new("w", AggFunc::Sum, "s")])
                .unwrap()
                .fetch()
                .unwrap();
            assert_eq!(out.num_rows(), 11);
            s.last_report().unwrap().stats.makespan
        };
        let m1 = run(1);
        let m4 = run(4);
        assert!(
            m4 < m1 * 0.7,
            "expected speedup from parallelism: 1w={m1:.4}s 4w={m4:.4}s"
        );
    }

    #[test]
    fn central_dispatcher_penalises_large_graphs() {
        // same work, same cluster: a plan with many more subtasks must pay
        // proportionally on the serialised dispatcher — the effect graph
        // fusion and auto merge amortise
        let run = |chunk: usize| {
            let spec = ClusterSpec::new(4, 1 << 30);
            let s = Session::new(
                XorbitsConfig {
                    chunk_limit_bytes: chunk,
                    graph_fusion: false,
                    ..Default::default()
                },
                SimExecutor::new(spec),
            );
            let df = s.from_df(sample_df(30_000)).unwrap();
            let out = df
                .assign(vec![("w".into(), col("v").add(lit(1.0)))])
                .unwrap()
                .fetch()
                .unwrap();
            assert_eq!(out.num_rows(), 30_000);
            (
                s.last_report().unwrap().stats.subtasks,
                s.last_report().unwrap().stats.makespan,
            )
        };
        let (big_tasks, big_time) = run(1 << 10); // many tiny chunks
        let (small_tasks, small_time) = run(1 << 30); // few chunks
        assert!(big_tasks > small_tasks * 4);
        assert!(
            big_time > small_time * 2.0,
            "dispatcher queueing should dominate: {big_time} vs {small_time}"
        );
    }

    #[test]
    fn cross_worker_transfer_counted() {
        let spec = ClusterSpec::new(4, 1 << 30);
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(20_000)).unwrap();
        let out = df
            .groupby_agg(
                vec!["k".into()],
                vec![AggSpec::new("v", AggFunc::Mean, "m")],
            )
            .unwrap()
            .fetch()
            .unwrap();
        assert_eq!(out.num_rows(), 11);
        let report = s.last_report().unwrap();
        // reduce stage must gather partials across workers
        assert!(report.stats.net_bytes > 0);
    }

    #[test]
    fn refcount_release_bounds_live_memory() {
        // a long map chain without fusion: with intra-graph release, live
        // memory stays ~2 chunks instead of the whole chain
        let spec = ClusterSpec::new(1, 1 << 30);
        let s = Session::new(
            XorbitsConfig {
                chunk_limit_bytes: 1 << 30, // one big chunk
                graph_fusion: false,
                ..Default::default()
            },
            SimExecutor::new(spec),
        );
        let df = s.from_df(sample_df(50_000)).unwrap();
        let mut h = df;
        for _ in 0..6 {
            h = h
                .assign(vec![("v".into(), col("v").add(lit(1.0)))])
                .unwrap();
        }
        let out = h.fetch().unwrap();
        assert_eq!(out.num_rows(), 50_000);
        let peak = s.last_report().unwrap().stats.peak_worker_bytes;
        let one_chunk = 50_000 * 16;
        assert!(
            peak < one_chunk * 4,
            "peak {peak} should be a small multiple of one chunk ({one_chunk}), not the whole chain"
        );
    }

    /// Publishes `df` as chunk `key` on band 0 at virtual time `finish`.
    fn publish(ex: &mut SimExecutor, key: ChunkKey, df: &DataFrame, finish: f64) -> ExecStats {
        let mut stats = ExecStats::default();
        let payload = Arc::new(Payload::Df(df.clone()));
        ex.publish_chunk(key, payload, 0, finish, false, &mut stats)
            .unwrap();
        stats
    }

    #[test]
    fn retained_spill_frees_only_last_sharer() {
        // two views share one parent; budget holds the parent plus half
        // again. Publishing a fresh chunk overflows it: the coldest victim
        // shares the parent and frees nothing, so the spill loop must keep
        // going until the second sharer releases the whole allocation.
        let parent = sample_df(1000);
        let retained = parent.retained_nbytes();
        let parts = xorbits_dataframe::partition::split_even(&parent, 2);
        let spec = ClusterSpec::new(1, retained + retained / 2)
            .with_encoding(xorbits_storage::EncodingMode::Plain);
        let mut ex = SimExecutor::new(spec);
        for (i, p) in parts.iter().enumerate() {
            publish(&mut ex, i as ChunkKey + 1, p, i as f64);
        }
        assert_eq!(ex.live_worker_bytes()[0], retained);
        let fresh = sample_df(1000);
        let stats = publish(&mut ex, 9, &fresh, 9.0);
        assert_eq!(
            ex.chunk_placements(),
            [
                (1, 0, false, true),
                (2, 0, false, true),
                (9, 0, true, false)
            ],
            "coldest sharer spilled first, and freeing 0 bytes must not satisfy the loop"
        );
        assert_eq!(ex.live_worker_bytes()[0], fresh.retained_nbytes());
        assert!(ex.ledger_balanced());
        // the disk tier is charged the *measured* encoded envelopes, which
        // differ from the logical view bytes (header/offsets overhead)
        let enc = |df: &DataFrame| xorbits_storage::encoded_size(&Payload::Df(df.clone()));
        assert_eq!(stats.spilled_bytes, enc(&parts[0]) + enc(&parts[1]));
    }

    #[test]
    fn spill_victim_among_equally_cold_chunks_is_deterministic() {
        // every output of one subtask is published at the same (band,
        // finish); which of them spills must not depend on a hash seed
        let chunks: Vec<DataFrame> = (5..9).map(|i| sample_df(i * 100)).collect();
        let outcome = || {
            let mut ex = SimExecutor::new(ClusterSpec::new(1, 40 << 10));
            let mut spilled_bytes = 0;
            for (i, df) in chunks.iter().enumerate() {
                spilled_bytes += publish(&mut ex, i as ChunkKey + 1, df, 1.0).spilled_bytes;
            }
            assert!(ex.ledger_balanced());
            (ex.chunk_placements(), spilled_bytes)
        };
        let first = outcome();
        assert!(first.1 > 0, "the budget must force a spill");
        for _ in 0..40 {
            assert_eq!(outcome(), first);
        }
    }

    #[test]
    fn fused_subtask_charges_transient_working_set() {
        // fusion hides chunks from storage but not from memory: a fused
        // chain over one huge chunk must still exceed a tiny budget
        let spec = ClusterSpec::new(1, 1 << 20).without_spill();
        let s = Session::new(
            XorbitsConfig {
                chunk_limit_bytes: 1 << 30,
                ..Default::default()
            },
            SimExecutor::new(spec),
        );
        let df = s.from_df(sample_df(100_000)).unwrap();
        let err = df
            .assign(vec![("w".into(), col("v").mul(lit(2.0)))])
            .unwrap()
            .fetch()
            .unwrap_err();
        assert!(matches!(err, XbError::Oom { .. }), "got {err:?}");
    }

    // ---- fault injection + lineage recovery ----

    use crate::fault::{FaultPlan, FaultTrigger, RetryPolicy};

    /// Runs the canonical groupby workload on `spec` and returns the
    /// fetched result plus the session's aggregated stats.
    fn groupby_fetch(spec: ClusterSpec) -> (DataFrame, ExecStats) {
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(5000)).unwrap();
        let out = df
            .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])
            .unwrap()
            .fetch()
            .unwrap();
        (out, s.total_stats())
    }

    /// The stats fields that must replay bit-identically across runs of the
    /// same seeded schedule (makespan/real_cpu incorporate *measured* host
    /// time and are excluded).
    fn det(stats: &ExecStats) -> (usize, usize, usize, usize, usize, usize) {
        (
            stats.subtasks,
            stats.net_bytes,
            stats.peak_worker_bytes,
            stats.retries,
            stats.recomputed_subtasks,
            stats.recovered_from_spill_bytes,
        )
    }

    #[test]
    fn zero_fault_plan_is_inert() {
        let (plain_out, plain) = groupby_fetch(ClusterSpec::new(2, 64 << 20));
        let (armed_out, armed) =
            groupby_fetch(ClusterSpec::new(2, 64 << 20).with_fault_plan(FaultPlan::none(7)));
        assert_eq!(plain_out, armed_out);
        assert_eq!(det(&plain), det(&armed));
        assert_eq!(armed.retries, 0);
        assert_eq!(armed.recomputed_subtasks, 0);
        assert_eq!(armed.recovered_from_spill_bytes, 0);
    }

    #[test]
    fn worker_crash_recovers_to_identical_result() {
        let (oracle, _) = groupby_fetch(ClusterSpec::new(2, 64 << 20));
        let plan = FaultPlan::worker_crash_at_step(11, 1, 5);
        let (out, stats) =
            groupby_fetch(ClusterSpec::new(2, 64 << 20).with_fault_plan(plan.clone()));
        assert_eq!(oracle, out, "crash recovery must not change the result");
        assert!(
            stats.recomputed_subtasks > 0,
            "the crash must force lineage recomputation, stats: {stats:?}"
        );
        // same schedule, fresh cluster: recovery replays deterministically
        let (out2, stats2) = groupby_fetch(ClusterSpec::new(2, 64 << 20).with_fault_plan(plan));
        assert_eq!(out, out2);
        assert_eq!(det(&stats), det(&stats2));
    }

    #[test]
    fn transient_storm_retries_to_success() {
        let (oracle, _) = groupby_fetch(ClusterSpec::new(2, 64 << 20));
        let spec = ClusterSpec::new(2, 64 << 20)
            .with_fault_plan(FaultPlan::transient_storm(3, 0.2))
            .with_retry(RetryPolicy {
                max_retries: 10,
                ..Default::default()
            });
        let (out, stats) = groupby_fetch(spec);
        assert_eq!(oracle, out);
        assert!(stats.retries > 0, "a 20% storm must trigger retries");
        assert_eq!(stats.recomputed_subtasks, 0, "retries are not recomputes");
    }

    #[test]
    fn retry_budget_exhaustion_fails_with_fault() {
        let spec = ClusterSpec::new(1, 64 << 20)
            .with_fault_plan(FaultPlan::transient_storm(3, 1.0))
            .with_retry(RetryPolicy {
                max_retries: 2,
                ..Default::default()
            });
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(5000)).unwrap();
        let err = df.fetch().unwrap_err();
        match err {
            XbError::Fault { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("expected Fault, got {other:?}"),
        }
    }

    #[test]
    fn chunk_loss_recovers_to_identical_result() {
        let (oracle, _) = groupby_fetch(ClusterSpec::new(2, 64 << 20));
        let plan = FaultPlan::chunk_loss_at_step(9, 0.5, 6);
        let (out, stats) = groupby_fetch(ClusterSpec::new(2, 64 << 20).with_fault_plan(plan));
        assert_eq!(oracle, out);
        assert!(
            stats.recomputed_subtasks > 0,
            "losing half the resident chunks must force recomputation, stats: {stats:?}"
        );
    }

    #[test]
    fn crash_with_spilled_chunks_recovers_from_disk() {
        // a budget small enough to force spilling: chunks a crash destroys
        // in memory survive on the disk tier, so recovery reads them back
        // instead of recomputing their whole lineage
        let plan = FaultPlan::worker_crash_at_step(13, 0, 40);
        let spec = ClusterSpec::new(2, 24 << 10).with_fault_plan(plan);
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(20_000)).unwrap();
        let out = df.filter(col("v").ge(lit(0.0))).unwrap().fetch().unwrap();
        assert_eq!(out.num_rows(), 20_000);
        let stats = s.total_stats();
        assert!(
            stats.recovered_from_spill_bytes > 0,
            "spilled survivors should be the fast recovery path, stats: {stats:?}"
        );
    }

    #[test]
    fn hang_lists_pending_subtasks() {
        let spec = ClusterSpec::new(1, 1 << 30).with_deadline(0.0);
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(10_000)).unwrap();
        let err = df.fetch().unwrap_err();
        match err {
            XbError::Hang { pending, .. } => {
                assert!(
                    !pending.is_empty(),
                    "a deadline of zero must leave undispatched subtasks pending"
                );
            }
            other => panic!("expected Hang, got {other:?}"),
        }
    }

    #[test]
    fn killing_every_band_is_a_plan_error() {
        let plan = FaultPlan::none(1)
            .with_event(FaultTrigger::Step(2), FaultKind::WorkerCrash { worker: 0 })
            .with_event(FaultTrigger::Step(2), FaultKind::WorkerCrash { worker: 1 });
        let spec = ClusterSpec::new(2, 64 << 20).with_fault_plan(plan);
        let s = Session::new(cfg(), SimExecutor::new(spec));
        let df = s.from_df(sample_df(5000)).unwrap();
        let err = df.fetch().unwrap_err();
        assert!(matches!(err, XbError::Plan(_)), "got {err:?}");
    }
}
