//! The virtual-time cluster executor.
//!
//! Subtasks run *for real* on the host (real chunk data through the real
//! kernels, CPU time measured per subtask); placement, queueing, network
//! transfer, memory pressure and spilling are simulated deterministically
//! on top of those measurements. Makespan — the number every benchmark
//! reports — is the virtual completion time across all bands.
//!
//! Scheduling follows §V-B: initial (source) subtasks are placed
//! breadth-first, filling one worker's bands before moving to the next;
//! non-initial subtasks are placed locality-aware on the band holding
//! their largest input.
//!
//! Memory follows §V-C with a refcount lifecycle: every published chunk
//! charges its worker's ledger and is reclaimed once its last consumer has
//! run (unless the plan retains it for future tiling or the final gather).
//! The ledger accounts *retained* bytes, not logical bytes: payloads are
//! zero-copy views over shared buffers, so each distinct allocation is
//! charged once per worker no matter how many resident chunks reference
//! it, and freed only when the last referencing chunk goes away. To stop a
//! thin view from pinning a huge parent buffer, payloads are compacted
//! ([`Payload::compact`]) at publish time when retained exceeds logical by
//! more than [`ClusterSpec::compact_slack`]. A fused subtask additionally
//! charges its *transient working set* — the peak of its internal
//! intermediates — because fusion saves storage traffic, not the memory
//! the computation itself needs. Over budget, spill-capable engines move
//! the coldest chunks to the virtual disk tier (readers pay
//! `bytes / disk_bw`); engines without spill die with the paper's OOM.

use crate::cluster::ClusterSpec;
use crate::fault::{FaultEvent, FaultKind, FaultTrigger};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use xorbits_array::prng::Xoshiro256;
use xorbits_core::chunk::{payload_to_value, ChunkGraph, ChunkKey, ChunkMeta, ChunkNode, Payload};
use xorbits_core::error::{PendingSubtask, XbError, XbResult};
use xorbits_core::exec::{self, ChunkIo};
use xorbits_core::retile::{self, RetileMode, RetileParams, SynthKeys};
use xorbits_core::session::{ExecStats, Executor};
use xorbits_core::subtask::SubtaskGraph;
use xorbits_core::tiling::MetaView;
use xorbits_core::trace::{self, Stage, Track};

#[derive(Debug, Clone, Copy)]
struct ChunkState {
    band: usize,
    finish: f64,
    /// Logical (viewed) bytes — what network and storage transfers cost.
    /// Memory charges use the retained-allocation ledger instead.
    nbytes: usize,
    /// *Measured* wire bytes of the chunk's envelope under the spec's
    /// transport encoding ([`xorbits_storage::EncodeWorkspace::measure`])
    /// — what network transfers, spill writes and read-backs all cost, so
    /// the cost model matches the real storage service byte-for-byte.
    /// Measured exactly once, when the `ChunkState` is created.
    enc_bytes: usize,
    resident: bool,
    spilled: bool,
    /// Spilled chunk whose owning worker has since crashed: the disk copy
    /// survives, and its first read-back counts as spill-tier recovery.
    disk_orphan: bool,
}

/// How one chunk node was produced — recorded for every node executed in
/// the current fetch so lost chunks can be recomputed from lineage. The
/// record is shared (`Arc`) by all of the node's output keys.
struct LineageNode {
    /// Global production order across all graphs in the fetch: monotone in
    /// execution order, hence a valid topological order for replay.
    seq: u64,
    node: ChunkNode,
}

/// What bringing a dispatch's inputs to its worker costs.
#[derive(Default)]
struct InputCost {
    /// Latest producer finish time.
    arrival: f64,
    /// Encoded bytes crossing to this worker for the first time.
    recv_bytes: usize,
    /// Disk-tier seconds spent reading spilled inputs back.
    disk_io: f64,
    /// Logical bytes read off the storage service.
    read_bytes: usize,
}

/// How [`SimExecutor::charge_inputs`] treats spilled inputs.
#[derive(Clone, Copy)]
enum ReadBack {
    /// Paid, and traced on the band that produced the chunk (dispatch).
    OnProducerBand,
    /// Paid, and traced on this band (lineage replay).
    OnBand(usize),
    /// Not paid: a speculative clone's disk read rides the primary's.
    NotCharged,
}

/// The simulator as a running subtask's chunk source and sink: inputs come
/// straight from the payload map; published outputs are compacted and held
/// back until the dispatch's virtual-time bookkeeping has placed them.
struct SimIo<'a> {
    storage: &'a HashMap<ChunkKey, Arc<Payload>>,
    compact_slack: f64,
    published: Vec<(ChunkKey, Arc<Payload>)>,
}

impl ChunkIo for SimIo<'_> {
    fn load(&mut self, keys: &[ChunkKey]) -> XbResult<Vec<Arc<Payload>>> {
        keys.iter()
            .map(|k| {
                let held = self.published.iter().find(|(pk, _)| pk == k);
                held.map(|(_, p)| p)
                    .or_else(|| self.storage.get(k))
                    .cloned()
                    .ok_or_else(|| exec::missing_input(*k))
            })
            .collect()
    }

    fn publish(&mut self, key: ChunkKey, mut payload: Payload) -> XbResult<()> {
        // a view about to outlive its producer must not pin a parent
        // buffer far larger than what it shows
        payload.compact(self.compact_slack);
        self.published.push((key, Arc::new(payload)));
        Ok(())
    }
}

/// The simulator (implements [`Executor`]).
pub struct SimExecutor {
    spec: ClusterSpec,
    storage: HashMap<ChunkKey, Arc<Payload>>,
    metas: HashMap<ChunkKey, ChunkMeta>,
    states: HashMap<ChunkKey, ChunkState>,
    band_free: Vec<f64>,
    worker_live: Vec<usize>,
    worker_peak: Vec<usize>,
    /// Per-worker refcounts of distinct buffer allocations (keyed by
    /// [`Payload::push_allocs`] id). A shared buffer is charged to
    /// `worker_live` only on the 0→1 transition and freed on 1→0.
    ledgers: Vec<HashMap<usize, usize>>,
    /// Allocations `(id, retained_bytes)` each resident chunk references.
    chunk_allocs: HashMap<ChunkKey, Vec<(usize, usize)>>,
    source_rr: usize,
    any_rr: usize,
    total_net_bytes: usize,
    total_spilled_bytes: usize,
    total_read_back_bytes: usize,
    /// Plain / wire byte totals of every chunk measured at publish — the
    /// transport compression ratio the stats report.
    total_encoded_raw: usize,
    total_encoded_wire: usize,
    /// Persistent encode workspace backing [`Self::measure_payload`]: the
    /// per-chunk size probe runs the real chooser without re-allocating
    /// its dictionary table and staging per chunk.
    enc_ws: xorbits_storage::EncodeWorkspace,
    /// Chunks already fetched to a worker: remote reads are paid once per
    /// worker and cached (how a broadcast stays cheap in real clusters).
    arrived: std::collections::HashSet<(ChunkKey, usize)>,
    /// Virtual time of the central scheduler thread (when enabled).
    sched_clock: f64,
    /// Bands killed by fault events this fetch (never scheduled again).
    band_dead: Vec<bool>,
    /// Dispatches placed on each band since `clear()` — the deterministic
    /// load signal speculation uses to pick a clone band (virtual times
    /// embed measured host CPU and must never steer decisions).
    band_dispatches: Vec<u64>,
    /// Subtasks dispatched since the last `clear()` — the deterministic
    /// logical clock [`FaultTrigger::Step`] fires on.
    dispatch_step: u64,
    /// Plan RNG for this fetch (re-seeded on `clear()`), present only when
    /// the spec carries a non-trivial fault plan.
    fault_rng: Option<Xoshiro256>,
    /// Which plan events already fired this fetch.
    events_fired: Vec<bool>,
    /// Producing record of every chunk node executed this fetch (only
    /// recorded while a fault plan is active).
    lineage: HashMap<ChunkKey, Arc<LineageNode>>,
    lineage_seq: u64,
    total_retries: usize,
    total_recomputed: usize,
    total_recovered_spill: usize,
    /// First output key of every lineage node replayed this fetch, in
    /// replay order (test introspection).
    recovery_log: Vec<ChunkKey>,
    /// Keys destroyed by a fault and not yet rematerialised. Distinguishes
    /// fault loss from the session's legitimate between-graph releases —
    /// only fault-lost retained keys are recovered at end of graph.
    lost: HashSet<ChunkKey>,
    /// When set, every dispatched subtask also appears on the tenant's
    /// trace lane ([`Track::tenant`]) — the serving coordinator points this
    /// at whichever tenant owns the subtask it is about to dispatch.
    tenant_track: Option<u32>,
}

/// Snapshot of the executor's monotone counters, used to attribute the
/// traffic of a single dispatch to the graph run that caused it (under
/// multi-tenant interleaving, end-minus-begin deltas would charge one run
/// for every tenant's traffic).
#[derive(Debug, Clone, Copy, Default)]
struct CounterSnap {
    net: usize,
    spill: usize,
    read_back: usize,
    retries: usize,
    recomputed: usize,
    recovered: usize,
    enc_raw: usize,
    enc_wire: usize,
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
    /// What [`SimExecutor::end_graph`] reports: the executor-wide counters
    /// enter as per-dispatch deltas, makespan and peak are filled at the end.
    stats: ExecStats,
    /// Latest virtual finish time over this run's dispatched subtasks.
    last_finish: f64,
    faults_on: bool,
    events: Vec<FaultEvent>,
    transient_p: f64,
    retry: crate::fault::RetryPolicy,
    /// Last consuming subtask per key within this graph.
    last_consumer: HashMap<ChunkKey, usize>,
    /// Mid-run re-tiling mode, resolved at submission (spec override or
    /// the `XORBITS_RETILE` env knob).
    retile: RetileMode,
    retile_params: RetileParams,
    /// Collision-free key allocator for spliced subgraph nodes.
    synth: SynthKeys,
    /// Shuffle waves already considered (by wave id): each wave is
    /// harvested and re-tiled at most once.
    done_waves: HashSet<Vec<usize>>,
    /// External-input bytes of completed dispatches — the median baseline
    /// the speculation trigger compares against.
    ext_bytes_seen: Vec<u64>,
}

impl GraphRun {
    /// Subtasks not yet dispatched.
    pub fn remaining(&self) -> usize {
        self.graph.subtasks.len() - self.next
    }

    /// True once every subtask has been dispatched.
    pub fn is_done(&self) -> bool {
        self.next >= self.graph.subtasks.len()
    }

    /// Latest virtual finish time over this run's dispatched subtasks
    /// (equals the submission time until something runs).
    pub fn last_finish(&self) -> f64 {
        self.last_finish
    }

    /// Virtual time the run was submitted.
    pub fn submitted_at(&self) -> f64 {
        self.t0
    }

    fn absorb(&mut self, before: CounterSnap, after: CounterSnap) {
        let s = &mut self.stats;
        s.net_bytes += after.net - before.net;
        s.spilled_bytes += after.spill - before.spill;
        s.read_back_bytes += after.read_back - before.read_back;
        s.retries += after.retries - before.retries;
        s.recomputed_subtasks += after.recomputed - before.recomputed;
        s.recovered_from_spill_bytes += after.recovered - before.recovered;
        s.encoded_raw_bytes += after.enc_raw - before.enc_raw;
        s.encoded_wire_bytes += after.enc_wire - before.enc_wire;
    }
}

impl SimExecutor {
    /// Creates an executor over a virtual cluster.
    pub fn new(spec: ClusterSpec) -> SimExecutor {
        let bands = spec.n_bands();
        let workers = spec.workers;
        let mut ex = SimExecutor {
            spec,
            storage: HashMap::new(),
            metas: HashMap::new(),
            states: HashMap::new(),
            band_free: vec![0.0; bands],
            worker_live: vec![0; workers],
            worker_peak: vec![0; workers],
            ledgers: vec![HashMap::new(); workers],
            chunk_allocs: HashMap::new(),
            source_rr: 0,
            any_rr: 0,
            total_net_bytes: 0,
            total_spilled_bytes: 0,
            total_read_back_bytes: 0,
            total_encoded_raw: 0,
            total_encoded_wire: 0,
            enc_ws: xorbits_storage::EncodeWorkspace::new(),
            arrived: std::collections::HashSet::new(),
            sched_clock: 0.0,
            band_dead: vec![false; bands],
            band_dispatches: vec![0; bands],
            dispatch_step: 0,
            fault_rng: None,
            events_fired: Vec::new(),
            lineage: HashMap::new(),
            lineage_seq: 0,
            total_retries: 0,
            total_recomputed: 0,
            total_recovered_spill: 0,
            recovery_log: Vec::new(),
            lost: HashSet::new(),
            tenant_track: None,
        };
        ex.arm_faults();
        ex
    }

    /// Points subsequent dispatches at a tenant's trace lane (`None` turns
    /// the extra lane off). Purely observational — scheduling is unchanged.
    pub fn set_tenant_track(&mut self, tenant: Option<u32>) {
        self.tenant_track = tenant;
    }

    /// Re-arms the fault schedule for a fresh fetch: resets the dispatch
    /// clock, revives every band, re-seeds the plan RNG and marks every
    /// event unfired, so each fetch replays the same schedule.
    fn arm_faults(&mut self) {
        self.band_dead.iter_mut().for_each(|d| *d = false);
        self.dispatch_step = 0;
        self.lineage.clear();
        self.lineage_seq = 0;
        self.recovery_log.clear();
        self.lost.clear();
        match &self.spec.fault_plan {
            Some(plan) if !plan.is_trivial() => {
                self.fault_rng = Some(plan.rng());
                self.events_fired = vec![false; plan.events.len()];
            }
            _ => {
                self.fault_rng = None;
                self.events_fired = Vec::new();
            }
        }
    }

    /// Whether a non-trivial fault plan is active.
    fn faults_on(&self) -> bool {
        self.fault_rng.is_some()
    }

    /// The cluster spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Current virtual frontier (max band-free time).
    pub fn virtual_now(&self) -> f64 {
        self.band_free.iter().copied().fold(0.0, f64::max)
    }

    /// Peak live bytes per worker so far.
    pub fn worker_peaks(&self) -> &[usize] {
        &self.worker_peak
    }

    /// Current live bytes per worker (test introspection).
    pub fn live_worker_bytes(&self) -> &[usize] {
        &self.worker_live
    }

    /// First output key of every lineage node replayed so far this fetch,
    /// in replay order (test introspection).
    pub fn recovery_log(&self) -> &[ChunkKey] {
        &self.recovery_log
    }

    /// `(key, worker, resident, spilled)` for every chunk the simulator
    /// tracks, sorted by key (test introspection).
    pub fn chunk_placements(&self) -> Vec<(ChunkKey, usize, bool, bool)> {
        let mut out: Vec<(ChunkKey, usize, bool, bool)> = self
            .states
            .iter()
            .map(|(k, st)| (*k, self.spec.worker_of(st.band), st.resident, st.spilled))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Checks the memory-ledger invariant: on every worker, the refcount
    /// of each allocation equals the number of resident chunks referencing
    /// it, and live bytes equal the sum of distinct referenced allocation
    /// sizes. Recovery must keep this exact even as chunks vanish and
    /// reappear mid-flight.
    pub fn ledger_balanced(&self) -> bool {
        for w in 0..self.spec.workers {
            // expected refcounts from the resident chunks on this worker
            let mut refs: HashMap<usize, (usize, usize)> = HashMap::new(); // id -> (count, bytes)
            for (k, st) in &self.states {
                if st.resident && self.spec.worker_of(st.band) == w {
                    if let Some(allocs) = self.chunk_allocs.get(k) {
                        for &(id, bytes) in allocs {
                            refs.entry(id).or_insert((0, bytes)).0 += 1;
                        }
                    }
                }
            }
            if refs.len() != self.ledgers[w].len() {
                return false;
            }
            let mut expected_bytes = 0usize;
            for (id, (count, bytes)) in &refs {
                if self.ledgers[w].get(id) != Some(count) {
                    return false;
                }
                expected_bytes += bytes;
            }
            if self.worker_live[w] != expected_bytes {
                return false;
            }
        }
        true
    }

    /// Whether any band of `worker` is still alive.
    fn worker_alive(&self, worker: usize) -> bool {
        let base = worker * self.spec.bands_per_worker;
        (base..base + self.spec.bands_per_worker).any(|b| !self.band_dead[b])
    }

    fn pick_band(&mut self, external_inputs: &[ChunkKey]) -> usize {
        let nbands = self.spec.n_bands();
        if external_inputs.is_empty() {
            // breadth-first: fill worker 0's bands, then worker 1, …
            // (skipping dead bands; with none dead this is one iteration,
            // identical to the fault-free scheduler)
            loop {
                let b = self.source_rr % nbands;
                self.source_rr += 1;
                if !self.band_dead[b] {
                    return b;
                }
            }
        }
        if self.spec.locality_aware {
            // band of the largest input (minimises transfer, §V-B) —
            // unless that worker is close to its memory budget or the band
            // is dead, in which case trade locality for the least-loaded
            // surviving worker
            let mut best: Option<(usize, usize)> = None; // (nbytes, band)
            for k in external_inputs {
                if let Some(st) = self.states.get(k) {
                    if best.is_none_or(|(nb, _)| st.nbytes > nb) {
                        best = Some((st.nbytes, st.band));
                    }
                }
            }
            if let Some((_, band)) = best {
                let w = self.spec.worker_of(band);
                if !self.band_dead[band]
                    && self.worker_live[w] * 10 <= self.spec.worker_memory_bytes * 8
                {
                    return band;
                }
                // memory pressure (or dead locality target): pick the
                // least-loaded live worker's earliest live band
                let coolest = (0..self.spec.workers)
                    .filter(|&cw| self.worker_alive(cw))
                    .min_by_key(|&cw| self.worker_live[cw])
                    .unwrap_or(w);
                let base = coolest * self.spec.bands_per_worker;
                let mut best_band: Option<usize> = None;
                for b in base..base + self.spec.bands_per_worker {
                    if self.band_dead[b] {
                        continue;
                    }
                    if best_band.is_none_or(|bb| self.band_free[b] < self.band_free[bb]) {
                        best_band = Some(b);
                    }
                }
                if let Some(b) = best_band {
                    return b;
                }
            }
        }
        loop {
            let b = self.any_rr % nbands;
            self.any_rr += 1;
            if !self.band_dead[b] {
                return b;
            }
        }
    }

    /// Charges `nbytes` to `worker`; spills coldest chunks or reports OOM.
    ///
    /// Spilling a chunk frees only the retained bytes its departure
    /// actually releases — a victim whose buffers are still referenced by
    /// other resident chunks frees nothing but still drops a refcount, so
    /// the loop makes progress until the last sharer leaves.
    fn charge(&mut self, worker: usize, nbytes: usize) -> XbResult<()> {
        self.worker_live[worker] += nbytes;
        self.worker_peak[worker] = self.worker_peak[worker].max(self.worker_live[worker]);
        while self.worker_live[worker] > self.spec.worker_memory_bytes {
            if !self.spec.spill_enabled {
                return Err(XbError::Oom {
                    worker,
                    needed: self.worker_live[worker],
                    budget: self.spec.worker_memory_bytes,
                });
            }
            // spill the coldest resident chunk on this worker
            let victim = self
                .states
                .iter()
                .filter(|(_, st)| {
                    st.resident && !st.spilled && self.spec.worker_of(st.band) == worker
                })
                .min_by(|a, b| a.1.finish.total_cmp(&b.1.finish))
                .map(|(k, st)| (*k, st.enc_bytes, st.band));
            match victim {
                Some((k, encoded, band)) => {
                    let st = self.states.get_mut(&k).expect("victim exists");
                    st.spilled = true;
                    st.resident = false;
                    let freed = self.release_allocs(worker, k);
                    self.worker_live[worker] = self.worker_live[worker].saturating_sub(freed);
                    // the disk tier receives the chunk's *encoded envelope*,
                    // not its logical view — reconciled with the measured
                    // sizes the real storage service writes
                    self.total_spilled_bytes += encoded;
                    if trace::is_enabled() {
                        trace::instant_at(
                            Stage::Spill,
                            "spill",
                            Track::band(band),
                            self.virtual_now(),
                            &[
                                ("chunk", k),
                                ("bytes", encoded as u64),
                                ("worker", worker as u64),
                            ],
                        );
                        trace::counter_add("sim.spilled_bytes", encoded as u64);
                        trace::observe_bytes("sim.spill.bytes", encoded as u64);
                    }
                }
                None => {
                    // nothing left to spill: even the disk tier can't save us
                    return Err(XbError::Oom {
                        worker,
                        needed: self.worker_live[worker],
                        budget: self.spec.worker_memory_bytes,
                    });
                }
            }
        }
        Ok(())
    }

    /// Measures one payload's transport sizes (plain vs wire under the
    /// spec's encoding) through the persistent workspace, accumulating the
    /// compression-ratio totals. Called exactly once per published chunk —
    /// every later network/spill/read-back charge reuses the stored
    /// `enc_bytes`.
    fn measure_payload(&mut self, payload: &Payload) -> usize {
        let sz = self
            .enc_ws
            .measure(&payload_to_value(payload), self.spec.encoding);
        self.total_encoded_raw += sz.raw;
        self.total_encoded_wire += sz.wire;
        sz.wire
    }

    /// Charges one published chunk's *retained* footprint: each distinct
    /// allocation is charged only on its 0→1 refcount transition, so a
    /// buffer shared by several resident chunks costs its bytes once.
    fn charge_chunk(&mut self, worker: usize, key: ChunkKey, payload: &Payload) -> XbResult<()> {
        let mut allocs = Vec::new();
        payload.push_allocs(&mut allocs);
        allocs.sort_unstable();
        allocs.dedup_by_key(|&mut (id, _)| id);
        let mut delta = 0usize;
        for &(id, bytes) in &allocs {
            let refs = self.ledgers[worker].entry(id).or_insert(0);
            if *refs == 0 {
                delta += bytes;
            }
            *refs += 1;
        }
        self.chunk_allocs.insert(key, allocs);
        self.charge(worker, delta)
    }

    /// Drops one chunk's allocation refcounts on `worker`, returning the
    /// retained bytes whose last reference just went away.
    fn release_allocs(&mut self, worker: usize, key: ChunkKey) -> usize {
        let mut freed = 0usize;
        if let Some(allocs) = self.chunk_allocs.remove(&key) {
            for (id, bytes) in allocs {
                if let Some(refs) = self.ledgers[worker].get_mut(&id) {
                    *refs -= 1;
                    if *refs == 0 {
                        self.ledgers[worker].remove(&id);
                        freed += bytes;
                    }
                }
            }
        }
        freed
    }

    /// Reclaims one chunk's memory (and its real payload).
    fn free_chunk(&mut self, key: ChunkKey) {
        if let Some(st) = self.states.get_mut(&key) {
            if st.resident {
                st.resident = false;
                let w = self.spec.worker_of(st.band);
                let freed = self.release_allocs(w, key);
                self.worker_live[w] = self.worker_live[w].saturating_sub(freed);
            } else {
                // spilled chunks already released their ledger entries
                self.chunk_allocs.remove(&key);
            }
        }
        self.storage.remove(&key);
    }

    /// Charges `keys` as the inputs of a dispatch on `worker`: producers
    /// must have finished, and the receiving worker's NIC serialises all
    /// cross-worker bytes (flows into one consumer do not overlap for
    /// free) — paid once per worker, then cached. Spilled inputs
    /// additionally pay the disk tier, and a disk copy that outlived its
    /// crashed worker counts as recovered without recompute.
    fn charge_inputs(
        &mut self,
        keys: &[ChunkKey],
        worker: usize,
        read_back: ReadBack,
    ) -> XbResult<InputCost> {
        let mut cost = InputCost::default();
        for k in keys {
            let Some(&cs) = self.states.get(k) else {
                return Err(XbError::Plan(format!(
                    "input chunk {k} has no simulation state"
                )));
            };
            cost.arrival = cost.arrival.max(cs.finish);
            if self.spec.worker_of(cs.band) != worker && self.arrived.insert((*k, worker)) {
                // the wire carries the encoded envelope, not the view
                cost.recv_bytes += cs.enc_bytes;
                self.total_net_bytes += cs.enc_bytes;
            }
            cost.read_bytes += cs.nbytes;
            let track = match read_back {
                ReadBack::OnProducerBand => Track::band(cs.band),
                ReadBack::OnBand(band) => Track::band(band),
                ReadBack::NotCharged => continue,
            };
            if !cs.spilled {
                continue;
            }
            // read-back pays the encoded envelope off the disk tier
            let enc = cs.enc_bytes as u64;
            let args = [("chunk", *k), ("bytes", enc)];
            cost.disk_io += cs.enc_bytes as f64 / self.spec.disk_bandwidth;
            self.total_read_back_bytes += cs.enc_bytes;
            if trace::is_enabled() {
                trace::instant_at(Stage::ReadBack, "read_back", track, cs.finish, &args);
                trace::counter_add("sim.read_back_bytes", enc);
            }
            if cs.disk_orphan {
                self.total_recovered_spill += cs.enc_bytes;
                self.states.get_mut(k).expect("checked").disk_orphan = false;
                if trace::is_enabled() {
                    let at = cs.finish;
                    trace::instant_at(Stage::Recovery, "recovered_from_spill", track, at, &args);
                    trace::counter_add("sim.recovered_from_spill_bytes", enc);
                }
            }
        }
        Ok(cost)
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

    /// Places one published chunk on `band` at virtual time `finish`:
    /// records its meta and state, charges its retained footprint to the
    /// worker's ledger and stores the payload. A chunk is measured once, at
    /// its first publish; a `republish` (lineage replay) reuses the stored
    /// sizes, since the state survives loss.
    fn publish_chunk(
        &mut self,
        key: ChunkKey,
        payload: Arc<Payload>,
        band: usize,
        finish: f64,
        republish: bool,
    ) -> XbResult<()> {
        let nbytes = payload.nbytes();
        let enc_bytes = match self.states.get(&key) {
            Some(st) if republish => st.enc_bytes,
            _ => self.measure_payload(&payload),
        };
        self.metas.insert(
            key,
            ChunkMeta {
                nbytes,
                rows: payload.rows(),
                index: (0, 0), // authoritative (r,c) lives in the plan layout
            },
        );
        self.states.insert(
            key,
            ChunkState {
                band,
                finish,
                nbytes,
                enc_bytes,
                resident: true,
                spilled: false,
                disk_orphan: false,
            },
        );
        self.charge_chunk(self.spec.worker_of(band), key, &payload)?;
        if !republish && trace::is_enabled() {
            trace::observe_bytes("sim.chunk.bytes", nbytes as u64);
        }
        self.storage.insert(key, payload);
        Ok(())
    }

    /// Records how every node of `chunks` is produced, so lost chunks can
    /// be recomputed; `seq` is monotone in execution order across all
    /// graphs of the fetch, hence topological.
    fn record_lineage(&mut self, chunks: &ChunkGraph) {
        for node in &chunks.nodes {
            let rec = Arc::new(LineageNode {
                seq: self.lineage_seq,
                node: node.clone(),
            });
            self.lineage_seq += 1;
            for k in &node.outputs {
                self.lineage.insert(*k, Arc::clone(&rec));
            }
        }
    }

    // ---- fault injection + lineage recovery --------------------------------

    /// Fires every not-yet-fired plan event whose trigger is due.
    fn fire_due_faults(&mut self, events: &[FaultEvent]) {
        for (i, ev) in events.iter().enumerate() {
            if self.events_fired.get(i).copied().unwrap_or(true) {
                continue;
            }
            let due = match ev.at {
                FaultTrigger::Step(s) => self.dispatch_step >= s,
                FaultTrigger::VirtualTime(t) => self.virtual_now() >= t,
            };
            if due {
                self.events_fired[i] = true;
                self.fire_fault(ev.kind);
            }
        }
    }

    /// Destroys one chunk: the payload vanishes, the ledger releases its
    /// allocations, the state records it as neither resident nor spilled.
    /// Lineage (and any surviving spilled copy) is what recovery uses.
    fn lose_chunk(&mut self, key: ChunkKey) {
        let Some(st) = self.states.get(&key) else {
            return;
        };
        if st.resident {
            let band = st.band;
            let w = self.spec.worker_of(band);
            self.states.get_mut(&key).expect("checked").resident = false;
            let freed = self.release_allocs(w, key);
            self.worker_live[w] = self.worker_live[w].saturating_sub(freed);
            self.storage.remove(&key);
            self.lost.insert(key);
            if trace::is_enabled() {
                trace::instant_at(
                    Stage::Fault,
                    "chunk_lost",
                    Track::band(band),
                    self.virtual_now(),
                    &[("chunk", key), ("worker", w as u64)],
                );
                trace::counter_add("fault.chunks_lost", 1);
            }
        }
    }

    fn fire_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::WorkerCrash { worker } => {
                if worker >= self.spec.workers {
                    return;
                }
                let base = worker * self.spec.bands_per_worker;
                for b in base..base + self.spec.bands_per_worker {
                    self.band_dead[b] = true;
                }
                if trace::is_enabled() {
                    trace::instant_at(
                        Stage::Fault,
                        "worker_crash",
                        Track::band(base),
                        self.virtual_now(),
                        &[("worker", worker as u64), ("step", self.dispatch_step)],
                    );
                    trace::counter_add("fault.worker_crashes", 1);
                }
                // resident unspilled chunks die with the worker's memory;
                // spilled chunks survive on the disk tier and become the
                // fast recovery path. Keys are sorted so the victim order
                // is independent of hash-map iteration.
                let mut victims: Vec<ChunkKey> = self
                    .states
                    .iter()
                    .filter(|(_, st)| self.spec.worker_of(st.band) == worker)
                    .map(|(k, _)| *k)
                    .collect();
                victims.sort_unstable();
                for k in victims {
                    let st = *self.states.get(&k).expect("victim exists");
                    if st.resident {
                        self.lose_chunk(k);
                    } else if st.spilled {
                        self.states.get_mut(&k).expect("victim exists").disk_orphan = true;
                    }
                }
            }
            FaultKind::BandCrash { band } => {
                // an execution slot dies; the worker's memory survives
                if band < self.band_dead.len() {
                    self.band_dead[band] = true;
                    if trace::is_enabled() {
                        trace::instant_at(
                            Stage::Fault,
                            "band_crash",
                            Track::band(band),
                            self.virtual_now(),
                            &[("band", band as u64), ("step", self.dispatch_step)],
                        );
                        trace::counter_add("fault.band_crashes", 1);
                    }
                }
            }
            FaultKind::ChunkLoss { fraction } => {
                let mut keys: Vec<ChunkKey> = self
                    .states
                    .iter()
                    .filter(|(_, st)| st.resident && !st.spilled)
                    .map(|(k, _)| *k)
                    .collect();
                keys.sort_unstable();
                let n = ((keys.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
                let n = n.min(keys.len());
                // partial Fisher-Yates over the sorted key set with the
                // plan RNG: a deterministic victim sample
                if let Some(rng) = self.fault_rng.as_mut() {
                    for i in 0..n {
                        let j = i + rng.next_bounded((keys.len() - i) as u64) as usize;
                        keys.swap(i, j);
                    }
                }
                if trace::is_enabled() && n > 0 {
                    trace::instant_at(
                        Stage::Fault,
                        "chunk_loss",
                        Track::band(0),
                        self.virtual_now(),
                        &[("victims", n as u64), ("step", self.dispatch_step)],
                    );
                }
                for &k in &keys[..n] {
                    self.lose_chunk(k);
                }
            }
        }
    }

    /// Makes every key in `needed` readable again, recomputing lost ones
    /// from lineage. No-op when nothing is missing.
    fn ensure_inputs(&mut self, needed: &[ChunkKey], real_cpu: &mut f64) -> XbResult<()> {
        let mut missing: Vec<ChunkKey> = needed
            .iter()
            .copied()
            .filter(|k| !self.storage.contains_key(k))
            .collect();
        if missing.is_empty() {
            return Ok(());
        }
        missing.sort_unstable();
        self.recover(&missing, real_cpu)
    }

    /// Least-loaded surviving worker's first live band — where lineage
    /// recomputation runs.
    fn recovery_band(&self) -> XbResult<usize> {
        let mut best: Option<(usize, usize)> = None; // (live_bytes, band)
        for w in 0..self.spec.workers {
            let base = w * self.spec.bands_per_worker;
            let Some(b) = (base..base + self.spec.bands_per_worker).find(|&b| !self.band_dead[b])
            else {
                continue;
            };
            if best.is_none_or(|(lv, _)| self.worker_live[w] < lv) {
                best = Some((self.worker_live[w], b));
            }
        }
        best.map(|(_, b)| b)
            .ok_or_else(|| XbError::Plan("no surviving band to recover on".into()))
    }

    /// Lineage-based recovery: walks producer records back through every
    /// unavailable input to find the minimal ancestor closure, then
    /// replays it in production order on one surviving band, paying
    /// scheduling, transfer, disk and *measured* kernel costs in virtual
    /// time. Chunks that were published before being lost are republished
    /// (and recharged to the ledger); purely internal ancestors stay
    /// scratch-only.
    fn recover(&mut self, targets: &[ChunkKey], real_cpu: &mut f64) -> XbResult<()> {
        // 1. minimal closure over lineage
        let mut nodes: Vec<Arc<LineageNode>> = Vec::new();
        let mut seen_nodes: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut planned: std::collections::HashSet<ChunkKey> = std::collections::HashSet::new();
        let mut stack: Vec<ChunkKey> = targets.to_vec();
        while let Some(k) = stack.pop() {
            if self.storage.contains_key(&k) || planned.contains(&k) {
                continue;
            }
            let Some(rec) = self.lineage.get(&k) else {
                return Err(XbError::Plan(format!(
                    "chunk {k} was lost and has no lineage to recover from"
                )));
            };
            let rec = Arc::clone(rec);
            if seen_nodes.insert(rec.seq) {
                planned.extend(rec.node.outputs.iter().copied());
                stack.extend(rec.node.inputs.iter().copied());
                nodes.push(rec);
            }
        }
        nodes.sort_by_key(|n| n.seq);

        let band = self.recovery_band()?;
        let worker = self.spec.worker_of(band);
        let mut clock = self.band_free[band];
        let mut scratch: HashMap<ChunkKey, Arc<Payload>> = HashMap::new();
        let mut transient_bytes = 0usize;
        let want: HashSet<ChunkKey> = targets.iter().copied().collect();

        // 2. replay in production order (seq is topological)
        for rec in &nodes {
            let stored: Vec<ChunkKey> = rec
                .node
                .inputs
                .iter()
                .copied()
                .filter(|k| !scratch.contains_key(k))
                .collect();
            let cost = self.charge_inputs(&stored, worker, ReadBack::OnBand(band))?;
            let (arrival, disk_io) = (cost.arrival, cost.disk_io);
            let net_io = cost.recv_bytes as f64 / self.spec.net_bandwidth;
            let mut storage_io = cost.read_bytes as f64 / self.spec.storage_bandwidth;

            // republish only what the fault destroyed (or what the caller
            // demands): ancestors that already had their last read —
            // refcount-freed or fused-internal — stay scratch, so recovery
            // never resurrects memory nobody will read
            let timer = Instant::now();
            let mut io = SimIo {
                storage: &self.storage,
                compact_slack: self.spec.compact_slack,
                published: Vec::new(),
            };
            let lost = &self.lost;
            let publishes = |k| lost.contains(&k) || want.contains(&k);
            let out_bytes = exec::run_node(&rec.node, &mut scratch, publishes, &mut io)?;
            let published = io.published;
            let measured = timer.elapsed().as_secs_f64();
            *real_cpu += measured;

            let published_bytes: usize = published.iter().map(|(_, p)| p.nbytes()).sum();
            transient_bytes += out_bytes - published_bytes;
            storage_io += published_bytes as f64 / self.spec.storage_bandwidth;

            // recompute dispatches pay the scheduler like any other subtask
            clock = self.dispatch_start(clock.max(arrival));
            let replay_start = clock;
            clock += net_io + storage_io + measured + disk_io;
            if trace::is_enabled() {
                trace::span_at(
                    Stage::Recovery,
                    format!("recompute {}", rec.node.op.name()),
                    Track::band(band),
                    replay_start,
                    clock - replay_start,
                    &[("seq", rec.seq), ("worker", worker as u64)],
                );
                trace::counter_add("sim.recomputed_subtasks", 1);
            }

            for (key, payload) in published {
                // later replay nodes read it like any other replayed output
                scratch.insert(key, Arc::clone(&payload));
                self.publish_chunk(key, payload, band, clock, true)?;
            }

            self.total_recomputed += 1;
            for key in &rec.node.outputs {
                self.lost.remove(key);
            }
            if let Some(first) = rec.node.outputs.first() {
                self.recovery_log.push(*first);
            }
        }
        self.band_free[band] = clock;

        // unpublished scratch was the recompute's transient working set
        if transient_bytes > 0 {
            self.charge(worker, transient_bytes)?;
            self.worker_live[worker] = self.worker_live[worker].saturating_sub(transient_bytes);
        }
        Ok(())
    }

    fn snap(&self) -> CounterSnap {
        CounterSnap {
            net: self.total_net_bytes,
            spill: self.total_spilled_bytes,
            read_back: self.total_read_back_bytes,
            retries: self.total_retries,
            recomputed: self.total_recomputed,
            recovered: self.total_recovered_spill,
            enc_raw: self.total_encoded_raw,
            enc_wire: self.total_encoded_wire,
        }
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

        // fault schedule for this graph (armed per fetch, shared across
        // the fetch's partial executions)
        let faults_on = self.faults_on();
        let (events, transient_p) = match (&self.spec.fault_plan, faults_on) {
            (Some(plan), true) => (plan.events.clone(), plan.transient_failure_p),
            _ => (Vec::new(), 0.0),
        };
        if faults_on {
            self.record_lineage(&graph.chunks);
        }
        let last_consumer = last_consumers(&graph);

        let retile = self.spec.retile.unwrap_or_else(retile::retile_from_env);
        let retile_params = RetileParams {
            threshold: self.spec.retile_threshold,
            cap_bytes: self.spec.retile_cap_bytes,
        };
        let synth = SynthKeys::for_graph(&graph.chunks);

        GraphRun {
            graph,
            next: 0,
            t0,
            stats: ExecStats::default(),
            last_finish: t0,
            faults_on,
            events,
            transient_p,
            retry: self.spec.retry,
            last_consumer,
            retile,
            retile_params,
            synth,
            done_waves: HashSet::new(),
            ext_bytes_seen: Vec::new(),
        }
    }

    /// Attempts a skew-aware re-tile splice at the run's dispatch head
    /// (dynamic tiling v2): when the head is a shuffle wave whose harvested
    /// partition histogram is imbalanced past the spec's threshold,
    /// Algorithm 1 is re-applied to the wave and the pending tail of the
    /// graph is rewritten in place. All index-derived bookkeeping
    /// (lineage, last-consumer refcounts) is refreshed after a splice.
    fn maybe_retile_run(&mut self, run: &mut GraphRun) {
        let states = &self.states;
        let metas = &self.metas;
        let storage = &self.storage;
        let info = |k: ChunkKey| -> Option<(u64, u64)> {
            let st = states.get(&k)?;
            let rows = metas.get(&k).map(|m| m.rows as u64).unwrap_or(0);
            Some((st.nbytes as u64, rows))
        };
        let peek = |k: ChunkKey| -> Option<Arc<Payload>> { storage.get(&k).cloned() };
        let Some(out) = retile::maybe_retile(
            &mut run.graph,
            run.next,
            &run.retile_params,
            &mut run.synth,
            &mut run.done_waves,
            &info,
            &peek,
        ) else {
            return;
        };
        run.stats.retiled_partitions += out.retiled_partitions;

        // the splice rewrote the pending tail: refresh everything derived
        // from node or subtask indices. Lineage records for the whole
        // graph are re-registered with fresh (still topological) seqs so
        // recovery replays the spliced shape, not the pre-splice one.
        if run.faults_on {
            self.record_lineage(&run.graph.chunks);
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
                    ("rebalanced", out.retiled_partitions as u64),
                    ("splits", out.splits as u64),
                    ("coalesces", out.coalesces as u64),
                ],
            );
            trace::counter_add("sim.retiled_partitions", out.retiled_partitions as u64);
        }
    }

    /// Clone placement for a speculated dispatch: the surviving band with
    /// the fewest dispatches so far (primary band excluded, ties to the
    /// lowest index) — a deterministic idleness proxy.
    fn clone_band_for(&self, primary: usize) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for b in 0..self.spec.n_bands() {
            if b == primary || self.band_dead[b] {
                continue;
            }
            let d = self.band_dispatches[b];
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, b));
            }
        }
        best.map(|(_, b)| b)
    }

    /// Dispatches the run's next subtask; returns `Ok(true)` while more
    /// remain. One call = one dispatch on the virtual cluster, so a
    /// coordinator interleaving several runs shares the bands at subtask
    /// granularity.
    pub fn step_graph(&mut self, run: &mut GraphRun) -> XbResult<bool> {
        if run.is_done() {
            return Ok(false);
        }
        let before = self.snap();
        let si = run.next;
        // skew-aware re-tiling happens at the quiesce point right before a
        // shuffle wave's first reduce-side dispatch: every map-side partial
        // has been produced, so the wave's partition histogram is complete
        if run.retile == RetileMode::Auto {
            self.maybe_retile_run(run);
        }
        run.stats.subtasks += 1;
        if run.faults_on {
            self.fire_due_faults(&run.events);
            if self.band_dead.iter().all(|d| *d) {
                return Err(XbError::Plan(format!(
                    "fault plan killed every band; subtask {si} has no survivor to run on"
                )));
            }
            // lineage recovery: rematerialise lost inputs before
            // placement so locality sees the recovered chunks
            let needed = run.graph.subtasks[si].external_inputs.clone();
            self.ensure_inputs(&needed, &mut run.stats.real_cpu_seconds)?;
        }
        let st = &run.graph.subtasks[si];
        self.dispatch_step += 1;
        let band = self.pick_band(&st.external_inputs);
        let worker = self.spec.worker_of(band);
        self.band_dispatches[band] += 1;

        let cost = self.charge_inputs(&st.external_inputs, worker, ReadBack::OnProducerBand)?;
        let (arrival, disk_io) = (cost.arrival, cost.disk_io);
        let net_io = cost.recv_bytes as f64 / self.spec.net_bandwidth;
        // storage-service traffic: reading external inputs from the
        // shared tier (publishing is charged when outputs are stored)
        let ext_read_bytes = cost.read_bytes;
        let mut storage_io = ext_read_bytes as f64 / self.spec.storage_bandwidth;

        // real execution, measured; its peak transient working set is
        // charged below (fusion saves storage traffic, not the memory the
        // computation itself needs)
        let timer = Instant::now();
        let mut io = SimIo {
            storage: &self.storage,
            compact_slack: self.spec.compact_slack,
            published: Vec::new(),
        };
        let peak_extra = exec::run_subtask(&run.graph, si, &mut io)?;
        let produced = io.published;
        let measured = timer.elapsed().as_secs_f64();
        run.stats.real_cpu_seconds += measured;

        // speculation trigger: a dispatch whose external input bytes dwarf
        // the median over this run's completed dispatches is a predicted
        // straggler — clone it onto the least-dispatched surviving band.
        // The signal is bytes, never virtual time (which embeds measured
        // host CPU and would make the decision nondeterministic).
        let clone_band = if self.spec.speculate
            && run.ext_bytes_seen.len() >= self.spec.speculate_min_samples
        {
            let mut sorted = run.ext_bytes_seen.clone();
            sorted.sort_unstable();
            let median = sorted[sorted.len() / 2];
            if median > 0 && ext_read_bytes as f64 > self.spec.speculate_factor * median as f64 {
                self.clone_band_for(band)
            } else {
                None
            }
        } else {
            None
        };

        // transient fault injection: each attempt fails independently with
        // probability p (one seeded draw per attempt); every failed attempt
        // burns the measured kernel time plus an exponential backoff in
        // virtual time. The kernel itself ran once above — a speculated
        // clone is an independent *attempt stream*, drawn off the plan RNG
        // right after the primary's (a fixed order), and the race winner is
        // the copy with fewer failed attempts: ties favour the primary, an
        // exhausted copy loses to a surviving one, and both exhausting the
        // retry budget fails the run exactly like the unspeculated path.
        let mut primary = (0usize, 0.0f64, false);
        let mut clone_draw = None;
        if run.transient_p > 0.0 {
            let rng = self.fault_rng.as_mut().expect("rng armed when p > 0");
            primary = draw_attempts(rng, run.transient_p, run.retry, measured);
            if clone_band.is_some() {
                clone_draw = Some(draw_attempts(rng, run.transient_p, run.retry, measured));
            }
        } else if clone_band.is_some() {
            clone_draw = Some((0usize, 0.0f64, false));
        }
        let (transient_failures, attempt_overhead, primary_exhausted) = primary;
        let clone_wins = match clone_draw {
            Some((cf, _, cex)) => {
                if primary_exhausted && cex {
                    return Err(XbError::Fault {
                        subtask: si,
                        attempts: transient_failures,
                    });
                }
                primary_exhausted || (!cex && cf < transient_failures)
            }
            None => {
                if primary_exhausted {
                    return Err(XbError::Fault {
                        subtask: si,
                        attempts: transient_failures,
                    });
                }
                false
            }
        };

        // virtual bookkeeping
        // publishing outputs pays the storage tier too
        let published_bytes: usize = produced.iter().map(|(_, p)| p.nbytes()).sum();
        storage_io += published_bytes as f64 / self.spec.storage_bandwidth;

        let start = self.dispatch_start(self.band_free[band].max(arrival));
        let primary_finish = start + net_io + storage_io + measured + disk_io + attempt_overhead;

        // race the clone in virtual time: both copies occupy their bands
        // until the (counter-predetermined) winner lands, at which point
        // the loser is cancelled and its band reclaimed
        let (band, worker, start, finish, winner_failures) =
            if let (Some(cb), Some((cf, coh, _))) = (clone_band, clone_draw) {
                run.stats.speculative_launched += 1;
                self.band_dispatches[cb] += 1;
                let cw = self.spec.worker_of(cb);
                // the clone's worker fetches remote inputs it has not cached
                let clone_recv = self
                    .charge_inputs(&st.external_inputs, cw, ReadBack::NotCharged)?
                    .recv_bytes;
                let clone_start = self.dispatch_start(self.band_free[cb].max(arrival));
                let clone_finish = clone_start
                    + clone_recv as f64 / self.spec.net_bandwidth
                    + storage_io
                    + measured
                    + coh;
                if trace::is_enabled() {
                    trace::instant_at(
                        Stage::Speculate,
                        "speculate",
                        Track::band(cb),
                        clone_start,
                        &[
                            ("subtask", si as u64),
                            ("primary_band", band as u64),
                            ("clone_won", clone_wins as u64),
                        ],
                    );
                    trace::counter_add("sim.speculative_launched", 1);
                    if clone_wins {
                        trace::counter_add("sim.speculative_won", 1);
                    }
                }
                let (wb, ws, wf, wfail, lb, lf) = if clone_wins {
                    run.stats.speculative_won += 1;
                    (cb, clone_start, clone_finish, cf, band, primary_finish)
                } else {
                    (
                        band,
                        start,
                        primary_finish,
                        transient_failures,
                        cb,
                        clone_finish,
                    )
                };
                // the loser's band frees when the winner lands (never rewound
                // below what the band had already committed to)
                self.band_free[lb] = self.band_free[lb].max(lf.min(wf));
                (wb, self.spec.worker_of(wb), ws, wf, wfail)
            } else {
                (band, worker, start, primary_finish, transient_failures)
            };
        if run.transient_p > 0.0 {
            self.total_retries += winner_failures;
        }
        self.band_free[band] = finish;
        run.last_finish = run.last_finish.max(finish);
        if trace::is_enabled() {
            let name = run.graph.subtask_label(si);
            if let Some(t) = self.tenant_track {
                // mirror the dispatch on the tenant's lane so Chrome
                // renders per-tenant occupancy alongside the band lanes
                trace::span_at(
                    Stage::Execute,
                    name.clone(),
                    Track::tenant(t),
                    start,
                    finish - start,
                    &[("subtask", si as u64), ("band", band as u64)],
                );
            }
            trace::span_at(
                Stage::Execute,
                name,
                Track::band(band),
                start,
                finish - start,
                &[
                    ("subtask", si as u64),
                    ("worker", worker as u64),
                    ("step", self.dispatch_step),
                ],
            );
            trace::observe_seconds("sim.kernel.seconds", measured);
            if winner_failures > 0 {
                trace::instant_at(
                    Stage::Retry,
                    "transient_retries",
                    Track::band(band),
                    start,
                    &[("subtask", si as u64), ("attempts", winner_failures as u64)],
                );
                trace::counter_add("sim.retries", winner_failures as u64);
            }
        }

        // the transient working set is held only while the subtask runs
        self.charge(worker, peak_extra)?;
        self.worker_live[worker] = self.worker_live[worker].saturating_sub(peak_extra);

        for (key, payload) in produced {
            self.publish_chunk(key, payload, band, finish, false)?;
        }
        if trace::is_enabled() {
            trace::counter_at(
                format!("worker {worker} live_bytes"),
                Track::band(band),
                finish,
                self.worker_live[worker] as f64,
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

        run.ext_bytes_seen.push(ext_read_bytes as u64);
        run.next += 1;
        run.absorb(before, self.snap());

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

    /// Settles a fully-stepped run: frees orphaned outputs, recovers
    /// fault-lost retained chunks, enforces the deadline and returns the
    /// run's statistics (bit-identical to what the one-shot
    /// [`Executor::execute`] path reports).
    pub fn end_graph(&mut self, mut run: GraphRun) -> XbResult<ExecStats> {
        debug_assert!(run.is_done(), "end_graph on a run with subtasks pending");
        let before = self.snap();

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

        if run.faults_on {
            // retained keys must outlive this graph (future tiling or the
            // final gather reads them): rematerialise any that a fault
            // destroyed after their producing subtask ran
            let mut lost_retained: Vec<ChunkKey> = run
                .graph
                .retained
                .iter()
                .copied()
                .filter(|k| self.lost.contains(k))
                .collect();
            if !lost_retained.is_empty() {
                lost_retained.sort_unstable();
                self.recover(&lost_retained, &mut run.stats.real_cpu_seconds)?;
            }
            // retained chunks whose memory copy died with a crashed worker
            // but whose spilled copy survived: the gather reads them off
            // the disk tier — pay the read-back now, on a surviving band
            let mut orphan_retained: Vec<ChunkKey> = run
                .graph
                .retained
                .iter()
                .copied()
                .filter(|k| self.states.get(k).is_some_and(|st| st.disk_orphan))
                .collect();
            if !orphan_retained.is_empty() {
                orphan_retained.sort_unstable();
                let band = self.recovery_band()?;
                let mut disk_io = 0.0;
                for k in &orphan_retained {
                    let st = self.states.get_mut(k).expect("filtered on state");
                    st.disk_orphan = false;
                    disk_io += st.enc_bytes as f64 / self.spec.disk_bandwidth;
                    self.total_read_back_bytes += st.enc_bytes;
                    self.total_recovered_spill += st.enc_bytes;
                    let enc = st.enc_bytes as u64;
                    if trace::is_enabled() {
                        let ts = self.band_free[band];
                        trace::instant_at(
                            Stage::Recovery,
                            "recovered_from_spill",
                            Track::band(band),
                            ts,
                            &[("chunk", *k), ("bytes", enc)],
                        );
                        trace::counter_add("sim.recovered_from_spill_bytes", enc);
                        trace::counter_add("sim.read_back_bytes", enc);
                    }
                }
                self.band_free[band] += disk_io;
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
        run.absorb(before, self.snap());
        if trace::is_enabled() {
            trace::counter_add("sim.encoded_raw_bytes", run.stats.encoded_raw_bytes as u64);
            trace::counter_add(
                "sim.encoded_wire_bytes",
                run.stats.encoded_wire_bytes as u64,
            );
        }
        Ok(ExecStats {
            makespan: makespan_total - run.t0,
            peak_worker_bytes: self.worker_peak.iter().copied().max().unwrap_or(0),
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
        let dropped: HashSet<ChunkKey> = keys.iter().copied().collect();
        for k in keys {
            self.free_chunk(*k);
            self.states.remove(k);
            self.metas.remove(k);
            self.lost.remove(k);
            self.chunk_allocs.remove(k);
        }
        self.arrived.retain(|(k, _)| !dropped.contains(k));
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
                missing_inputs: st
                    .external_inputs
                    .iter()
                    .copied()
                    .filter(|k| !self.storage.contains_key(k))
                    .collect(),
            })
            .collect()
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

/// Draws one copy's transient-failure attempts off the plan RNG: returns
/// `(failures, virtual_overhead, exhausted)`. Stops at the first
/// successful attempt or at the draw that exceeds the retry budget —
/// exactly the stream the unspeculated path consumed before speculation
/// existed, so fault plans replay bit-identically with speculation off.
fn draw_attempts(
    rng: &mut Xoshiro256,
    p: f64,
    retry: crate::fault::RetryPolicy,
    measured: f64,
) -> (usize, f64, bool) {
    let mut failures = 0usize;
    let mut overhead = 0.0f64;
    let mut backoff = retry.backoff_base;
    while rng.gen_bool(p) {
        failures += 1;
        if failures > retry.max_retries {
            return (failures, overhead, true);
        }
        overhead += measured + backoff;
        backoff *= retry.backoff_factor;
    }
    (failures, overhead, false)
}

impl MetaView for SimExecutor {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.metas.get(&key).copied()
    }
}

impl Executor for SimExecutor {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        let mut run = self.begin_graph(graph.clone());
        while self.step_graph(&mut run)? {}
        self.end_graph(run)
    }

    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.storage.get(&key).cloned()
    }

    fn clear(&mut self) {
        self.storage.clear();
        self.metas.clear();
        self.states.clear();
        self.band_free.iter_mut().for_each(|b| *b = 0.0);
        self.worker_live.iter_mut().for_each(|w| *w = 0);
        self.ledgers.iter_mut().for_each(|l| l.clear());
        self.chunk_allocs.clear();
        self.source_rr = 0;
        self.any_rr = 0;
        self.arrived.clear();
        self.sched_clock = 0.0;
        self.band_dispatches.iter_mut().for_each(|d| *d = 0);
        self.arm_faults();
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
                    op_fusion: false,
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
                op_fusion: false,
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

    #[test]
    fn shared_buffer_charged_once_and_freed_last() {
        // four zero-copy views over one parent: the ledger must charge the
        // parent's buffers once, keep them charged while any view is
        // resident, and free them when the last view goes away
        let spec = ClusterSpec::new(1, 1 << 30);
        let mut ex = SimExecutor::new(spec);
        let parent = sample_df(10_000);
        let retained = parent.retained_nbytes();
        let parts = xorbits_dataframe::partition::split_even(&parent, 4);
        for (i, p) in parts.iter().enumerate() {
            let key = i as ChunkKey + 1;
            ex.states.insert(
                key,
                ChunkState {
                    band: 0,
                    finish: 0.0,
                    nbytes: p.nbytes(),
                    enc_bytes: xorbits_storage::encoded_size(&payload_to_value(&Payload::Df(
                        p.clone(),
                    ))),
                    resident: true,
                    spilled: false,
                    disk_orphan: false,
                },
            );
            ex.charge_chunk(0, key, &Payload::Df(p.clone())).unwrap();
        }
        assert_eq!(ex.worker_live[0], retained, "shared parent charged once");
        for key in 1..4 {
            ex.free_chunk(key);
            assert_eq!(ex.worker_live[0], retained, "parent pinned by live views");
        }
        ex.free_chunk(4);
        assert_eq!(ex.worker_live[0], 0);
        assert!(ex.ledgers[0].is_empty());
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
        let spec = ClusterSpec::new(1, retained + retained / 2);
        let mut ex = SimExecutor::new(spec);
        for (i, p) in parts.iter().enumerate() {
            let key = i as ChunkKey + 1;
            ex.states.insert(
                key,
                ChunkState {
                    band: 0,
                    finish: i as f64,
                    nbytes: p.nbytes(),
                    enc_bytes: xorbits_storage::encoded_size(&payload_to_value(&Payload::Df(
                        p.clone(),
                    ))),
                    resident: true,
                    spilled: false,
                    disk_orphan: false,
                },
            );
            ex.charge_chunk(0, key, &Payload::Df(p.clone())).unwrap();
        }
        assert_eq!(ex.worker_live[0], retained);
        let fresh = sample_df(1000);
        ex.states.insert(
            9,
            ChunkState {
                band: 0,
                finish: 9.0,
                nbytes: fresh.nbytes(),
                enc_bytes: xorbits_storage::encoded_size(&payload_to_value(&Payload::Df(
                    fresh.clone(),
                ))),
                resident: true,
                spilled: false,
                disk_orphan: false,
            },
        );
        ex.charge_chunk(0, 9, &Payload::Df(fresh.clone())).unwrap();
        assert!(ex.states[&1].spilled, "coldest sharer spilled first");
        assert!(
            ex.states[&2].spilled,
            "freeing 0 bytes must not satisfy the loop"
        );
        assert_eq!(ex.worker_live[0], fresh.retained_nbytes());
        // the disk tier is charged the *measured* encoded envelopes, which
        // differ from the logical view bytes (header/offsets overhead)
        let enc = |df: &DataFrame| {
            xorbits_storage::encoded_size(&payload_to_value(&Payload::Df(df.clone())))
        };
        assert_eq!(ex.total_spilled_bytes, enc(&parts[0]) + enc(&parts[1]));
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

    use crate::fault::{FaultPlan, RetryPolicy};
    use xorbits_core::session::ExecStats;

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
