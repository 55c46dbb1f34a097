//! The chunk table: every published chunk's payload, meta, placement and
//! tier, plus what moving it costs.
//!
//! This module decides *when a chunk's wire size is measured* (once, the
//! first time it leaves its worker's memory — a cross-worker read or a
//! spill — under the spec's transport encoding; a chunk that never moves
//! is never encoded) and *what a read costs*: cross-worker bytes are paid
//! once per `(chunk, worker)` and then cached, spilled inputs additionally
//! pay the disk tier, and a disk copy that outlived its crashed worker
//! counts as recovered without recompute the first time it is read back.
//! Network, spill and read-back all charge the same measured envelope, so
//! the cost model matches the real storage service byte for byte — and the
//! host seconds the measuring took are charged to virtual time as codec CPU.

use crate::cluster::ClusterSpec;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use xorbits_core::chunk::{ChunkKey, ChunkMeta, Payload};
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::exec::{self, ChunkIo};
use xorbits_core::session::ExecStats;
use xorbits_storage::{EncodeWorkspace, EncodingMode};

/// Retained-vs-logical slack tolerated for published chunks: a payload
/// that is a zero-copy view may pin its parent allocation, so when
/// `retained > logical × COMPACT_SLACK` it is materialised
/// ([`Payload::compact`]) at publish time — a thin slice cannot hold a
/// huge buffer hostage.
const COMPACT_SLACK: f64 = 2.0;

#[derive(Debug, Clone, Copy)]
struct ChunkState {
    band: usize,
    finish: f64,
    /// Logical (viewed) bytes — what storage-tier traffic costs. Memory
    /// charges use the ledger's retained allocations instead.
    nbytes: usize,
    rows: usize,
    /// *Measured* wire bytes of the chunk's envelope: a memo
    /// [`Chunks::wire_bytes`] fills the first time the chunk moves, `None`
    /// until then.
    enc_bytes: Option<usize>,
    resident: bool,
    spilled: bool,
    /// Spilled chunk whose owning worker has since crashed: the disk copy
    /// survives, and its first read-back counts as spill-tier recovery.
    disk_orphan: bool,
}

/// One spilled chunk read off the disk tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ReadBack {
    pub key: ChunkKey,
    /// Encoded envelope bytes read.
    pub bytes: usize,
    /// Band and virtual time the chunk was produced on.
    pub band: usize,
    pub at: f64,
    /// The copy had outlived its crashed worker (spill-tier recovery).
    pub recovered: bool,
}

/// What bringing a dispatch's inputs to its worker costs.
#[derive(Default)]
pub(crate) struct InputCost {
    /// Latest producer finish time.
    pub arrival: f64,
    /// Encoded bytes crossing to this worker for the first time.
    pub recv_bytes: usize,
    /// Logical bytes read off the storage service.
    pub read_bytes: usize,
    /// Spilled inputs read back from the disk tier.
    pub read_backs: Vec<ReadBack>,
    /// Measured codec CPU: the encoder passes behind these inputs' first
    /// crossings and behind any spill since the last dispatch was charged.
    pub codec_seconds: f64,
}

impl InputCost {
    /// Virtual seconds of IO for a dispatch that also publishes
    /// `published_bytes`: the receiving worker's NIC serialises all
    /// cross-worker bytes (flows into one consumer do not overlap for
    /// free), both directions of storage-service traffic pay the shared
    /// tier, read-backs pay the disk, codec CPU is paid like kernel time.
    pub(crate) fn io_seconds(&self, spec: &ClusterSpec, published_bytes: usize) -> f64 {
        let disk_bytes: usize = self.read_backs.iter().map(|rb| rb.bytes).sum();
        self.recv_bytes as f64 / spec.net_bandwidth
            + (self.read_bytes + published_bytes) as f64 / spec.storage_bandwidth
            + disk_bytes as f64 / spec.disk_bandwidth
            + self.codec_seconds
    }
}

/// The table as a running subtask's chunk source and sink: inputs come
/// straight from the payload map; published outputs are compacted and held
/// back until the dispatch's virtual-time bookkeeping has placed them.
pub(crate) struct SimIo<'a> {
    storage: &'a HashMap<ChunkKey, Arc<Payload>>,
    pub published: Vec<(ChunkKey, Arc<Payload>)>,
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
        payload.compact(COMPACT_SLACK);
        self.published.push((key, Arc::new(payload)));
        Ok(())
    }
}

pub(crate) struct Chunks {
    storage: HashMap<ChunkKey, Arc<Payload>>,
    states: HashMap<ChunkKey, ChunkState>,
    /// Chunks already fetched to a worker: remote reads are paid once per
    /// worker and cached (how a broadcast stays cheap in real clusters).
    arrived: HashSet<(ChunkKey, usize)>,
    /// Transport encoding the cost model charges (the spec's).
    encoding: EncodingMode,
    /// Persistent encode workspace: the per-chunk size probe runs the real
    /// chooser without re-allocating its dictionary table and staging.
    enc_ws: EncodeWorkspace,
    /// Host seconds spent in that probe and not yet charged to a dispatch.
    codec_debt: f64,
}

impl Chunks {
    pub(crate) fn new(encoding: EncodingMode) -> Chunks {
        Chunks {
            storage: HashMap::new(),
            states: HashMap::new(),
            arrived: HashSet::new(),
            encoding,
            enc_ws: EncodeWorkspace::new(),
            codec_debt: 0.0,
        }
    }

    pub(crate) fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.storage.get(&key).cloned()
    }

    pub(crate) fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.states.get(&key).map(|st| ChunkMeta {
            nbytes: st.nbytes,
            rows: st.rows,
        })
    }

    /// Logical bytes of `key` and the virtual time it was published.
    pub(crate) fn size_and_finish(&self, key: ChunkKey) -> Option<(usize, f64)> {
        self.states.get(&key).map(|st| (st.nbytes, st.finish))
    }

    /// Whether `key`'s payload is readable (in memory or on the disk tier).
    pub(crate) fn readable(&self, key: ChunkKey) -> bool {
        self.storage.contains_key(&key)
    }

    /// The keys of `keys` that are not readable, sorted.
    pub(crate) fn missing(&self, keys: &[ChunkKey]) -> Vec<ChunkKey> {
        let mut missing: Vec<ChunkKey> = keys
            .iter()
            .copied()
            .filter(|k| !self.readable(*k))
            .collect();
        missing.sort_unstable();
        missing
    }

    /// A running subtask's view of the table.
    pub(crate) fn io(&self) -> SimIo<'_> {
        SimIo {
            storage: &self.storage,
            published: Vec::new(),
        }
    }

    /// Band holding the largest of `keys` (the locality target, §V-B).
    pub(crate) fn largest_band(&self, keys: &[ChunkKey]) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None; // (nbytes, band)
        for st in keys.iter().filter_map(|k| self.states.get(k)) {
            if best.is_none_or(|(nb, _)| st.nbytes > nb) {
                best = Some((st.nbytes, st.band));
            }
        }
        best.map(|(_, band)| band)
    }

    /// Charges `keys` as the inputs of a dispatch on `worker`.
    pub(crate) fn charge_inputs(
        &mut self,
        keys: &[ChunkKey],
        worker: usize,
        spec: &ClusterSpec,
        stats: &mut ExecStats,
    ) -> XbResult<InputCost> {
        let mut cost = InputCost::default();
        for k in keys {
            let Some(&cs) = self.states.get(k) else {
                return Err(XbError::Plan(format!(
                    "input chunk {k} has no simulation state"
                )));
            };
            cost.arrival = cost.arrival.max(cs.finish);
            if spec.worker_of(cs.band) != worker && self.arrived.insert((*k, worker)) {
                // the wire carries the encoded envelope, not the view
                let enc_bytes = self.wire_bytes(*k, stats)?;
                cost.recv_bytes += enc_bytes;
                stats.net_bytes += enc_bytes;
            }
            cost.read_bytes += cs.nbytes;
            if cs.spilled {
                cost.read_backs.extend(self.read_back(*k, stats));
            }
        }
        cost.codec_seconds = std::mem::take(&mut self.codec_debt);
        Ok(cost)
    }

    /// `key`'s wire size under the spec's encoding: the real chooser pass
    /// the first time the chunk moves, the memo after. That first pass
    /// counts as encoder traffic and its host seconds join `codec_debt`;
    /// a chunk with no payload left to encode is a `Plan` error.
    fn wire_bytes(&mut self, key: ChunkKey, stats: &mut ExecStats) -> XbResult<usize> {
        let gone = || XbError::Plan(format!("chunk {key} moved with no payload left to encode"));
        let st = self.states.get_mut(&key).ok_or_else(gone)?;
        if let Some(enc_bytes) = st.enc_bytes {
            return Ok(enc_bytes);
        }
        let payload = self.storage.get(&key).ok_or_else(gone)?;
        let timer = Instant::now();
        let sz = self.enc_ws.measure(payload, self.encoding);
        self.codec_debt += timer.elapsed().as_secs_f64();
        stats.encoded_raw_bytes += sz.raw;
        stats.encoded_wire_bytes += sz.wire;
        st.enc_bytes = Some(sz.wire);
        Ok(sz.wire)
    }

    /// Reads `key` off the disk tier if that is where it lives: counts the
    /// encoded envelope as read back and, the first time for a copy whose
    /// worker crashed, as recovered from spill.
    fn read_back(&mut self, key: ChunkKey, stats: &mut ExecStats) -> Option<ReadBack> {
        let st = self.states.get_mut(&key).filter(|st| st.spilled)?;
        let bytes = st.enc_bytes?; // measured when it spilled
        let recovered = std::mem::take(&mut st.disk_orphan);
        stats.read_back_bytes += bytes;
        if recovered {
            stats.recovered_from_spill_bytes += bytes;
        }
        Some(ReadBack {
            key,
            bytes,
            band: st.band,
            at: st.finish,
            recovered,
        })
    }

    /// Records a chunk published on `band` at virtual time `finish` as
    /// resident. Nothing is encoded here: the wire size is measured when
    /// the chunk first moves. A `republish` (lineage replay) keeps the size
    /// an earlier move measured, since the state survives loss. The caller
    /// charges the ledger.
    pub(crate) fn publish(
        &mut self,
        key: ChunkKey,
        payload: Arc<Payload>,
        band: usize,
        finish: f64,
        republish: bool,
    ) {
        let memo = self.states.get(&key).filter(|_| republish);
        let state = ChunkState {
            band,
            finish,
            nbytes: payload.nbytes(),
            rows: payload.rows(),
            enc_bytes: memo.and_then(|st| st.enc_bytes),
            resident: true,
            spilled: false,
            disk_orphan: false,
        };
        self.states.insert(key, state);
        self.storage.insert(key, payload);
    }

    /// Moves an evicted chunk to the disk tier: the tier receives the
    /// chunk's *encoded envelope*, not its logical view — measured now if
    /// the chunk never moved before. Returns `(encoded bytes, band)`.
    pub(crate) fn spill(&mut self, key: ChunkKey, stats: &mut ExecStats) -> Option<(usize, usize)> {
        let bytes = self.wire_bytes(key, stats).ok()?;
        let st = self.states.get_mut(&key)?;
        st.spilled = true;
        st.resident = false;
        stats.spilled_bytes += bytes;
        Some((bytes, st.band))
    }

    /// Drops `key`'s payload; its state stays, so late readers still see
    /// arrival times.
    pub(crate) fn free(&mut self, key: ChunkKey) {
        if let Some(st) = self.states.get_mut(&key) {
            st.resident = false;
        }
        self.storage.remove(&key);
    }

    /// Destroys a resident chunk (fault): the payload vanishes, the state
    /// records it as neither resident nor spilled. Returns its band;
    /// `None` (and no effect) when the chunk was not resident.
    pub(crate) fn lose(&mut self, key: ChunkKey) -> Option<usize> {
        let st = self.states.get_mut(&key).filter(|st| st.resident)?;
        st.resident = false;
        self.storage.remove(&key);
        Some(st.band)
    }

    /// A worker's memory dies: its spilled chunks survive on the disk tier
    /// as orphans (the fast recovery path); its resident chunks are
    /// returned, sorted, for the caller to destroy.
    pub(crate) fn crash_worker(&mut self, worker: usize, spec: &ClusterSpec) -> Vec<ChunkKey> {
        let mut resident = Vec::new();
        for (k, st) in &mut self.states {
            if spec.worker_of(st.band) != worker {
                continue;
            }
            if st.resident {
                resident.push(*k);
            } else if st.spilled {
                st.disk_orphan = true;
            }
        }
        resident.sort_unstable();
        resident
    }

    /// Every chunk resident in memory, sorted by key, with its worker.
    pub(crate) fn resident(&self, spec: &ClusterSpec) -> Vec<(ChunkKey, usize)> {
        let resident = self.placements(spec).into_iter().filter(|p| p.2);
        resident.map(|(k, worker, ..)| (k, worker)).collect()
    }

    /// Reads back every chunk of `keys` whose memory copy died with a
    /// crashed worker while its spilled copy survived, in key order.
    pub(crate) fn read_back_orphans(
        &mut self,
        keys: &HashSet<ChunkKey>,
        stats: &mut ExecStats,
    ) -> Vec<ReadBack> {
        let is_orphan = |k: &ChunkKey| self.states.get(k).is_some_and(|st| st.disk_orphan);
        let mut orphans: Vec<ChunkKey> = keys.iter().copied().filter(is_orphan).collect();
        orphans.sort_unstable();
        let read = orphans.into_iter().filter_map(|k| self.read_back(k, stats));
        read.collect()
    }

    /// `(key, worker, resident, spilled)` for every tracked chunk, sorted.
    pub(crate) fn placements(&self, spec: &ClusterSpec) -> Vec<(ChunkKey, usize, bool, bool)> {
        let mut out: Vec<(ChunkKey, usize, bool, bool)> = self
            .states
            .iter()
            .map(|(k, st)| (*k, spec.worker_of(st.band), st.resident, st.spilled))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }

    /// Erases all record of `keys`, making them reusable.
    pub(crate) fn forget(&mut self, keys: &[ChunkKey]) {
        for k in keys {
            self.storage.remove(k);
            self.states.remove(k);
        }
        let dropped: HashSet<ChunkKey> = keys.iter().copied().collect();
        self.arrived.retain(|(k, _)| !dropped.contains(k));
    }

    /// Drops every chunk (end of a fetch); the encode workspace stays warm.
    pub(crate) fn clear(&mut self) {
        self.storage.clear();
        self.states.clear();
        self.arrived.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::{Column, DataFrame};

    fn chunk(n: usize) -> Arc<Payload> {
        let df = DataFrame::new(vec![("k", Column::from_i64((0..n as i64).collect()))]).unwrap();
        Arc::new(Payload::Df(df))
    }

    fn publish(t: &mut Chunks, key: ChunkKey, band: usize) {
        t.publish(key, chunk(100), band, 1.0, false);
    }

    #[test]
    fn wire_size_is_measured_at_the_first_crossing_and_paid_once_per_worker() {
        let spec = ClusterSpec::new(3, 1 << 20); // 2 bands per worker
        let (mut t, mut stats) = (Chunks::new(EncodingMode::Plain), ExecStats::default());
        publish(&mut t, 1, 0);
        // same worker (band 1 is worker 0): nothing crosses, nothing is
        // encoded, and the IO charge carries no codec time
        let cost = t.charge_inputs(&[1], 0, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, cost.arrival), (0, 1.0));
        assert_eq!((stats.encoded_raw_bytes, stats.encoded_wire_bytes), (0, 0));
        assert_eq!(cost.codec_seconds, 0.0);
        assert_eq!(cost.io_seconds(&spec, 0), 800.0 / spec.storage_bandwidth);

        // the first read from worker 1 measures and pays the envelope, and
        // the measuring's host seconds ride on that dispatch's IO
        let cost = t.charge_inputs(&[1], 1, &spec, &mut stats).unwrap();
        let enc = stats.encoded_wire_bytes;
        assert!(enc > 0 && cost.recv_bytes == enc, "measured on the move");
        assert!(cost.codec_seconds > 0.0);
        let wire_and_storage = enc as f64 / spec.net_bandwidth + 800.0 / spec.storage_bandwidth;
        assert_eq!(
            cost.io_seconds(&spec, 0),
            wire_and_storage + cost.codec_seconds
        );
        // the second is cached
        let cost = t.charge_inputs(&[1], 1, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, cost.read_bytes), (0, 800));
        // another worker pays for itself, from the memo
        let cost = t.charge_inputs(&[1], 2, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, cost.codec_seconds), (enc, 0.0));
        assert_eq!((stats.net_bytes, stats.encoded_wire_bytes), (2 * enc, enc));

        let err = t.charge_inputs(&[9], 0, &spec, &mut stats).err();
        assert!(matches!(err, Some(XbError::Plan(_))), "unknown input");
    }

    #[test]
    fn a_republish_keeps_a_measured_size_and_leaves_an_unmeasured_one_open() {
        let spec = ClusterSpec::new(3, 1 << 20);
        let (mut t, mut stats) = (Chunks::new(EncodingMode::Plain), ExecStats::default());
        publish(&mut t, 1, 0); // crosses before it is lost
        publish(&mut t, 2, 0); // lost before it ever moved
        t.charge_inputs(&[1], 1, &spec, &mut stats).unwrap();
        let enc = stats.encoded_wire_bytes;
        assert_eq!((t.lose(1), t.lose(2)), (Some(0), Some(0)));

        // replayed on worker 1 with (say) more rows: worker 2's read is
        // charged the first measurement, and nothing is encoded again
        t.publish(1, chunk(200), 2, 2.0, true);
        let cost = t.charge_inputs(&[1], 2, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, stats.encoded_wire_bytes), (enc, enc));
        // the never-measured one is measured on its later crossing
        t.publish(2, chunk(100), 2, 2.0, true);
        assert_eq!(stats.encoded_wire_bytes, enc, "republish encodes nothing");
        let cost = t.charge_inputs(&[2], 0, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, stats.encoded_wire_bytes), (enc, 2 * enc));
    }

    #[test]
    fn a_spill_measures_a_chunk_that_never_moved() {
        let spec = ClusterSpec::new(2, 1 << 20);
        let (mut t, mut stats) = (Chunks::new(EncodingMode::Plain), ExecStats::default());
        publish(&mut t, 1, 0);
        publish(&mut t, 2, 0);
        let (enc, _) = t.spill(1, &mut stats).unwrap();
        assert!(enc > 0);
        assert_eq!((stats.spilled_bytes, stats.encoded_wire_bytes), (enc, enc));
        // the next charged dispatch pays for the spill's encoder pass, even
        // though its own input crosses nothing; the one after owes nothing
        let cost = t.charge_inputs(&[2], 0, &spec, &mut stats).unwrap();
        assert!(cost.recv_bytes == 0 && cost.codec_seconds > 0.0);
        // reading the spilled chunk from the other worker reuses the memo
        let cost = t.charge_inputs(&[1], 1, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, cost.read_backs[0].bytes), (enc, enc));
        assert_eq!((cost.codec_seconds, stats.encoded_wire_bytes), (0.0, enc));
    }

    #[test]
    fn a_chunk_with_no_payload_left_is_a_typed_error_not_a_panic() {
        let spec = ClusterSpec::new(2, 1 << 20);
        let (mut t, mut stats) = (Chunks::new(EncodingMode::Plain), ExecStats::default());
        publish(&mut t, 1, 0);
        publish(&mut t, 2, 0);
        t.free(1); // freed: the state stays, the payload is gone
        t.lose(2); // lost, and not yet republished
        for key in [1, 2] {
            let err = t.charge_inputs(&[key], 1, &spec, &mut stats).err();
            let Some(XbError::Plan(msg)) = err else {
                panic!("chunk {key}: expected a plan error, got {err:?}");
            };
            assert!(msg.contains(&format!("chunk {key} ")), "{msg}");
            // a same-worker read needs no wire size and still succeeds
            assert!(t.charge_inputs(&[key], 0, &spec, &mut stats).is_ok());
            assert_eq!(t.spill(key, &mut stats), None);
            assert_eq!(t.read_back(key, &mut stats), None);
        }
        assert_eq!((stats.net_bytes, stats.spilled_bytes), (0, 0));
        assert_eq!(stats.encoded_raw_bytes, 0);
    }

    #[test]
    fn disk_orphan_read_back_counts_as_recovered_exactly_once() {
        let spec = ClusterSpec::new(2, 1 << 20);
        let (mut t, mut stats) = (Chunks::new(EncodingMode::Plain), ExecStats::default());
        publish(&mut t, 1, 0); // spilled, then orphaned
        publish(&mut t, 2, 0); // resident when the worker dies
        publish(&mut t, 3, 2); // other worker
        let (enc, band) = t.spill(1, &mut stats).unwrap();
        assert_eq!((stats.spilled_bytes, band), (enc, 0));

        assert_eq!(t.crash_worker(0, &spec), [2], "resident chunks die");
        assert_eq!(t.lose(2), Some(0));
        assert_eq!(t.lose(2), None, "already gone");
        assert_eq!(t.missing(&[1, 2, 3]), [2], "the disk copy stays readable");

        // a dispatch reads the orphan back: recovered, once
        let cost = t.charge_inputs(&[1, 3], 1, &spec, &mut stats).unwrap();
        assert_eq!(cost.read_backs.len(), 1, "resident chunks pay no disk");
        assert!(cost.read_backs[0].recovered);
        assert_eq!((cost.read_backs[0].key, cost.read_backs[0].bytes), (1, enc));
        // the end-of-graph sweep finds nothing left to recover; a further
        // read still pays the disk but is no longer a recovery
        let retained: HashSet<ChunkKey> = [1, 2, 3].into();
        assert!(t.read_back_orphans(&retained, &mut stats).is_empty());
        let again = t.charge_inputs(&[1], 1, &spec, &mut stats).unwrap();
        assert!(!again.read_backs[0].recovered);
        assert_eq!(stats.recovered_from_spill_bytes, enc);
        assert_eq!(stats.read_back_bytes, 2 * enc);

        // an orphan no dispatch read is recovered by the sweep instead
        t.spill(3, &mut stats);
        assert!(t.crash_worker(1, &spec).is_empty());
        let swept = t.read_back_orphans(&retained, &mut stats);
        assert_eq!(
            (swept.len(), swept[0].key, swept[0].recovered),
            (1, 3, true)
        );
        assert_eq!(stats.recovered_from_spill_bytes, 2 * enc);
    }
}
