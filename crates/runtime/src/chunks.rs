//! The chunk table: every published chunk's payload, meta, placement and
//! tier, plus what moving it costs.
//!
//! This module decides *when a chunk's wire size is measured* (once, at
//! its first publish, under the spec's transport encoding) and *what a
//! read costs*: cross-worker bytes are paid once per `(chunk, worker)` and
//! then cached, spilled inputs additionally pay the disk tier, and a disk
//! copy that outlived its crashed worker counts as recovered without
//! recompute the first time it is read back. Network, spill and read-back
//! all charge the same measured envelope, so the cost model matches the
//! real storage service byte for byte.

use crate::cluster::ClusterSpec;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xorbits_core::chunk::{payload_to_value, ChunkKey, ChunkMeta, Payload};
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
    /// *Measured* wire bytes of the chunk's envelope
    /// ([`EncodeWorkspace::measure`]), taken exactly once.
    enc_bytes: usize,
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
}

impl InputCost {
    /// Virtual seconds of IO for a dispatch that also publishes
    /// `published_bytes`: the receiving worker's NIC serialises all
    /// cross-worker bytes (flows into one consumer do not overlap for
    /// free), both directions of storage-service traffic pay the shared
    /// tier, read-backs pay the disk.
    pub(crate) fn io_seconds(&self, spec: &ClusterSpec, published_bytes: usize) -> f64 {
        let disk_bytes: usize = self.read_backs.iter().map(|rb| rb.bytes).sum();
        self.recv_bytes as f64 / spec.net_bandwidth
            + (self.read_bytes + published_bytes) as f64 / spec.storage_bandwidth
            + disk_bytes as f64 / spec.disk_bandwidth
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
}

impl Chunks {
    pub(crate) fn new(encoding: EncodingMode) -> Chunks {
        Chunks {
            storage: HashMap::new(),
            states: HashMap::new(),
            arrived: HashSet::new(),
            encoding,
            enc_ws: EncodeWorkspace::new(),
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
                cost.recv_bytes += cs.enc_bytes;
                stats.net_bytes += cs.enc_bytes;
            }
            cost.read_bytes += cs.nbytes;
            if cs.spilled {
                cost.read_backs.extend(self.read_back(*k, stats));
            }
        }
        Ok(cost)
    }

    /// Reads `key` off the disk tier if that is where it lives: counts the
    /// encoded envelope as read back and, the first time for a copy whose
    /// worker crashed, as recovered from spill.
    fn read_back(&mut self, key: ChunkKey, stats: &mut ExecStats) -> Option<ReadBack> {
        let st = self.states.get_mut(&key).filter(|st| st.spilled)?;
        let recovered = std::mem::take(&mut st.disk_orphan);
        stats.read_back_bytes += st.enc_bytes;
        if recovered {
            stats.recovered_from_spill_bytes += st.enc_bytes;
        }
        Some(ReadBack {
            key,
            bytes: st.enc_bytes,
            band: st.band,
            at: st.finish,
            recovered,
        })
    }

    /// Records a chunk published on `band` at virtual time `finish` as
    /// resident. Its wire size is measured here, once; a `republish`
    /// (lineage replay) reuses the stored size, since the state survives
    /// loss. The caller charges the ledger.
    pub(crate) fn publish(
        &mut self,
        key: ChunkKey,
        payload: Arc<Payload>,
        band: usize,
        finish: f64,
        republish: bool,
        stats: &mut ExecStats,
    ) {
        let nbytes = payload.nbytes();
        let enc_bytes = match self.states.get(&key) {
            Some(st) if republish => st.enc_bytes,
            _ => {
                let sz = self
                    .enc_ws
                    .measure(&payload_to_value(&payload), self.encoding);
                stats.encoded_raw_bytes += sz.raw;
                stats.encoded_wire_bytes += sz.wire;
                sz.wire
            }
        };
        let state = ChunkState {
            band,
            finish,
            nbytes,
            rows: payload.rows(),
            enc_bytes,
            resident: true,
            spilled: false,
            disk_orphan: false,
        };
        self.states.insert(key, state);
        self.storage.insert(key, payload);
    }

    /// Moves an evicted chunk to the disk tier: the tier receives the
    /// chunk's *encoded envelope*, not its logical view. Returns
    /// `(encoded bytes, band)`.
    pub(crate) fn spill(&mut self, key: ChunkKey, stats: &mut ExecStats) -> Option<(usize, usize)> {
        let st = self.states.get_mut(&key)?;
        st.spilled = true;
        st.resident = false;
        stats.spilled_bytes += st.enc_bytes;
        Some((st.enc_bytes, st.band))
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

    fn publish(t: &mut Chunks, key: ChunkKey, band: usize, stats: &mut ExecStats) {
        t.publish(key, chunk(100), band, 1.0, false, stats);
    }

    #[test]
    fn cross_worker_bytes_are_paid_once_per_key_and_worker() {
        let spec = ClusterSpec::new(3, 1 << 20); // 2 bands per worker
        let (mut t, mut stats) = (Chunks::new(EncodingMode::Plain), ExecStats::default());
        publish(&mut t, 1, 0, &mut stats);
        let enc = stats.encoded_wire_bytes;
        assert!(enc > 0, "measured at publish");

        // same worker (band 1 is worker 0): nothing crosses
        let cost = t.charge_inputs(&[1], 0, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, cost.arrival), (0, 1.0));
        // first read from worker 1 pays the envelope, the second is cached
        let cost = t.charge_inputs(&[1], 1, &spec, &mut stats).unwrap();
        assert_eq!(cost.recv_bytes, enc);
        let cost = t.charge_inputs(&[1], 1, &spec, &mut stats).unwrap();
        assert_eq!((cost.recv_bytes, cost.read_bytes), (0, 800));
        // another worker pays for itself
        let cost = t.charge_inputs(&[1], 2, &spec, &mut stats).unwrap();
        assert_eq!(cost.recv_bytes, enc);
        assert_eq!(stats.net_bytes, 2 * enc);
        // a republish keeps the first measurement
        t.publish(1, chunk(100), 2, 2.0, true, &mut stats);
        assert_eq!(stats.encoded_wire_bytes, enc);

        let err = t.charge_inputs(&[9], 0, &spec, &mut stats).err();
        assert!(matches!(err, Some(XbError::Plan(_))), "unknown input");
    }

    #[test]
    fn disk_orphan_read_back_counts_as_recovered_exactly_once() {
        let spec = ClusterSpec::new(2, 1 << 20);
        let (mut t, mut stats) = (Chunks::new(EncodingMode::Plain), ExecStats::default());
        publish(&mut t, 1, 0, &mut stats); // spilled, then orphaned
        publish(&mut t, 2, 0, &mut stats); // resident when the worker dies
        publish(&mut t, 3, 2, &mut stats); // other worker
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
