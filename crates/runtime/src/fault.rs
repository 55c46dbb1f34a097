//! Deterministic fault injection for the virtual cluster.
//!
//! The paper's Xorbits runtime survives worker loss by re-executing
//! subtasks from their lineage in the subtask graph. Because this cluster
//! is *simulated*, the failure model can be fully deterministic: a seeded
//! [`FaultPlan`] describes crashes, chunk-loss events and a transient
//! failure probability, and the simulator replays the exact same schedule
//! on every run — which is what lets the fault-recovery test matrix assert
//! bit-identical results and identical recovery statistics across reruns.
//!
//! Events fire on one clock, [`FaultTrigger::Step`]: the executor's
//! *dispatch step* (the count of subtasks dispatched since the last
//! `clear()`). Dispatch steps are purely logical, so schedules are exactly
//! reproducible even though kernel durations are measured on the host.
//!
//! Each `clear()` (i.e. each fetch) re-arms the plan: the dispatch-step
//! clock resets and every event may fire again, so a multi-fetch query
//! replays the same schedule in every phase.

use xorbits_array::prng::Xoshiro256;

/// What breaks when a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A whole worker dies: every band stops accepting subtasks, resident
    /// (unspilled) chunks on the worker are lost and released from the
    /// memory ledger. Spilled chunks survive on the disk tier and are the
    /// fast recovery path.
    WorkerCrash {
        /// Worker index to kill.
        worker: usize,
    },
    /// One band (execution slot) dies: it stops accepting subtasks, but
    /// the worker's memory — and every chunk on it — survives.
    BandCrash {
        /// Band index to kill.
        band: usize,
    },
    /// A random subset of currently resident, unspilled chunks vanishes
    /// (bit-rot / lost object): victims are chosen with the plan's seeded
    /// RNG over the *sorted* key set, so the selection is deterministic.
    ChunkLoss {
        /// Fraction of resident unspilled chunks to destroy, in `[0, 1]`.
        fraction: f64,
    },
}

/// When a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTrigger {
    /// Fires just before the `n`-th subtask dispatch (0-based) since the
    /// last `clear()`. Fully deterministic.
    Step(u64),
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the event fires.
    pub at: FaultTrigger,
    /// What breaks.
    pub kind: FaultKind,
}

/// Retry policy for transiently failing subtask attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum retries per subtask before the run fails with
    /// [`xorbits_core::error::XbError::Fault`].
    pub max_retries: usize,
    /// First backoff delay in virtual seconds.
    pub backoff_base: f64,
    /// Multiplier applied to the backoff after each failed attempt.
    pub backoff_factor: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            backoff_base: 0.01,
            backoff_factor: 2.0,
        }
    }
}

/// A seeded, replayable fault schedule for one virtual cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random draw the plan makes (transient failures,
    /// chunk-loss victim selection). Re-seeded on each `clear()` so every
    /// fetch replays the same schedule.
    pub seed: u64,
    /// Scheduled crash / chunk-loss events.
    pub events: Vec<FaultEvent>,
    /// Probability that any single subtask attempt fails transiently
    /// (drawn per attempt from the seeded RNG). `0.0` disables.
    pub transient_failure_p: f64,
}

impl FaultPlan {
    /// An empty plan: no events, no transient failures. Running with this
    /// plan must reproduce the fault-free simulation exactly.
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            events: Vec::new(),
            transient_failure_p: 0.0,
        }
    }

    /// Adds an event.
    pub fn with_event(mut self, at: FaultTrigger, kind: FaultKind) -> FaultPlan {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Sets the transient-failure probability.
    pub fn with_transient_failures(mut self, p: f64) -> FaultPlan {
        self.transient_failure_p = p;
        self
    }

    /// Kills `worker` at dispatch step `step` (deterministic).
    pub fn worker_crash_at_step(seed: u64, worker: usize, step: u64) -> FaultPlan {
        FaultPlan::none(seed)
            .with_event(FaultTrigger::Step(step), FaultKind::WorkerCrash { worker })
    }

    /// A transient failure storm: every attempt fails with probability `p`.
    pub fn transient_storm(seed: u64, p: f64) -> FaultPlan {
        FaultPlan::none(seed).with_transient_failures(p)
    }

    /// Destroys `fraction` of resident chunks at dispatch step `step`.
    pub fn chunk_loss_at_step(seed: u64, fraction: f64, step: u64) -> FaultPlan {
        FaultPlan::none(seed)
            .with_event(FaultTrigger::Step(step), FaultKind::ChunkLoss { fraction })
    }

    /// Whether the plan can ever do anything.
    pub fn is_trivial(&self) -> bool {
        self.events.is_empty() && self.transient_failure_p <= 0.0
    }

    /// A fresh RNG for one fetch's replay of this plan.
    pub(crate) fn rng(&self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::none(7)
            .with_event(FaultTrigger::Step(3), FaultKind::WorkerCrash { worker: 1 })
            .with_event(
                FaultTrigger::Step(5),
                FaultKind::ChunkLoss { fraction: 0.25 },
            )
            .with_transient_failures(0.1);
        assert_eq!(plan.events.len(), 2);
        assert!(!plan.is_trivial());
        assert!(FaultPlan::none(0).is_trivial());
    }

    #[test]
    fn rng_is_reseeded_per_fetch() {
        let plan = FaultPlan::transient_storm(42, 0.5);
        let a: Vec<u64> = {
            let mut r = plan.rng();
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = plan.rng();
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed must replay the same draws");
    }
}
