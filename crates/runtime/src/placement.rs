//! Band placement (§V-B): source subtasks fill the cluster breadth-first,
//! successors go where their largest input lives — unless that worker is
//! dead or close to its memory budget, in which case locality is traded
//! for the least-loaded surviving worker. Lineage recompute runs on the
//! least-loaded survivor's first live band.
//!
//! The module owns only its two round-robin cursors; everything it reads
//! of the cluster arrives as a [`Bands`] view, and "no surviving band" is
//! a return value, never a loop the caller has to guard.

use crate::cluster::ClusterSpec;
use xorbits_core::error::{XbError, XbResult};

/// What placement reads of the cluster at one decision: liveness from the
/// fault state, free times from the clock, live bytes from the ledger.
pub(crate) struct Bands<'a> {
    pub spec: &'a ClusterSpec,
    /// Bands killed by fault events.
    pub dead: &'a [bool],
    /// Virtual time each band is free from.
    pub free_at: &'a [f64],
    /// Live bytes per worker.
    pub live_bytes: &'a [usize],
}

impl Bands<'_> {
    fn live_bands_of(&self, worker: usize) -> impl Iterator<Item = usize> + '_ {
        let base = worker * self.spec.bands_per_worker;
        (base..base + self.spec.bands_per_worker).filter(|&b| !self.dead[b])
    }
}

fn no_live_band() -> XbError {
    XbError::Plan("fault plan killed every band; no survivor to run on".into())
}

/// The two round-robin cursors: one for source subtasks, one for
/// successors placed without a locality target.
#[derive(Default)]
pub(crate) struct Placement {
    source_rr: usize,
    any_rr: usize,
}

impl Placement {
    /// Band for the next dispatch. `home` is the band holding the
    /// subtask's largest external input (`None` for a source subtask or
    /// when no input is known to the chunk table).
    pub(crate) fn pick(
        &mut self,
        bands: &Bands<'_>,
        is_source: bool,
        home: Option<usize>,
    ) -> XbResult<usize> {
        if is_source {
            // breadth-first: fill worker 0's bands, then worker 1, …
            return next_live(&mut self.source_rr, bands.dead);
        }
        if let (true, Some(home)) = (bands.spec.locality_aware, home) {
            let w = bands.spec.worker_of(home);
            if !bands.dead[home] && bands.live_bytes[w] * 10 <= bands.spec.worker_memory_bytes * 8 {
                return Ok(home);
            }
            // memory pressure (or dead locality target): the least-loaded
            // live worker's earliest-free live band
            let coolest = (0..bands.spec.workers)
                .filter(|&cw| bands.live_bands_of(cw).next().is_some())
                .min_by_key(|&cw| bands.live_bytes[cw]);
            let earliest = coolest.and_then(|cw| {
                bands
                    .live_bands_of(cw)
                    .min_by(|&a, &b| bands.free_at[a].total_cmp(&bands.free_at[b]))
            });
            if let Some(b) = earliest {
                return Ok(b);
            }
        }
        next_live(&mut self.any_rr, bands.dead)
    }
}

/// Advances `cursor` to the next live band (one step when none is dead —
/// the fault-free scheduler).
fn next_live(cursor: &mut usize, dead: &[bool]) -> XbResult<usize> {
    for _ in 0..dead.len() {
        let b = *cursor % dead.len();
        *cursor += 1;
        if !dead[b] {
            return Ok(b);
        }
    }
    Err(no_live_band())
}

/// Least-loaded surviving worker's first live band — where lineage
/// recomputation runs.
pub(crate) fn recovery_band(bands: &Bands<'_>) -> XbResult<usize> {
    (0..bands.spec.workers)
        .filter_map(|w| Some((bands.live_bytes[w], bands.live_bands_of(w).next()?)))
        .min_by_key(|&(live, _)| live)
        .map(|(_, b)| b)
        .ok_or_else(no_live_band)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 3 workers × 2 bands, 1000-byte budget.
    fn spec() -> ClusterSpec {
        ClusterSpec::new(3, 1000)
    }

    fn bands<'a>(
        spec: &'a ClusterSpec,
        dead: &'a [bool],
        free_at: &'a [f64],
        live_bytes: &'a [usize],
    ) -> Bands<'a> {
        Bands {
            spec,
            dead,
            free_at,
            live_bytes,
        }
    }

    #[test]
    fn sources_fill_breadth_first_and_skip_dead_bands() {
        let spec = spec();
        let dead = [false, true, false, false, true, false];
        let b = bands(&spec, &dead, &[0.0; 6], &[0; 3]);
        let mut p = Placement::default();
        let picks: Vec<usize> = (0..6).map(|_| p.pick(&b, true, None).unwrap()).collect();
        assert_eq!(picks, [0, 2, 3, 5, 0, 2], "band order, dead ones skipped");
    }

    #[test]
    fn locality_holds_below_the_pressure_line() {
        let spec = spec();
        let b = bands(&spec, &[false; 6], &[0.0; 6], &[800, 0, 0]);
        let mut p = Placement::default();
        assert_eq!(p.pick(&b, false, Some(1)).unwrap(), 1, "80% is not over");
    }

    #[test]
    fn hot_or_dead_home_falls_to_coolest_workers_earliest_band() {
        let spec = spec();
        let free_at = [0.0, 0.0, 5.0, 4.0, 2.0, 1.0];
        let mut p = Placement::default();
        // home band 0: worker 0 is above the 80% line; worker 2 is coolest
        let b = bands(&spec, &[false; 6], &free_at, &[801, 300, 100]);
        assert_eq!(p.pick(&b, false, Some(0)).unwrap(), 5);
        // home band 0 is dead: same fallback, and worker 2's earliest-free
        // band is dead too, so its other band is taken
        let dead = [true, false, false, false, false, true];
        let b = bands(&spec, &dead, &free_at, &[400, 300, 100]);
        assert_eq!(p.pick(&b, false, Some(0)).unwrap(), 4);
        // a wholly dead worker is not a candidate however cool it is
        let dead = [true, false, false, false, true, true];
        let b = bands(&spec, &dead, &free_at, &[900, 300, 0]);
        assert_eq!(p.pick(&b, false, Some(0)).unwrap(), 3);
    }

    #[test]
    fn unknown_home_round_robins_on_its_own_cursor() {
        let spec = spec();
        let b = bands(&spec, &[false; 6], &[0.0; 6], &[0; 3]);
        let mut p = Placement::default();
        assert_eq!(p.pick(&b, true, None).unwrap(), 0);
        assert_eq!(p.pick(&b, false, None).unwrap(), 0, "separate cursor");
        assert_eq!(p.pick(&b, false, None).unwrap(), 1);
    }

    #[test]
    fn no_live_band_is_a_plan_error_everywhere() {
        let spec = spec();
        let b = bands(&spec, &[true; 6], &[0.0; 6], &[0; 3]);
        let mut p = Placement::default();
        for (is_source, home) in [(true, None), (false, Some(2)), (false, None)] {
            let err = p.pick(&b, is_source, home).unwrap_err();
            assert!(matches!(err, XbError::Plan(_)), "got {err:?}");
        }
        assert!(matches!(recovery_band(&b), Err(XbError::Plan(_))));
    }

    #[test]
    fn recovery_runs_on_the_least_loaded_survivors_first_live_band() {
        let spec = spec();
        let dead = [false, false, true, false, true, true];
        let b = bands(&spec, &dead, &[0.0; 6], &[500, 200, 0]);
        assert_eq!(recovery_band(&b).unwrap(), 3, "worker 2 is dead");
    }
}
