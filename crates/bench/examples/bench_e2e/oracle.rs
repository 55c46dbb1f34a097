//! The correctness oracle, always outside the timers.
//!
//! Every op's frame must equal the result of the same SQL text on a fresh
//! single-process `LocalExecutor` session, computed once before the
//! warm-up pass. A stock TPC-H text must also equal the hand-built
//! dataframe program for that query. An op that errors or differs is a
//! failed op: it is counted, contributes no time, and makes the process
//! exit non-zero after the results are printed.

use crate::inputs::Inputs;
use crate::metrics::Tally;
use xorbits_baselines::EngineKind;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::local::LocalExecutor;
use xorbits_core::session::Session;
use xorbits_core::sql::run_sql;
use xorbits_dataframe::DataFrame;
use xorbits_workloads::tpch::run_query_on;

/// Expected frame per op; `None` where the oracle itself failed (every
/// submission of that op then counts as failed).
pub struct Oracle {
    expected: Vec<Option<DataFrame>>,
}

impl Oracle {
    /// Runs the ops listed in `wanted` (indices into `inputs.ops`) on
    /// fresh local sessions.
    pub fn compute(inputs: &Inputs, cfg: &XorbitsConfig, wanted: &[usize]) -> XbResult<Oracle> {
        let catalog = inputs.catalog()?;
        let caps = EngineKind::Xorbits.profile().caps;
        let mut expected: Vec<Option<DataFrame>> = inputs.ops.iter().map(|_| None).collect();
        for &i in wanted {
            if expected[i].is_some() {
                continue;
            }
            let op = &inputs.ops[i];
            let fresh = || Session::new(cfg.clone(), LocalExecutor::new());
            let from_sql = run_sql(&fresh(), &catalog, &op.text);
            expected[i] = match (from_sql, op.stock) {
                (Ok(df), Some(q)) => {
                    match run_query_on(&fresh(), &caps, "bench_e2e-oracle", &inputs.data, q) {
                        Ok(hand) if hand == df => Some(df),
                        Ok(_) => {
                            eprintln!("oracle: {} differs from the hand-built program", op.name);
                            None
                        }
                        Err(e) => {
                            eprintln!("oracle: hand-built {} failed: {e}", op.name);
                            None
                        }
                    }
                }
                (Ok(df), None) => Some(df),
                (Err(e), _) => {
                    eprintln!("oracle: {} failed: {e}", op.name);
                    None
                }
            };
        }
        Ok(Oracle { expected })
    }

    /// Counts one submission of op `i`; true when it is correct.
    pub fn check(&self, i: usize, got: Result<&DataFrame, &XbError>, tally: &mut Tally) -> bool {
        tally.attempted += 1;
        let ok = matches!((got, &self.expected[i]), (Ok(g), Some(e)) if g == e);
        if !ok {
            tally.failed += 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::Column;

    fn frame(v: i64) -> DataFrame {
        DataFrame::new(vec![("a", Column::from_i64(vec![1, v]))]).unwrap()
    }

    /// A frame differing from the oracle is a failed op, and a failed op
    /// makes the command exit non-zero.
    #[test]
    fn a_differing_frame_is_a_failed_op_and_fails_the_run() {
        let oracle = Oracle {
            expected: vec![Some(frame(2)), None],
        };
        let mut tally = Tally::default();
        assert!(oracle.check(0, Ok(&frame(2)), &mut tally));
        assert_eq!(tally.exit_code(), 0);

        assert!(!oracle.check(0, Ok(&frame(3)), &mut tally));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_ne!(tally.exit_code(), 0);

        // an error, and an op whose oracle failed, are failures too
        assert!(!oracle.check(0, Err(&XbError::Plan("boom".into())), &mut tally));
        assert!(!oracle.check(1, Ok(&frame(2)), &mut tally));
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        assert_ne!(Tally::default().exit_code(), 0);
    }
}
