//! TPC-H: the paper's ad-hoc-query benchmark (§VI-B, Tables I/II, Fig 8b).
//!
//! All 22 queries are written once in pandas style against the
//! engine-agnostic session API (as the paper rewrote them with the pandas
//! API) and run unchanged on every engine profile.

pub mod gen;
mod q01_11;
mod q12_22;
pub mod sql;

pub use gen::{TpchData, TpchScale};
pub use sql::{run_query_sql, sql_text, tpch_catalog};

use xorbits_baselines::{Capabilities, Engine};
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::session::{DfHandle, Executor, Session};
use xorbits_dataframe::{dates, AggFunc, AggSpec, DataFrame, Scalar};

/// Date literal helper.
pub(crate) fn d(y: i32, m: u32, day: u32) -> Scalar {
    Scalar::Date(dates::to_days(y, m, day))
}

/// AggSpec shorthand.
pub(crate) fn a(col: &str, func: AggFunc, out: &str) -> AggSpec {
    AggSpec::new(col, func, out)
}

/// Table handles for one run. Generic over the executor so the same query
/// text runs on the virtual cluster *and* on the single-process
/// [`LocalExecutor`](xorbits_core::local::LocalExecutor) — the fault-free
/// oracle the fault-recovery matrix compares against.
pub(crate) struct Tables<'a, E: Executor> {
    pub s: &'a Session<E>,
    pub caps: &'a Capabilities,
    pub engine_name: &'static str,
    pub d: &'a TpchData,
}

macro_rules! table {
    ($name:ident) => {
        pub fn $name(&self) -> XbResult<DfHandle<E>> {
            self.s.read_df(self.d.$name.clone())
        }
    };
}

impl<'a, E: Executor> Tables<'a, E> {
    table!(lineitem);
    table!(orders);
    table!(customer);
    table!(part);
    table!(partsupp);
    table!(supplier);
    table!(nation);
    table!(region);

    /// The paper-style API-compatibility error when a capability the query
    /// needs is off in this profile.
    pub fn require(&self, supported: bool, what: &str) -> XbResult<()> {
        if supported {
            Ok(())
        } else {
            Err(XbError::Unsupported(format!(
                "{} does not support {what}",
                self.engine_name
            )))
        }
    }
}

/// Extracts a scalar from a 1-row aggregate frame (0.0 when empty, like
/// `pandas.Series.sum()` of an empty selection).
pub(crate) fn scalar_at(df: &DataFrame, col: &str) -> XbResult<f64> {
    if df.num_rows() == 0 {
        return Ok(0.0);
    }
    Ok(df.column(col)?.get(0).as_f64().unwrap_or(0.0))
}

/// Runs TPC-H query `q` (1–22) on `engine` over `data`.
///
/// Returns the result frame; errors carry the paper's failure taxonomy
/// (`Unsupported` for API-compatibility failures, `Oom`, `Hang`).
pub fn run_query(engine: &Engine, data: &TpchData, q: u32) -> XbResult<DataFrame> {
    engine.supports_tpch(q)?;
    run_query_on(
        &engine.session,
        &engine.profile.caps,
        engine.name(),
        data,
        q,
    )
}

/// Runs TPC-H query `q` on an arbitrary executor's session — same query
/// text as [`run_query`], minus the per-engine TPC-H porting guard (the
/// caller picks the capability profile). This is how the fault-recovery
/// matrix runs the suite on both the fault-injected virtual cluster and
/// the single-process oracle.
pub fn run_query_on<E: Executor>(
    session: &Session<E>,
    caps: &Capabilities,
    engine_name: &'static str,
    data: &TpchData,
    q: u32,
) -> XbResult<DataFrame> {
    let t = Tables {
        s: session,
        caps,
        engine_name,
        d: data,
    };
    match q {
        1 => q01_11::q1(&t),
        2 => q01_11::q2(&t),
        3 => q01_11::q3(&t),
        4 => q01_11::q4(&t),
        5 => q01_11::q5(&t),
        6 => q01_11::q6(&t),
        7 => q01_11::q7(&t),
        8 => q01_11::q8(&t),
        9 => q01_11::q9(&t),
        10 => q01_11::q10(&t),
        11 => q01_11::q11(&t),
        12 => q12_22::q12(&t),
        13 => q12_22::q13(&t),
        14 => q12_22::q14(&t),
        15 => q12_22::q15(&t),
        16 => q12_22::q16(&t),
        17 => q12_22::q17(&t),
        18 => q12_22::q18(&t),
        19 => q12_22::q19(&t),
        20 => q12_22::q20(&t),
        21 => q12_22::q21(&t),
        22 => q12_22::q22(&t),
        other => Err(xorbits_core::error::XbError::Plan(format!(
            "no such TPC-H query: {other}"
        ))),
    }
}
