//! An engine instance = profile + session over the virtual cluster.

use crate::profile::{EngineKind, EngineProfile};
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::session::Session;
use xorbits_runtime::{ClusterSpec, SimExecutor, SimSession};

/// A runnable engine: the workload layer writes each query once against
/// this and the profile decides behaviour and API surface.
pub struct Engine {
    /// The personality.
    pub profile: EngineProfile,
    /// The session (all engines run on the virtual-cluster simulator; the
    /// profile collapses pandas to one band).
    pub session: SimSession,
}

impl Engine {
    /// Builds an engine of `kind` over `cluster` (adapted per profile).
    pub fn new(kind: EngineKind, cluster: &ClusterSpec) -> Engine {
        Engine::with_cfg(kind, cluster, kind.profile().cfg)
    }

    /// Engine display name.
    pub fn name(&self) -> &'static str {
        self.profile.kind.name()
    }

    /// Builds an engine with an overridden planner configuration (the
    /// ablation knobs of Fig 9: dynamic tiling and graph fusion).
    pub fn with_cfg(
        kind: EngineKind,
        cluster: &ClusterSpec,
        cfg: xorbits_core::config::XorbitsConfig,
    ) -> Engine {
        let mut profile = kind.profile();
        profile.cfg = cfg;
        let spec = kind.cluster(cluster);
        profile.cfg.cluster_parallelism = spec.n_bands();
        Engine {
            session: Session::new(profile.cfg.clone(), SimExecutor::new(spec)),
            profile,
        }
    }

    /// Returns the paper-style API-compatibility error when `supported`
    /// is false — the workload layer's guard for missing pandas surface.
    pub fn require(&self, supported: bool, what: &str) -> XbResult<()> {
        if supported {
            Ok(())
        } else {
            Err(XbError::Unsupported(format!(
                "{} does not support {what}",
                self.name()
            )))
        }
    }

    /// Whether this engine's pandas port of TPC-H query `q` exists
    /// (Table I/II API-compatibility failures).
    pub fn supports_tpch(&self, q: u32) -> XbResult<()> {
        if self.profile.caps.tpch_api_failures.contains(&q) {
            Err(XbError::Unsupported(format!(
                "TPC-H Q{q} cannot be ported to {}'s pandas API",
                self.name()
            )))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_core::error::FailureKind;
    use xorbits_dataframe::{Column, DataFrame};

    #[test]
    fn engines_run_a_trivial_query() {
        let cluster = ClusterSpec::new(2, 64 << 20);
        for kind in EngineKind::all() {
            let e = Engine::new(kind, &cluster);
            let df = DataFrame::new(vec![("a", Column::from_i64(vec![1, 2, 3]))]).unwrap();
            let out = e.session.from_df(df).unwrap().fetch().unwrap();
            assert_eq!(out.num_rows(), 3, "{} failed", e.name());
        }
    }

    #[test]
    fn capability_guard_produces_api_failure() {
        let cluster = ClusterSpec::new(2, 64 << 20);
        let dask = Engine::new(EngineKind::Dask, &cluster);
        let r: XbResult<()> = dask.require(dask.profile.caps.iloc, "iloc");
        assert_eq!(FailureKind::classify(&r), FailureKind::ApiCompatibility);
        let spark = Engine::new(EngineKind::PySpark, &cluster);
        assert!(spark.supports_tpch(16).is_err());
        assert!(spark.supports_tpch(1).is_ok());
    }
}
