//! Array workloads: linear regression and QR decomposition (Fig 8c/8d).
//!
//! The paper runs weak-scaling tests — problem size grows with the number
//! of CPU sockets, throughput = problem size / time — comparing Xorbits
//! against Dask Array. Both use the same local QR kernel and the same
//! MapReduce TSQR algorithm; the differences the paper attributes the gap
//! to are (a) Xorbits' auto rechunk picking the right tall-and-skinny
//! blocks vs Dask's user-specified chunks, and (b) scheduling/fusion
//! overheads on the much larger Dask task graphs.

use xorbits_baselines::{Engine, EngineKind};
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::session::Session;
use xorbits_runtime::{ClusterSpec, SimExecutor};

/// One array-workload measurement.
#[derive(Debug, Clone, Copy)]
pub struct ArrayRun {
    /// Elements processed (m × n).
    pub problem_size: usize,
    /// Virtual makespan, seconds.
    pub makespan: f64,
    /// Throughput = problem size / makespan.
    pub throughput: f64,
}

/// Builds an engine for array workloads. Dask models Listing 1: the user
/// must specify chunks manually; the conventional guess (“lots of small
/// chunks so everything parallelises”) over-chunks by `DASK_OVERCHUNK`
/// versus the auto-rechunk choice.
pub fn array_engine(
    kind: EngineKind,
    cluster: &ClusterSpec,
    total_bytes: usize,
) -> XbResult<Engine> {
    let profile = kind.profile();
    if !profile.caps.arrays {
        return Err(XbError::Unsupported(format!(
            "{} has no distributed array API",
            kind.name()
        )));
    }
    const DASK_OVERCHUNK: usize = 4;
    let mut cfg = profile.cfg.clone();
    let spec = kind.cluster(cluster);
    cfg.cluster_parallelism = spec.n_bands();
    if !profile.caps.array_auto_chunk {
        // manual chunk size: total / (bands * OVERCHUNK)
        let bands = cluster.n_bands().max(1);
        cfg.chunk_limit_bytes = (total_bytes / (bands * DASK_OVERCHUNK)).max(4096);
    }
    Ok(Engine {
        session: Session::new(cfg, SimExecutor::new(spec)),
        profile,
    })
}

/// Distributed linear regression: generate X, synthesise y = X·w, fit via
/// the normal equations, verify the recovered weights.
pub fn run_linreg(engine: &Engine, rows: usize, cols: usize, seed: u64) -> XbResult<ArrayRun> {
    let x = engine.session.randn(&[rows, cols], seed)?;
    let w_true = xorbits_array::NdArray::from_vec(
        (0..cols).map(|i| 1.0 + i as f64 * 0.25).collect(),
        vec![cols, 1],
    )?;
    let w_handle = engine.session.tensor(w_true.clone())?;
    let y = x.matmul(&w_handle)?;
    let w_fit = x.lstsq(&y)?.fetch()?;
    for (a, b) in w_fit.data().iter().zip(w_true.data()) {
        if (a - b).abs() > 1e-6 {
            return Err(XbError::Kernel(format!(
                "linear regression did not converge: {a} vs {b}"
            )));
        }
    }
    let makespan = engine.session.total_stats().makespan;
    Ok(ArrayRun {
        problem_size: rows * cols,
        makespan,
        throughput: rows as f64 * cols as f64 / makespan.max(1e-12),
    })
    .inspect(|_| {
        engine.session.reset_stats();
    })
}

/// Distributed QR: generate A, factorise via TSQR, verify A = QR and
/// orthonormality of Q.
pub fn run_qr(engine: &Engine, rows: usize, cols: usize, seed: u64) -> XbResult<ArrayRun> {
    let a = engine.session.random(&[rows, cols], seed)?;
    let (q, r) = a.qr()?;
    // timed region: one full factorisation (the Q fetch drives the whole
    // TSQR graph, including the R chunks)
    engine.session.reset_stats();
    let q_mat = q.fetch()?;
    let makespan = engine.session.total_stats().makespan;
    // verification fetches recompute and are excluded from the timing
    let r_mat = r.fetch()?;
    let a_mat = a.fetch()?;
    let prod = xorbits_array::linalg::matmul(&q_mat, &r_mat)?;
    if prod.max_abs_diff(&a_mat) > 1e-8 {
        return Err(XbError::Kernel("QR factorisation mismatch".into()));
    }
    engine.session.reset_stats();
    Ok(ArrayRun {
        problem_size: rows * cols,
        makespan,
        throughput: rows as f64 * cols as f64 / makespan.max(1e-12),
    })
}

/// Weak-scaling sweep: per-socket problem size held constant while workers
/// grow, as in Fig 8c/8d. Returns `(workers, ArrayRun)` per step.
pub fn weak_scaling<F>(
    kind: EngineKind,
    worker_counts: &[usize],
    rows_per_worker: usize,
    cols: usize,
    mem_per_worker: usize,
    run: F,
) -> XbResult<Vec<(usize, ArrayRun)>>
where
    F: Fn(&Engine, usize, usize, u64) -> XbResult<ArrayRun>,
{
    let mut out = Vec::new();
    for &w in worker_counts {
        let cluster = ClusterSpec::new(w, mem_per_worker);
        let rows = rows_per_worker * w * cluster.bands_per_worker;
        let engine = array_engine(kind, &cluster, rows * cols * 8)?;
        let r = run(&engine, rows, cols, 42 + w as u64)?;
        out.push((w, r));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(2, 1 << 30)
    }

    #[test]
    fn linreg_converges_on_xorbits() {
        let e = array_engine(EngineKind::Xorbits, &cluster(), 0).unwrap();
        let r = run_linreg(&e, 2000, 4, 7).unwrap();
        assert!(r.makespan > 0.0);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn qr_verifies_on_both_engines() {
        for kind in [EngineKind::Xorbits, EngineKind::Dask] {
            let e = array_engine(kind, &cluster(), 2000 * 8 * 8).unwrap();
            let r = run_qr(&e, 2000, 8, 3).unwrap();
            assert!(r.makespan > 0.0, "{}", kind.name());
        }
    }

    #[test]
    fn modin_and_pyspark_lack_arrays() {
        for kind in [EngineKind::Modin, EngineKind::PySpark] {
            let r = array_engine(kind, &cluster(), 0);
            assert!(matches!(r, Err(XbError::Unsupported(_))));
        }
    }

    #[test]
    fn dask_overchunks_relative_to_xorbits() {
        let total = 100_000 * 8 * 8;
        let x = array_engine(EngineKind::Xorbits, &cluster(), total).unwrap();
        let d = array_engine(EngineKind::Dask, &cluster(), total).unwrap();
        // Dask's manual chunk limit is far below Xorbits' default
        assert!(!d.profile.caps.array_auto_chunk);
        let _ = x;
    }

    #[test]
    fn weak_scaling_produces_a_series() {
        let series =
            weak_scaling(EngineKind::Xorbits, &[1, 2], 400, 4, 1 << 30, run_linreg).unwrap();
        assert_eq!(series.len(), 2);
        assert!(series[1].1.problem_size > series[0].1.problem_size);
    }
}
