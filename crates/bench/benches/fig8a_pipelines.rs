//! Regenerates **paper Fig 8a**: end-to-end time of the three data-science
//! pipelines (TPCx-AI UC10, census, plasticc) per system.
//!
//! Paper shape: Xorbits fastest everywhere; on UC10 Xorbits is 29× faster
//! than Dask and 37× faster than Modin (data skew); on census Xorbits is
//! 2.65× faster than Modin (the fastest baseline); on plasticc 3.86×
//! faster than PySpark.
//!
//! Run: `cargo bench --bench fig8a_pipelines`

use xorbits_baselines::{Engine, EngineKind};
use xorbits_bench::{bench_scale, cluster, fmt_rel, fmt_time, print_table};
use xorbits_core::error::XbResult;
use xorbits_runtime::ClusterSpec;
use xorbits_workloads::pipelines::{census_data, plasticc_data, run_census, run_plasticc};
use xorbits_workloads::tpcxai::{run_uc10, uc10_data};

fn measure<F>(kind: EngineKind, cluster: &ClusterSpec, f: F) -> f64
where
    F: Fn(&Engine) -> XbResult<()>,
{
    // warm-up run (cold caches distort the measured kernel times the
    // virtual clock is built from), then the measured run
    let warmup = Engine::new(kind, cluster);
    let _ = f(&warmup);
    let engine = Engine::new(kind, cluster);
    match f(&engine) {
        Ok(()) => engine.session.total_stats().makespan,
        Err(_) => f64::NAN,
    }
}

fn main() {
    let s = bench_scale();
    // paper: UC10 on 2 workers, census/plasticc on 1 worker (Table III)
    let uc10 = uc10_data((1_000_000.0 * s) as usize, 2_000, 1.5).expect("uc10 data");
    let census = census_data((800_000.0 * s) as usize);
    let plasticc = plasticc_data((800_000.0 * s) as usize, 2_000);
    let two = cluster(2, 256 << 20);
    let one = cluster(1, 512 << 20);

    let engines = [
        EngineKind::Xorbits,
        EngineKind::PySpark,
        EngineKind::Dask,
        EngineKind::Modin,
        EngineKind::Pandas,
    ];
    let mut rows = Vec::new();
    let mut times = vec![vec![f64::NAN; engines.len()]; 3];
    for (ei, kind) in engines.iter().enumerate() {
        times[0][ei] = measure(*kind, &two, |e| run_uc10(e, &uc10).map(|_| ()));
        times[1][ei] = measure(*kind, &one, |e| run_census(e, &census).map(|_| ()));
        times[2][ei] = measure(*kind, &one, |e| run_plasticc(e, &plasticc).map(|_| ()));
        eprintln!(
            "  {:8}: uc10={} census={} plasticc={}",
            kind.name(),
            fmt_time(times[0][ei]),
            fmt_time(times[1][ei]),
            fmt_time(times[2][ei]),
        );
    }
    for (wi, name) in ["TPCx-AI UC10", "census", "plasticc"].iter().enumerate() {
        let x = times[wi][0];
        let mut row = vec![name.to_string()];
        for (ei, _) in engines.iter().enumerate() {
            let t = times[wi][ei];
            row.push(format!("{} ({})", fmt_time(t), fmt_rel(t / x)));
        }
        rows.push(row);
    }
    print_table(
        "Fig 8a — DS pipelines, absolute virtual time (relative to Xorbits)",
        &["workload", "Xorbits", "PySpark", "Dask", "Modin", "pandas"],
        &rows,
    );
    println!(
        "paper shape: UC10 Dask/Modin ≈ 29x/37x slower than Xorbits; \
         census fastest baseline ≈ 2.65x; plasticc fastest baseline ≈ 3.86x"
    );
}
