//! Planner diagnostic: the TPCx-AI UC10 skewed join across engines
//! (duplicated engine entries warm the kernel caches before measuring).
use xorbits_baselines::{Engine, EngineKind};
use xorbits_workloads::tpcxai::{run_uc10, uc10_data};

fn main() {
    let data = uc10_data(1_000_000, 2_000, 1.5).expect("uc10 data");
    let cluster = xorbits_bench::cluster(2, 256 << 20);
    for kind in [
        EngineKind::PySpark,
        EngineKind::Xorbits,
        EngineKind::PySpark,
        EngineKind::Xorbits,
        EngineKind::Dask,
    ] {
        let e = Engine::new(kind, &cluster);
        match run_uc10(&e, &data) {
            Ok(_) => {
                let s = e.session.total_stats();
                let r = e.session.last_report().unwrap();
                println!(
                    "{:8} makespan={:.4} subtasks={} net={}MB spill={}MB cpu={:.2}s yields={}",
                    e.name(),
                    s.makespan,
                    s.subtasks,
                    s.net_bytes >> 20,
                    s.spilled_bytes >> 20,
                    s.real_cpu_seconds,
                    r.tiling.yields
                );
                for d in &r.tiling.decisions {
                    println!("    {d}");
                }
            }
            Err(err) => println!("{:8} FAILED {err}", e.name()),
        }
    }
}
