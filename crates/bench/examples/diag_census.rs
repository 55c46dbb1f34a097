//! Planner diagnostic: census pipeline per engine on one worker.
use xorbits_baselines::{Engine, EngineKind};
use xorbits_workloads::pipelines::{census_data, run_census};
fn main() {
    let data = census_data(800_000);
    let one = xorbits_bench::cluster(1, 512 << 20);
    for kind in [
        EngineKind::Dask,
        EngineKind::Xorbits,
        EngineKind::Dask,
        EngineKind::Xorbits,
        EngineKind::Pandas,
    ] {
        let e = Engine::new(kind, &one);
        match run_census(&e, &data) {
            Ok(_) => {
                let s = e.session.total_stats();
                let r = e.session.last_report().unwrap();
                println!(
                    "{:8} makespan={:.4} subtasks={} cpu={:.3} net={}KB yields={} decisions={:?}",
                    e.name(),
                    s.makespan,
                    s.subtasks,
                    s.real_cpu_seconds,
                    s.net_bytes >> 10,
                    r.tiling.yields,
                    r.tiling.decisions
                );
            }
            Err(err) => println!("{:8} FAILED {err}", e.name()),
        }
    }
}
