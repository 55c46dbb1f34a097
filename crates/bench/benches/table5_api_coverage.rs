//! Regenerates **paper Table V**: API coverage rate over the 30-case
//! groupby/merge/pivot suite.
//!
//! Paper values: Xorbits 96.7%, Modin 96.7%, Dask 46.7%, PySpark 36.7%.
//!
//! Run: `cargo bench --bench table5_api_coverage`

use xorbits_baselines::EngineKind;
use xorbits_bench::{cluster, print_table};
use xorbits_workloads::api_coverage::coverage;

fn main() {
    let cluster = cluster(2, 256 << 20);
    let paper = [
        (EngineKind::Xorbits, 96.7),
        (EngineKind::Modin, 96.7),
        (EngineKind::Dask, 46.7),
        (EngineKind::PySpark, 36.7),
    ];
    let mut row_measured = vec!["coverage rate".to_string()];
    let mut row_paper = vec!["paper".to_string()];
    let mut header = vec!["".to_string()];
    for (kind, paper_rate) in paper {
        let (passed, total) = coverage(kind, &cluster).expect("coverage run");
        let rate = passed as f64 / total as f64 * 100.0;
        header.push(kind.name().to_string());
        row_measured.push(format!("{rate:.1}% ({passed}/{total})"));
        row_paper.push(format!("{paper_rate:.1}%"));
        eprintln!("  {:8}: {passed}/{total}", kind.name());
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Table V — API coverage rate (measured vs paper)",
        &header_refs,
        &[row_measured, row_paper],
    );
}
