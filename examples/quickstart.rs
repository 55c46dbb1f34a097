//! Quickstart — the paper's Listing 2, in Rust.
//!
//! ```text
//! import xorbits
//! import xorbits.numpy as np
//! import xorbits.pandas as pd
//! xorbits.init(...)
//! ```
//!
//! Run with: `cargo run --release --example quickstart`

use xorbits::prelude::*;

fn main() -> XbResult<()> {
    // xorbits.init() — here: a simulated 4-worker cluster
    let session = xorbits::init(4);

    // ---- array example: Q, R = np.linalg.qr(a) -------------------------
    // No chunk sizes anywhere: auto rechunk (paper Algorithm 1) picks
    // tall-and-skinny blocks and TSQR does the rest. Compare Listing 1,
    // where Dask requires a manual `rechunk`.
    let n = 2000;
    let a = session.random(&[n, 8], 42)?;
    let (q, r) = a.qr()?;
    let r_mat = r.fetch()?;
    println!("QR of a {n}x8 random matrix:");
    println!("  R[0][0..4] = {:?}", &r_mat.data()[0..4]);
    let q_mat = q.fetch()?;
    let qtq = xorbits::array::linalg::matmul(&q_mat.transpose()?, &q_mat)?;
    println!(
        "  ||QᵀQ - I||∞ = {:.2e}  (orthonormal ✓)",
        qtq.max_abs_diff(&xorbits::array::NdArray::eye(8))
    );

    // ---- dataframe example 1: groupby + agg ------------------------------
    // df = pd.read_parquet(...); df.groupby("A").agg("min")
    let df = session.from_df(sales_frame(1_000_000))?;
    let grouped = df.groupby_agg(
        vec!["store".into()],
        vec![AggSpec::new("amount", AggFunc::Min, "min_amount")],
    )?;
    // Deferred evaluation: Display triggers execution, like the paper's
    // customised __repr__.
    println!("\ngroupby('store').agg('min'):\n{grouped}");
    let report = session.last_report().unwrap();
    println!(
        "dynamic tiling: {} yields; decisions: {:?}",
        report.tiling.yields, report.tiling.decisions
    );

    // ---- dataframe example 2: filter + iloc -------------------------------
    // filtered = df[df["col"] < 1]; print(filtered.iloc[10])
    // The filter's output shape is unknown until execution: iterative
    // tiling (paper Fig 3c) runs the filter chunks, learns their lengths,
    // and appends a single ILoc to the right chunk.
    let filtered = df.filter(col("amount").lt(lit(2.0)))?;
    let row = filtered.iloc_row(10)?.fetch()?;
    println!("filtered.iloc[10]:\n{row}");
    let report = session.last_report().unwrap();
    println!(
        "iterative tiling decisions: {:?}",
        report
            .tiling
            .decisions
            .iter()
            .filter(|d| d.starts_with("iloc"))
            .collect::<Vec<_>>()
    );
    Ok(())
}

fn sales_frame(n: usize) -> DataFrame {
    let stores: Vec<String> = (0..n).map(|i| format!("s{}", i % 50)).collect();
    let amounts: Vec<f64> = (0..n).map(|i| (i % 997) as f64 / 10.0).collect();
    DataFrame::new(vec![
        ("store", Column::from_str(stores)),
        ("amount", Column::from_f64(amounts)),
    ])
    .expect("valid frame")
}
