//! Micro-benchmarks of the single-node kernels (the pandas/NumPy
//! substrates every chunk task bottoms out in). Not a paper figure; used to
//! track kernel regressions that would distort the simulator's measured
//! subtask costs.
//!
//! Uses a plain `std::time::Instant` harness (the workspace builds with
//! zero external crates; every `[[bench]]` sets `harness = false`).
//!
//! Run: `cargo bench -p xorbits-bench --bench kernels`

use std::time::Instant;
use xorbits_array::{linalg, random, NdArray};
use xorbits_dataframe::{
    col, column::NO_ROW, groupby, join, lit, partition, sort, AggFunc, AggSpec, Column, DataFrame,
};

const WARMUP: usize = 2;
const SAMPLES: usize = 10;

/// Times `f` over [`SAMPLES`] runs (after warmup) and prints the median.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    for _ in 0..WARMUP {
        std::hint::black_box(f());
    }
    let mut times: Vec<f64> = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    println!(
        "{name:<32} median {:>10.3} ms over {SAMPLES} runs",
        median * 1e3
    );
}

fn frame(n: usize) -> DataFrame {
    DataFrame::new(vec![
        (
            "k",
            Column::from_i64((0..n as i64).map(|i| i % 100).collect()),
        ),
        ("v", Column::from_f64((0..n).map(|i| i as f64).collect())),
        (
            "s",
            Column::from_str((0..n).map(|i| format!("val{}", i % 37))),
        ),
    ])
    .unwrap()
}

fn bench_dataframe() {
    let df = frame(100_000);
    bench("filter_100k", || {
        let mask = xorbits_dataframe::eval::eval_mask(&df, &col("v").lt(lit(5000.0))).unwrap();
        df.filter(&mask).unwrap()
    });
    bench("groupby_sum_100k", || {
        groupby::groupby_agg(&df, &["k"], &[AggSpec::new("v", AggFunc::Sum, "s")]).unwrap()
    });
    let small = frame(1000);
    bench("hash_join_100k_x_1k", || {
        join::merge_on(&df, &small, &["k"]).unwrap()
    });
    bench("sort_100k", || sort::sort_by(&df, &[("v", false)]).unwrap());
    bench("hash_partition_100k_into_16", || {
        partition::hash_partition(&df, &["k"], 16).unwrap()
    });
    // The vectorized kernel primitives underneath shuffle/join/groupby.
    let pids: Vec<u32> = (0..df.num_rows() as u32).map(|i| i % 16).collect();
    let mut counts = vec![0usize; 16];
    for &p in &pids {
        counts[p as usize] += 1;
    }
    let scol = df.column("s").unwrap();
    bench("scatter_str_100k_into_16", || scol.scatter(&pids, &counts));
    let idx: Vec<u32> = (0..df.num_rows())
        .map(|i| {
            if i % 7 == 0 {
                NO_ROW
            } else {
                ((i * 31) % df.num_rows()) as u32
            }
        })
        .collect();
    bench("gather_str_100k", || Column::gather(&[scol], &idx).unwrap());
    bench("dict_encode_100k", || {
        let Column::Utf8(a) = scol else {
            unreachable!()
        };
        a.dict_encode()
    });
}

fn bench_array() {
    let a = random::rand_uniform(&[256, 256], 1);
    let b2 = random::rand_uniform(&[256, 256], 2);
    bench("matmul_256", || linalg::matmul(&a, &b2).unwrap());
    let tall = random::rand_uniform(&[4096, 16], 3);
    bench("qr_4096x16", || linalg::qr(&tall).unwrap());
    let x = random::rand_uniform(&[8192, 8], 4);
    let y = NdArray::from_iter((0..8192).map(|i| i as f64));
    bench("lstsq_8192x8", || linalg::lstsq(&x, &y).unwrap());
}

fn main() {
    bench_dataframe();
    bench_array();
}
