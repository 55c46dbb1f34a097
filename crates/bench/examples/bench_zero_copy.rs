//! Benchmarks the zero-copy columnar buffer layer against an eager
//! deep-copy reference (the pre-buffer implementation strategy): slicing,
//! chunking, hash partitioning, concat and literal-payload execution at
//! 1e6 rows. Emits `BENCH_zero_copy.json` for the driver.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_zero_copy`

use std::time::Instant;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::session::Session;
use xorbits_dataframe::{partition, Column, DataFrame, DataType};
use xorbits_runtime::{ClusterSpec, SimExecutor};

const ROWS: usize = 1_000_000;
const CHUNKS: usize = 64;

/// Median seconds per call of `f` over `samples` timed runs.
fn time_it<T>(samples: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f()); // warmup
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The eager reference: copy every value out of the parent, exactly what
/// `slice` did before the shared-buffer layer (fresh vectors per chunk).
fn deep_slice_col(c: &Column, offset: usize, len: usize) -> Column {
    match c.data_type() {
        DataType::Int64 => {
            let a = c.as_i64().unwrap();
            Column::from_i64(a.values[offset..offset + len].to_vec())
        }
        DataType::Float64 => {
            let a = c.as_f64().unwrap();
            Column::from_f64(a.values[offset..offset + len].to_vec())
        }
        DataType::Utf8 => {
            let a = c.as_utf8().unwrap();
            Column::from_str((offset..offset + len).map(|i| a.value(i).to_owned()))
        }
        _ => c.slice(offset, len),
    }
}

fn deep_slice(df: &DataFrame, offset: usize, len: usize) -> DataFrame {
    let pairs: Vec<(&str, Column)> = df
        .schema()
        .names()
        .iter()
        .map(|n| (*n, deep_slice_col(df.column(n).unwrap(), offset, len)))
        .collect();
    DataFrame::new(pairs).unwrap()
}

fn deep_split_even(df: &DataFrame, n: usize) -> Vec<DataFrame> {
    let rows = df.num_rows();
    let base = rows / n;
    let extra = rows % n;
    let mut out = Vec::with_capacity(n);
    let mut offset = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push(deep_slice(df, offset, len));
        offset += len;
    }
    out
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

struct Row {
    name: &'static str,
    zero_copy_s: f64,
    deep_copy_s: Option<f64>,
}

fn main() {
    xorbits_bench::trace_init_from_env();
    let encoding = xorbits_bench::encoding_from_env();
    println!("encoding: {encoding:?}");
    let df = frame(ROWS);
    let mut rows: Vec<Row> = Vec::new();

    let zc = time_it(20, || df.slice(ROWS / 4, ROWS / 2));
    let deep = time_it(5, || deep_slice(&df, ROWS / 4, ROWS / 2));
    rows.push(Row {
        name: "slice_mid_half",
        zero_copy_s: zc,
        deep_copy_s: Some(deep),
    });

    let zc = time_it(20, || partition::split_even(&df, CHUNKS));
    let deep = time_it(5, || deep_split_even(&df, CHUNKS));
    rows.push(Row {
        name: "split_even_64",
        zero_copy_s: zc,
        deep_copy_s: Some(deep),
    });

    // hash_partition gathers by index and materialises either way; timed
    // for coverage of the shuffle path, no deep baseline to beat
    let zc = time_it(3, || partition::hash_partition(&df, &["k"], 16).unwrap());
    rows.push(Row {
        name: "hash_partition_16",
        zero_copy_s: zc,
        deep_copy_s: None,
    });

    let parts = partition::split_even(&df, CHUNKS);
    let refs: Vec<&DataFrame> = parts.iter().collect();
    let zc = time_it(5, || DataFrame::concat(&refs).unwrap());
    rows.push(Row {
        name: "concat_64_parts",
        zero_copy_s: zc,
        deep_copy_s: None,
    });

    // end-to-end: publishing literal chunks through the simulator no
    // longer deep-copies the payload per chunk
    let zc = time_it(3, || {
        let s = Session::new(
            XorbitsConfig::default(),
            SimExecutor::new(ClusterSpec::new(4, 4 << 30).with_encoding(encoding)),
        );
        s.from_df(df.clone()).unwrap().fetch().unwrap()
    });
    rows.push(Row {
        name: "df_literal_execute",
        zero_copy_s: zc,
        deep_copy_s: None,
    });

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"rows\": {ROWS},\n  \"chunks\": {CHUNKS},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r
            .deep_copy_s
            .map(|d| format!("{:.1}", d / r.zero_copy_s.max(1e-12)))
            .unwrap_or_else(|| "null".into());
        let deep = r
            .deep_copy_s
            .map(|d| format!("{:.6}", d * 1e3))
            .unwrap_or_else(|| "null".into());
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"zero_copy_ms\": {:.6}, \"deep_copy_ms\": {}, \"speedup\": {}}}{}\n",
            r.name,
            r.zero_copy_s * 1e3,
            deep,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_zero_copy.json", &json).unwrap();
    print!("{json}");

    let split = &rows[1];
    let speedup = split.deep_copy_s.unwrap() / split.zero_copy_s.max(1e-12);
    println!("split_even({ROWS} rows, {CHUNKS} chunks): {speedup:.0}x vs deep copy");
    assert!(
        speedup >= 10.0,
        "zero-copy split_even must beat the deep copy by >=10x, got {speedup:.1}x"
    );
    xorbits_bench::trace_dump_from_env();
}
