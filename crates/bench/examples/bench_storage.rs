//! Benchmarks the multi-level chunk storage service: binary chunk-format
//! encode/decode throughput at 1e5 and 1e6 rows, bit-exact roundtrip
//! verification across every dtype, and a tight-budget TPC-H Q1 run whose
//! working set must spill to the disk tier and read back — reporting the
//! spill traffic and the wall-time overhead against an unbounded run.
//! Emits `BENCH_storage.json` for the driver.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_storage`

use std::time::Instant;
use xorbits_core::config::XorbitsConfig;
use xorbits_core::local::LocalExecutor;
use xorbits_core::session::Session;
use xorbits_dataframe::{col, dates, lit, AggFunc::*, AggSpec, Column, DataFrame, Scalar};
use xorbits_storage::{
    decode_chunk, encode_chunk, ChunkValue, EncodingMode, SpillConfig, StorageConfig,
};
use xorbits_workloads::tpch::TpchData;

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

/// Mixed-dtype frame shaped like real chunk traffic (ints, floats, strings,
/// bools, dates — strings dominate the byte count, as in TPC-H).
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
        ("b", Column::from_bool((0..n).map(|i| i % 3 == 0).collect())),
        (
            "d",
            Column::from_date((0..n).map(|i| (i % 9000) as i32).collect()),
        ),
    ])
    .unwrap()
}

/// Every dtype with nulls: the bit-exactness witness.
fn all_dtypes_frame() -> DataFrame {
    let n = 10_000usize;
    DataFrame::new(vec![
        (
            "i",
            Column::from_opt_i64(
                (0..n as i64)
                    .map(|i| if i % 7 == 0 { None } else { Some(i * 31) })
                    .collect(),
            ),
        ),
        (
            "f",
            Column::from_opt_f64(
                (0..n)
                    .map(|i| {
                        if i % 5 == 0 {
                            None
                        } else {
                            Some(i as f64 * 0.25)
                        }
                    })
                    .collect(),
            ),
        ),
        (
            "s",
            Column::from_opt_str(
                (0..n)
                    .map(|i| {
                        if i % 11 == 0 {
                            None
                        } else {
                            Some(format!("näme-{i}"))
                        }
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        ("b", Column::from_bool((0..n).map(|i| i % 2 == 0).collect())),
        (
            "d",
            Column::from_date((0..n as i32).map(|i| i - 5000).collect()),
        ),
    ])
    .unwrap()
}

/// TPC-H Q1 against a local-executor session.
fn q1(s: &Session<LocalExecutor>, data: &TpchData) -> DataFrame {
    let revenue = || col("l_extendedprice").mul(lit(1.0).sub(col("l_discount")));
    let out = s
        .read_df(data.lineitem.clone())
        .unwrap()
        .filter(col("l_shipdate").le(lit(Scalar::Date(dates::to_days(1998, 9, 2)))))
        .unwrap()
        .assign(vec![
            ("disc_price".into(), revenue()),
            ("charge".into(), revenue().mul(lit(1.0).add(col("l_tax")))),
        ])
        .unwrap()
        .groupby_agg(
            vec!["l_returnflag".into(), "l_linestatus".into()],
            vec![
                AggSpec::new("l_quantity", Sum, "sum_qty"),
                AggSpec::new("l_extendedprice", Sum, "sum_base_price"),
                AggSpec::new("disc_price", Sum, "sum_disc_price"),
                AggSpec::new("charge", Sum, "sum_charge"),
                AggSpec::new("l_quantity", Mean, "avg_qty"),
                AggSpec::new("l_extendedprice", Mean, "avg_price"),
                AggSpec::new("l_discount", Mean, "avg_disc"),
                AggSpec::new("l_quantity", Count, "count_order"),
            ],
        )
        .unwrap()
        .fetch()
        .unwrap();
    xorbits_dataframe::sort::sort_by(&out, &[("l_returnflag", true), ("l_linestatus", true)])
        .unwrap()
}

fn tpch_cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 4 << 10,
        ..Default::default()
    }
}

const TPCH_SF: f64 = 0.1;
const TIGHT_BUDGET: usize = 24 << 10;

/// A `TIGHT_BUDGET` executor spilling to a temp dir under `encoding`.
fn spilling(encoding: EncodingMode) -> LocalExecutor {
    LocalExecutor::with_storage(StorageConfig {
        memory_budget: Some(TIGHT_BUDGET),
        spill: SpillConfig::TempDir,
        encoding,
    })
    .expect("spill dir")
}

fn main() {
    xorbits_bench::trace_init_from_env();
    let encoding = xorbits_bench::encoding_from_env();
    println!("encoding: {encoding:?}");
    // ---- codec throughput ---------------------------------------------------
    let mut codec_rows = Vec::new();
    for &rows in &[100_000usize, 1_000_000] {
        let value = ChunkValue::Df(frame(rows));
        let encoded = encode_chunk(&value);
        let nbytes = encoded.len();
        let enc_s = time_it(10, || encode_chunk(&value));
        let dec_s = time_it(10, || decode_chunk(encoded.clone()).unwrap());
        let gbs = |s: f64| nbytes as f64 / s.max(1e-12) / 1e9;
        println!(
            "codec {rows} rows ({nbytes} B): encode {:.2} GB/s, decode {:.2} GB/s",
            gbs(enc_s),
            gbs(dec_s)
        );
        codec_rows.push((rows, nbytes, enc_s, dec_s));
    }

    // ---- bit-exact roundtrip across all dtypes -----------------------------
    let witness = ChunkValue::Df(all_dtypes_frame());
    let first = encode_chunk(&witness);
    let decoded = decode_chunk(first.clone()).expect("roundtrip decode");
    match (&witness, &decoded) {
        (ChunkValue::Df(a), ChunkValue::Df(b)) => assert_eq!(a, b, "roundtrip drift"),
        _ => unreachable!(),
    }
    let second = encode_chunk(&decoded);
    let roundtrip_bit_exact = first == second;
    assert!(roundtrip_bit_exact, "re-encode must be byte-identical");
    println!(
        "roundtrip all dtypes: bit-exact ({} B envelope)",
        first.len()
    );

    // ---- tight-budget TPC-H under spill ------------------------------------
    let data = TpchData::new(TPCH_SF).expect("tpch data");

    let unbounded_s = time_it(5, || {
        let s = Session::new(tpch_cfg(), LocalExecutor::new());
        q1(&s, &data)
    });
    let reference = {
        let s = Session::new(tpch_cfg(), LocalExecutor::new());
        q1(&s, &data)
    };

    let mut spilled_bytes = 0u64;
    let mut read_back_bytes = 0u64;
    let spill_s = time_it(5, || {
        let s = Session::new(tpch_cfg(), spilling(encoding));
        let out = q1(&s, &data);
        let stats = s.last_report().expect("report").stats;
        spilled_bytes = stats.spilled_bytes as u64;
        read_back_bytes = stats.read_back_bytes as u64;
        out
    });
    {
        // equality gate: the spilled run answers exactly like the unbounded
        let s = Session::new(tpch_cfg(), spilling(encoding));
        assert_eq!(q1(&s, &data), reference, "spilled Q1 diverged");
    }
    assert!(spilled_bytes > 0, "tight budget must force spilling");
    assert!(read_back_bytes > 0, "spilled inputs must be read back");
    let overhead = spill_s / unbounded_s.max(1e-12);
    println!(
        "tpch q1 sf={TPCH_SF} budget={TIGHT_BUDGET}B: spilled {spilled_bytes} B, \
         read back {read_back_bytes} B, wall {:.1} ms vs unbounded {:.1} ms ({overhead:.2}x)",
        spill_s * 1e3,
        unbounded_s * 1e3
    );

    // ---- emit ---------------------------------------------------------------
    let mut json = String::from("{\n  \"codec\": [\n");
    for (i, (rows, nbytes, enc_s, dec_s)) in codec_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {rows}, \"envelope_bytes\": {nbytes}, \
             \"encode_gb_s\": {:.3}, \"decode_gb_s\": {:.3}}}{}\n",
            *nbytes as f64 / enc_s.max(1e-12) / 1e9,
            *nbytes as f64 / dec_s.max(1e-12) / 1e9,
            if i + 1 < codec_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"roundtrip_bit_exact_all_dtypes\": {roundtrip_bit_exact},\n"
    ));
    json.push_str(&format!(
        "  \"tpch_spill\": {{\"query\": \"q1\", \"sf\": {TPCH_SF}, \
         \"budget_bytes\": {TIGHT_BUDGET}, \"spilled_bytes\": {spilled_bytes}, \
         \"read_back_bytes\": {read_back_bytes}, \"wall_ms\": {:.3}, \
         \"unbounded_wall_ms\": {:.3}, \"overhead_x\": {overhead:.3}, \
         \"result_equal_to_unbounded\": true}}\n",
        spill_s * 1e3,
        unbounded_s * 1e3
    ));
    json.push_str("}\n");
    std::fs::write("BENCH_storage.json", &json).unwrap();
    print!("{json}");
    xorbits_bench::trace_dump_from_env();
}
