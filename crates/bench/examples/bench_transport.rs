//! Benchmarks the chunkfmt v2 compressed transport: workspace encode and
//! decode throughput (plain vs auto), compression ratios on the column
//! shapes the encodings target (low-cardinality strings for DictUtf8,
//! sorted i64 keys for DeltaVarintI64), a plain-path regression gate
//! against the version-1 free-function encoder, and per-query TPC-H
//! compression ratios over the bytes the simulator actually moves, with
//! the virtual makespan under plain vs auto transport (codec CPU charged).
//! Emits `BENCH_transport.json` for the driver.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_transport`

use std::time::Instant;
use xorbits_baselines::EngineKind;
use xorbits_core::error::FailureKind;
use xorbits_dataframe::{Column, DataFrame};
use xorbits_runtime::ClusterSpec;
use xorbits_storage::{
    decode_chunk_with, encode_chunk, ChunkValue, DecodeWorkspace, EncodeWorkspace, EncodingMode,
};
use xorbits_workloads::harness::run_tpch_once;
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

/// Low-cardinality string columns shaped like TPC-H Q1's group keys
/// (`l_returnflag`/`l_linestatus`) plus a 7-value ship mode — the dict
/// encoding's target shape.
fn string_heavy(n: usize) -> ChunkValue {
    const FLAGS: [&str; 3] = ["A", "N", "R"];
    const STATUS: [&str; 2] = ["F", "O"];
    const MODES: [&str; 7] = ["AIR", "AIR REG", "FOB", "MAIL", "RAIL", "SHIP", "TRUCK"];
    ChunkValue::Df(
        DataFrame::new(vec![
            (
                "returnflag",
                Column::from_str((0..n).map(|i| FLAGS[i % 3].to_string())),
            ),
            (
                "linestatus",
                Column::from_str((0..n).map(|i| STATUS[i % 2].to_string())),
            ),
            (
                "shipmode",
                Column::from_str((0..n).map(|i| MODES[(i * 13) % 7].to_string())),
            ),
        ])
        .unwrap(),
    )
}

/// A sorted i64 key column with small gaps (orderkey-style) — the delta
/// varint encoding's target shape.
fn sorted_keys(n: usize) -> ChunkValue {
    let mut key = 1_000_000i64;
    ChunkValue::Df(
        DataFrame::new(vec![(
            "orderkey",
            Column::from_i64(
                (0..n)
                    .map(|i| {
                        key += 1 + (i as i64 % 3);
                        key
                    })
                    .collect(),
            ),
        )])
        .unwrap(),
    )
}

/// Mixed-dtype frame shaped like real chunk traffic (same shape as
/// `bench_storage`'s codec frame) — the plain-path throughput witness.
fn mixed(n: usize) -> ChunkValue {
    ChunkValue::Df(
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
        .unwrap(),
    )
}

/// Encoded sizes and workspace encode/decode throughput for one value
/// under one mode.
struct CodecRow {
    wire_bytes: usize,
    enc_gb_s: f64,
    dec_gb_s: f64,
}

fn run_codec(
    ws: &mut EncodeWorkspace,
    dws: &mut DecodeWorkspace,
    value: &ChunkValue,
    mode: EncodingMode,
) -> CodecRow {
    let bytes = ws.encode(value, mode).to_vec();
    let wire_bytes = bytes.len();
    let enc_s = time_it(10, || ws.encode(value, mode).len());
    let dec_s = time_it(10, || decode_chunk_with(bytes.clone(), dws).unwrap());
    CodecRow {
        wire_bytes,
        enc_gb_s: wire_bytes as f64 / enc_s.max(1e-12) / 1e9,
        dec_gb_s: wire_bytes as f64 / dec_s.max(1e-12) / 1e9,
    }
}

/// The scale `bench_e2e`'s `tpch_cluster` workload runs at: large enough
/// that tables are many chunks and joins really move bytes.
const TPCH_SF: f64 = 50.0;
/// Runs per (query, encoding); the median makespan is reported, since
/// virtual time embeds measured kernel and codec seconds.
const MAKESPAN_SAMPLES: usize = 3;

fn main() {
    xorbits_bench::trace_init_from_env();
    let mut ws = EncodeWorkspace::default();
    let mut dws = DecodeWorkspace::default();

    // ---- compression ratios on the target column shapes --------------------
    let mut shape_rows = Vec::new();
    for (name, value, floor) in [
        ("string_heavy", string_heavy(200_000), 1.5),
        ("sorted_i64_keys", sorted_keys(200_000), 2.0),
        ("mixed", mixed(200_000), 1.0),
    ] {
        let plain = run_codec(&mut ws, &mut dws, &value, EncodingMode::Plain);
        let auto = run_codec(&mut ws, &mut dws, &value, EncodingMode::Auto);
        let ratio = plain.wire_bytes as f64 / auto.wire_bytes as f64;
        assert!(
            ratio >= floor,
            "{name}: auto must shrink the envelope at least {floor}x, got {ratio:.2}x"
        );
        // the auto envelope must decode back to exactly the plain payload
        let df = |v: &ChunkValue| match v {
            ChunkValue::Df(d) => d.clone(),
            _ => unreachable!(),
        };
        let a =
            decode_chunk_with(ws.encode(&value, EncodingMode::Auto).to_vec(), &mut dws).unwrap();
        let b =
            decode_chunk_with(ws.encode(&value, EncodingMode::Plain).to_vec(), &mut dws).unwrap();
        assert!(
            df(&a) == df(&b) && df(&a) == df(&value),
            "{name}: decode drift across modes"
        );
        println!(
            "{name:<16} plain {:>9} B -> auto {:>9} B  ({ratio:.2}x)  \
             enc {:.2}/{:.2} GB/s  dec {:.2}/{:.2} GB/s",
            plain.wire_bytes,
            auto.wire_bytes,
            plain.enc_gb_s,
            auto.enc_gb_s,
            plain.dec_gb_s,
            auto.dec_gb_s
        );
        shape_rows.push((name, plain, auto, ratio));
    }

    // ---- plain-path regression gate ----------------------------------------
    // The workspace's Plain mode must not lose throughput against the
    // version-1 free-function encoder (which allocates a fresh Vec per
    // call); the reused buffer should make it at least as fast.
    let value = mixed(1_000_000);
    let v1_bytes = encode_chunk(&value).len();
    let v1_s = time_it(10, || encode_chunk(&value).len());
    let ws_s = time_it(10, || ws.encode(&value, EncodingMode::Plain).len());
    let v1_gb_s = v1_bytes as f64 / v1_s.max(1e-12) / 1e9;
    let ws_gb_s = v1_bytes as f64 / ws_s.max(1e-12) / 1e9;
    let plain_speed_ratio = ws_gb_s / v1_gb_s;
    assert!(
        plain_speed_ratio >= 0.75,
        "workspace plain encode regressed: {ws_gb_s:.2} GB/s vs v1 {v1_gb_s:.2} GB/s"
    );
    println!(
        "plain path 1e6 rows: v1 {v1_gb_s:.2} GB/s, workspace {ws_gb_s:.2} GB/s \
         ({plain_speed_ratio:.2}x)"
    );

    // ---- per-query TPC-H transport through the cost model -------------------
    // The simulator encodes a chunk only when it crosses workers or spills,
    // so raw/wire are the *moved* envelopes (zero for a query that moves
    // nothing), and both makespans are charged the encoder's measured CPU:
    // auto wins a query only where the bytes it saves outweigh its chooser.
    let data = TpchData::new(TPCH_SF).expect("tpch data");
    let run = |mode: EncodingMode, q: u32| {
        let cluster = ClusterSpec::new(4, 256 << 20).with_encoding(mode);
        let mut recs: Vec<_> = (0..MAKESPAN_SAMPLES)
            .map(|_| run_tpch_once(EngineKind::Xorbits, &cluster, &data, q))
            .collect();
        for rec in &recs {
            let ok = rec.kind == FailureKind::Success;
            assert!(ok, "Q{q} failed under {mode:?} encoding: {}", rec.error);
        }
        recs.sort_by(|a, b| a.makespan.total_cmp(&b.makespan));
        recs.swap_remove(MAKESPAN_SAMPLES / 2)
    };
    let mut query_rows = Vec::new();
    let (mut total_raw, mut total_wire) = (0usize, 0usize);
    let (mut total_plain_s, mut total_auto_s, mut auto_wins) = (0.0f64, 0.0f64, 0usize);
    for q in 1..=22u32 {
        let (plain, auto) = (run(EncodingMode::Plain, q), run(EncodingMode::Auto, q));
        let (raw, wire) = (auto.stats.encoded_raw_bytes, auto.stats.encoded_wire_bytes);
        assert!(wire <= raw, "Q{q}: auto must never beat plain's size");
        assert_eq!(raw > 0, wire > 0, "Q{q}: an envelope has a header");
        assert_eq!(
            plain.stats.encoded_raw_bytes, plain.stats.encoded_wire_bytes,
            "Q{q}: plain transport compresses nothing"
        );
        total_raw += raw;
        total_wire += wire;
        total_plain_s += plain.makespan;
        total_auto_s += auto.makespan;
        auto_wins += usize::from(auto.makespan < plain.makespan);
        // a query that moved nothing compressed nothing: 1.0x
        let ratio = if wire == 0 {
            1.0
        } else {
            raw as f64 / wire as f64
        };
        println!(
            "Q{q:<2} moved raw {raw:>10} B  wire {wire:>10} B  ({ratio:.2}x)  \
             makespan plain {:.4} s  auto {:.4} s  ({:+.1}%)",
            plain.makespan,
            auto.makespan,
            (auto.makespan / plain.makespan - 1.0) * 100.0
        );
        query_rows.push((q, raw, wire, ratio, plain.makespan, auto.makespan));
    }
    let overall = total_raw as f64 / total_wire.max(1) as f64;
    assert!(
        overall > 1.0,
        "auto must win on bytes across the suite ({overall:.3}x)"
    );
    println!(
        "tpch sf={TPCH_SF}: overall transport compression {overall:.2}x over moved bytes; \
         makespan plain {total_plain_s:.3} s vs auto {total_auto_s:.3} s \
         (auto faster on {auto_wins}/22, median of {MAKESPAN_SAMPLES} runs each)"
    );

    // ---- emit ---------------------------------------------------------------
    let mut json = String::from("{\n  \"shapes\": [\n");
    for (i, (name, plain, auto, ratio)) in shape_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{name}\", \"plain_bytes\": {}, \"auto_bytes\": {}, \
             \"compression_x\": {ratio:.3}, \"plain_encode_gb_s\": {:.3}, \
             \"auto_encode_gb_s\": {:.3}, \"plain_decode_gb_s\": {:.3}, \
             \"auto_decode_gb_s\": {:.3}}}{}\n",
            plain.wire_bytes,
            auto.wire_bytes,
            plain.enc_gb_s,
            auto.enc_gb_s,
            plain.dec_gb_s,
            auto.dec_gb_s,
            if i + 1 < shape_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"plain_path\": {{\"v1_encode_gb_s\": {v1_gb_s:.3}, \
         \"workspace_encode_gb_s\": {ws_gb_s:.3}, \
         \"speed_ratio\": {plain_speed_ratio:.3}, \"no_regression\": true}},\n"
    ));
    json.push_str(&format!(
        "  \"tpch\": {{\"sf\": {TPCH_SF}, \"overall_compression_x\": {overall:.3}, \
         \"plain_makespan_s\": {total_plain_s:.4}, \"auto_makespan_s\": {total_auto_s:.4}, \
         \"auto_faster_queries\": {auto_wins}, \"queries\": [\n"
    ));
    for (i, (q, raw, wire, ratio, plain_s, auto_s)) in query_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"q{q}\", \"encoded_raw_bytes\": {raw}, \
             \"encoded_wire_bytes\": {wire}, \"compression_x\": {ratio:.3}, \
             \"plain_makespan_s\": {plain_s:.5}, \"auto_makespan_s\": {auto_s:.5}}}{}\n",
            if i + 1 < query_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]}\n}\n");
    std::fs::write("BENCH_transport.json", &json).unwrap();
    print!("{json}");
    xorbits_bench::trace_dump_from_env();
}
