//! The repo's central correctness property: the *distributed* engine
//! (dynamic tiling, fusion, shuffles, broadcasts, spilling) must produce
//! exactly the results of the single-node kernels, for arbitrary data and
//! arbitrary chunkings. Cases are generated by the in-tree seeded PRNG.

use xorbits::array::prng::Xoshiro256;
use xorbits::baselines::{Engine, EngineKind};
use xorbits::core::config::XorbitsConfig;
use xorbits::prelude::*;
use xorbits::runtime::SimExecutor;

const CASES: u64 = 12;

fn arb_frame(rng: &mut Xoshiro256) -> DataFrame {
    let n = rng.gen_range_i64(20, 400) as usize;
    let k: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(0, 15)).collect();
    let v: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-100.0, 100.0)).collect();
    DataFrame::new(vec![("k", Column::from_i64(k)), ("v", Column::from_f64(v))]).unwrap()
}

/// A session forcing many tiny chunks so every distributed code path
/// (group-by yields, shuffles, combines, auto-merge) actually engages.
fn tiny_chunk_session(chunk_bytes: usize) -> Session<SimExecutor> {
    xorbits::init_with(
        XorbitsConfig {
            chunk_limit_bytes: chunk_bytes.max(64),
            tree_reduce_threshold_bytes: 1 << 10, // force shuffle-reduce often
            ..Default::default()
        },
        ClusterSpec::new(4, 256 << 20),
    )
}

fn frames_close(a: &DataFrame, b: &DataFrame) {
    assert_eq!(a.num_rows(), b.num_rows());
    assert_eq!(a.schema().names(), b.schema().names());
    for ci in 0..a.num_columns() {
        for ri in 0..a.num_rows() {
            let (x, y) = (a.column_at(ci).get(ri), b.column_at(ci).get(ri));
            match (x.as_f64(), y.as_f64()) {
                (Some(x), Some(y)) => {
                    assert!(
                        (x - y).abs() < 1e-6 * x.abs().max(1.0),
                        "cell ({},{}): {} vs {}",
                        ci,
                        ri,
                        x,
                        y
                    )
                }
                _ => assert_eq!(x, y),
            }
        }
    }
}

/// filter → groupby → sort: distributed == kernel, under any chunking.
#[test]
fn pipeline_equivalence() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xe9e0 + case);
        let df = arb_frame(&mut rng);
        let chunk_bytes = rng.gen_range_i64(128, 4096) as usize;
        // reference result straight from the kernels
        let mask = xorbits::dataframe::eval::eval_mask(&df, &col("v").gt(lit(0.0))).unwrap();
        let filtered = df.filter(&mask).unwrap();
        let expected = xorbits::dataframe::groupby::groupby_agg(
            &filtered,
            &["k"],
            &[
                AggSpec::new("v", AggFunc::Sum, "s"),
                AggSpec::new("v", AggFunc::Mean, "m"),
                AggSpec::new("v", AggFunc::Count, "c"),
            ],
        )
        .unwrap();
        let expected = xorbits::dataframe::sort::sort_by(&expected, &[("k", true)]).unwrap();

        let s = tiny_chunk_session(chunk_bytes);
        let out = s
            .from_df(df)
            .unwrap()
            .filter(col("v").gt(lit(0.0)))
            .unwrap()
            .groupby_agg(
                vec!["k".into()],
                vec![
                    AggSpec::new("v", AggFunc::Sum, "s"),
                    AggSpec::new("v", AggFunc::Mean, "m"),
                    AggSpec::new("v", AggFunc::Count, "c"),
                ],
            )
            .unwrap()
            .sort_values(vec![("k".into(), true)])
            .unwrap()
            .fetch()
            .unwrap();
        frames_close(&out, &expected);
    }
}

/// Distributed join equals the kernel join (as multisets of rows).
#[test]
fn join_equivalence() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0x10e9 + case);
        let l = arb_frame(&mut rng);
        let nk = rng.gen_range_i64(1, 40) as usize;
        let r_keys: Vec<i64> = (0..nk).map(|_| rng.gen_range_i64(0, 15)).collect();
        let rdf = DataFrame::new(vec![
            ("k", Column::from_i64(r_keys.clone())),
            ("tag", Column::from_i64((0..r_keys.len() as i64).collect())),
        ])
        .unwrap();
        let rdf = rdf.drop_duplicates(Some(&["k"])).unwrap();
        let expected = xorbits::dataframe::join::merge_on(&l, &rdf, &["k"]).unwrap();
        let expected =
            xorbits::dataframe::sort::sort_by(&expected, &[("k", true), ("v", true)]).unwrap();

        let s = tiny_chunk_session(512);
        let out = s
            .from_df(l)
            .unwrap()
            .merge_on(&s.from_df(rdf).unwrap(), &["k"])
            .unwrap()
            .sort_values(vec![("k".into(), true), ("v".into(), true)])
            .unwrap()
            .fetch()
            .unwrap();
        frames_close(&out, &expected);
    }
}

/// Join keys of different physical types are a type error, not a join
/// that silently matches nothing (inner) or nulls every right column
/// (left) — whichever plan, broadcast or shuffle, the planner picks.
#[test]
fn join_keys_of_different_types_are_an_error() {
    let mut rng = Xoshiro256::seed_from_u64(0x7e57);
    let l = arb_frame(&mut rng);
    let n = l.num_rows();
    let keys: Vec<i64> = (0..15).collect();
    let others = [
        Column::from_f64(keys.iter().map(|&k| k as f64).collect()),
        Column::from_date(keys.iter().map(|&k| k as i32).collect()),
        Column::from_i64(keys.clone()),
    ];
    for (i, other) in others.into_iter().enumerate() {
        let r =
            DataFrame::new(vec![("rk", other), ("tag", Column::from_i64(keys.clone()))]).unwrap();
        for how in [JoinType::Inner, JoinType::Left] {
            for chunk_bytes in [64, 1 << 20] {
                let s = tiny_chunk_session(chunk_bytes);
                let out = s
                    .from_df(l.clone())
                    .unwrap()
                    .merge(
                        &s.from_df(r.clone()).unwrap(),
                        vec!["k".into()],
                        vec!["rk".into()],
                        how,
                    )
                    .unwrap()
                    .fetch();
                match i {
                    // the same-typed control joins every row
                    2 => assert_eq!(out.unwrap().num_rows(), n, "{how:?}"),
                    _ => match out {
                        Err(XbError::Kernel(msg)) => {
                            assert!(msg.contains("type mismatch"), "{msg}")
                        }
                        other => panic!("{how:?} on mismatched keys: {other:?}"),
                    },
                }
            }
        }
    }
}

/// iloc over a filtered frame returns the same row as the kernel path,
/// for any index within bounds (iterative tiling, Fig 3c).
#[test]
fn iloc_equivalence() {
    let mut tested = 0;
    for case in 0..CASES * 2 {
        let mut rng = Xoshiro256::seed_from_u64(0x110c + case);
        let df = arb_frame(&mut rng);
        let row = rng.gen_range_i64(0, 50) as usize;
        let mask = xorbits::dataframe::eval::eval_mask(&df, &col("v").gt(lit(0.0))).unwrap();
        let filtered = df.filter(&mask).unwrap();
        if filtered.num_rows() <= row {
            continue; // assumption failed for this case; try the next seed
        }
        tested += 1;
        let expected = filtered.slice(row, 1);

        let s = tiny_chunk_session(512);
        let out = s
            .from_df(df)
            .unwrap()
            .filter(col("v").gt(lit(0.0)))
            .unwrap()
            .iloc_row(row)
            .unwrap()
            .fetch()
            .unwrap();
        frames_close(&out, &expected);
    }
    assert!(tested >= CASES as usize / 2, "too few live cases: {tested}");
}

/// Every engine profile that claims an operation computes the same answer
/// (planning differs; results must not).
#[test]
fn engines_agree_on_groupby() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xe41e + case);
        let df = arb_frame(&mut rng);
        let cluster = ClusterSpec::new(4, 256 << 20);
        let reference = {
            let e = Engine::new(EngineKind::Pandas, &cluster);
            run_pipeline(&e, df.clone())
        };
        for kind in [
            EngineKind::Xorbits,
            EngineKind::PySpark,
            EngineKind::Dask,
            EngineKind::Modin,
        ] {
            let e = Engine::new(kind, &cluster);
            let out = run_pipeline(&e, df.clone());
            frames_close(&out, &reference);
        }
    }
}

fn run_pipeline(e: &Engine, df: DataFrame) -> DataFrame {
    e.session
        .from_df(df)
        .unwrap()
        .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])
        .unwrap()
        .sort_values(vec![("k".into(), true)])
        .unwrap()
        .fetch()
        .unwrap()
}

/// A handle built on `qr()`'s R reads R, not Q: `r * 1`, `r @ w` and
/// `sum(r)` through the session equal the same kernels applied to the
/// fetched R — one-block QR, multi-block TSQR and the auto-rechunk path,
/// on every executor.
#[test]
fn handles_built_on_qr_r_read_r() {
    use xorbits::array::reduce::reduce_all;
    use xorbits::array::{linalg, ElemOp, NdArray, Reduction};
    use xorbits::core::local::LocalExecutor;
    use xorbits::core::parallel::ParallelExecutor;
    use xorbits::core::session::Executor;

    fn check<E: Executor>(what: &str, mk: impl Fn() -> E) {
        // 8 KiB chunks: [6, 3] is one block, [1200, 4] is five, and
        // [300, 200] starts as 5-row blocks that auto-rechunk merges
        for shape in [[6, 3], [1200, 4], [300, 200]] {
            let cfg = XorbitsConfig {
                chunk_limit_bytes: 8 << 10,
                ..Default::default()
            };
            let s = Session::new(cfg, mk());
            let (q, r) = s.random(&shape, 7).unwrap().qr().unwrap();
            let n = shape[1];
            let r_arr = r.fetch().unwrap();
            assert_eq!(r_arr.shape(), &[n, n], "{what} {shape:?}: R is n x n");
            assert_eq!(q.fetch().unwrap().shape(), &shape, "{what} {shape:?}");

            let scaled = r.map_scalar(ElemOp::Mul, 1.0).unwrap().fetch().unwrap();
            assert_eq!(scaled, r_arr, "{what} {shape:?}: r * 1");

            let w =
                NdArray::from_vec((0..n).map(|i| i as f64 - 1.5).collect(), vec![n, 1]).unwrap();
            let product = r.matmul(&s.tensor(w.clone()).unwrap()).unwrap();
            assert_eq!(
                product.fetch().unwrap(),
                linalg::matmul(&r_arr, &w).unwrap(),
                "{what} {shape:?}: r @ w"
            );

            let total = r.reduce(Reduction::Sum).unwrap().fetch_scalar().unwrap();
            assert_eq!(
                total,
                reduce_all(Reduction::Sum, &r_arr),
                "{what} {shape:?}: sum(r)"
            );
        }
    }

    check("local", LocalExecutor::new);
    check("parallel(4)", || ParallelExecutor::with_threads(4));
    check("sim", || SimExecutor::new(ClusterSpec::new(4, 256 << 20)));
}

/// Budget of the one worker under which the TPC-H suite (8 KiB chunks,
/// SF 1 of the synthetic generator) completes only by spilling. A yield
/// publishes only what is still read, so a query's resident set is small:
/// spread over four workers, at most 7 queries spill before Q18's
/// tree-reduced aggregate (one 24,000-byte chunk, whatever the chunk
/// limit) no longer fits. On one worker 14 queries spill at this budget.
const TIGHT_WORKER_BYTES: usize = 32 << 10;

/// The encoder runs only for bytes that move: for all 22 TPC-H queries on
/// a 4-worker simulator — plain and auto transport encodings with a roomy
/// budget — plus a tight one-worker budget that spills, the bytes encoded
/// are bounded by the bytes sent or spilled (each envelope is encoded
/// once, however many workers receive it) and are zero when nothing moved;
/// results equal the `LocalExecutor` oracle; a second run replays every
/// counter.
#[test]
fn encoder_traffic_is_bounded_by_the_bytes_that_move() {
    use xorbits::core::local::LocalExecutor;
    use xorbits::core::session::ExecStats;
    use xorbits::workloads::tpch::{run_query_on, TpchData};
    use xorbits_storage::EncodingMode;

    let cfg = || XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: 8,
        ..Default::default()
    };
    let caps = EngineKind::Xorbits.profile().caps;
    let roomy = |mode| ClusterSpec::new(4, 256 << 20).with_encoding(mode);
    // one band per worker: which chunk spills then never depends on
    // measured kernel time, so the spill counters replay exactly
    let mut tight = roomy(EncodingMode::Auto);
    (
        tight.workers,
        tight.worker_memory_bytes,
        tight.bands_per_worker,
    ) = (1, TIGHT_WORKER_BYTES, 1);
    let specs = [
        ("plain", roomy(EncodingMode::Plain)),
        ("auto", roomy(EncodingMode::Auto)),
        ("tight", tight),
    ];

    let data = TpchData::new(1.0).expect("tpch data");
    let mut spilling_queries = 0;
    for q in 1..=22u32 {
        let oracle = Session::new(cfg(), LocalExecutor::new());
        let expect = run_query_on(&oracle, &caps, "oracle", &data, q).unwrap();
        for (name, spec) in &specs {
            let run = || {
                let s = Session::new(cfg(), SimExecutor::new(spec.clone()));
                let out = run_query_on(&s, &caps, "xorbits", &data, q)
                    .unwrap_or_else(|e| panic!("Q{q} {name}: {e}"));
                (out, s.total_stats())
            };
            let (out, st) = run();
            assert_eq!(out, expect, "Q{q} {name}: result differs from the oracle");
            let moved = st.net_bytes + st.spilled_bytes;
            let (raw, wire) = (st.encoded_raw_bytes, st.encoded_wire_bytes);
            if moved == 0 {
                assert_eq!((raw, wire), (0, 0), "Q{q} {name}: encoded, moved nothing");
            } else {
                assert!(
                    0 < wire && wire <= moved && wire <= raw,
                    "Q{q} {name}: wire {wire}, raw {raw}, moved {moved}"
                );
            }
            spilling_queries += usize::from(*name == "tight" && st.spilled_bytes > 0);

            let counters = |st: &ExecStats| {
                let moved = (st.net_bytes, st.spilled_bytes, st.read_back_bytes);
                let encoded = (st.encoded_raw_bytes, st.encoded_wire_bytes);
                (st.subtasks, st.peak_worker_bytes, moved, encoded)
            };
            let (out2, st2) = run();
            assert_eq!(out2, expect, "Q{q} {name}: rerun result");
            assert_eq!(counters(&st), counters(&st2), "Q{q} {name}: rerun counters");
        }
    }
    assert!(
        spilling_queries >= 10,
        "the tight budget spilled in {spilling_queries} queries"
    );
}
