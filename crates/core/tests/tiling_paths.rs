//! Integration tests of tiling code paths not exercised by the workload
//! suites: pass-through heads, session-level pivot/fillna/dropna/rename,
//! concat, tensor error paths, and planner-decision introspection.

use xorbits_core::config::XorbitsConfig;
use xorbits_core::error::XbError;
use xorbits_core::local::LocalExecutor;
use xorbits_core::session::Session;
use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame, Scalar};

fn sess(chunk: usize) -> Session<LocalExecutor> {
    Session::new(
        XorbitsConfig {
            chunk_limit_bytes: chunk,
            ..Default::default()
        },
        LocalExecutor::new(),
    )
}

fn frame(n: usize) -> DataFrame {
    DataFrame::new(vec![
        ("k", Column::from_str((0..n).map(|i| format!("g{}", i % 4)))),
        (
            "v",
            Column::from_opt_f64(
                (0..n)
                    .map(|i| if i % 10 == 0 { None } else { Some(i as f64) })
                    .collect(),
            ),
        ),
    ])
    .unwrap()
}

#[test]
fn head_spans_multiple_chunks() {
    let s = sess(256);
    let df = s.from_df(frame(500)).unwrap();
    // head larger than one chunk: pass-through chunks + one boundary slice
    let out = df.head(40).unwrap().fetch().unwrap();
    assert_eq!(out.num_rows(), 40);
    assert_eq!(out.column("v").unwrap().get(39), Scalar::Float(39.0));
}

#[test]
fn head_larger_than_frame() {
    let s = sess(256);
    let out = s
        .from_df(frame(10))
        .unwrap()
        .head(1000)
        .unwrap()
        .fetch()
        .unwrap();
    assert_eq!(out.num_rows(), 10);
}

/// A head that selects no row is an empty frame with the input's schema,
/// exactly as the single-node kernel returns it — not a layout without
/// chunks.
#[test]
fn head_selecting_no_rows_keeps_the_schema() {
    let s = sess(256);
    let df = s.from_df(frame(500)).unwrap();
    let out = df.head(0).unwrap().fetch().unwrap();
    assert_eq!(out, frame(500).head(0));
    assert_eq!(out.schema().names(), vec!["k", "v"]);

    let nothing = col("v").lt(lit(-1.0));
    let out = df
        .filter(nothing.clone())
        .unwrap()
        .head(3)
        .unwrap()
        .fetch()
        .unwrap();
    let mask = xorbits_dataframe::eval::eval_mask(&frame(500), &nothing).unwrap();
    assert_eq!(out, frame(500).filter(&mask).unwrap().head(3));
    assert_eq!((out.num_rows(), out.num_columns()), (0, 2));
}

#[test]
fn fillna_dropna_rename_distributed() {
    let s = sess(256);
    let df = s.from_df(frame(200)).unwrap();
    let filled = df
        .fillna("v".into(), Scalar::Float(-1.0))
        .unwrap()
        .fetch()
        .unwrap();
    assert_eq!(filled.column("v").unwrap().null_count(), 0);
    assert_eq!(filled.column("v").unwrap().get(0), Scalar::Float(-1.0));

    let dropped = df.dropna(None).unwrap().fetch().unwrap();
    assert_eq!(dropped.num_rows(), 180);

    let renamed = df
        .rename(vec![("v".into(), "value".into())])
        .unwrap()
        .fetch()
        .unwrap();
    assert!(renamed.schema().contains("value"));
    assert!(!renamed.schema().contains("v"));
}

#[test]
fn concat_distributed() {
    let s = sess(256);
    let a = s.from_df(frame(100)).unwrap();
    let b = s.from_df(frame(50)).unwrap();
    let out = a.concat(&[&b]).unwrap().fetch().unwrap();
    assert_eq!(out.num_rows(), 150);
}

#[test]
fn pivot_table_distributed() {
    let s = sess(256);
    let df = s.from_df(frame(120)).unwrap();
    let out = df
        .assign(vec![(
            "bucket".into(),
            col("v").gt(lit(50.0)).mul(lit(1i64)),
        )])
        .unwrap()
        .pivot_table("k", "bucket", "v", AggFunc::Count)
        .unwrap()
        .fetch()
        .unwrap();
    assert_eq!(out.num_rows(), 4); // four k groups
}

#[test]
fn groupby_all_rows_scalar_agg() {
    let s = sess(256);
    let out = s
        .from_df(frame(300))
        .unwrap()
        .groupby_agg(vec![], vec![AggSpec::new("v", AggFunc::Count, "c")])
        .unwrap()
        .fetch()
        .unwrap();
    assert_eq!(out.num_rows(), 1);
    assert_eq!(out.column("c").unwrap().get(0), Scalar::Int(270)); // nulls skipped
}

#[test]
fn nunique_shuffle_path_matches_direct() {
    // many chunks force the shuffle+direct nunique lowering
    let s = sess(256);
    let raw = frame(400);
    let expected = xorbits_dataframe::groupby::groupby_agg(
        &raw,
        &["k"],
        &[AggSpec::new("v", AggFunc::Nunique, "nu")],
    )
    .unwrap();
    let expected = xorbits_dataframe::sort::sort_by(&expected, &[("k", true)]).unwrap();
    let out = s
        .from_df(raw)
        .unwrap()
        .groupby_agg(
            vec!["k".into()],
            vec![AggSpec::new("v", AggFunc::Nunique, "nu")],
        )
        .unwrap()
        .sort_values(vec![("k".into(), true)])
        .unwrap()
        .fetch()
        .unwrap();
    assert_eq!(out, expected);
    let decisions = s.last_report().unwrap().tiling.decisions;
    assert!(
        decisions.iter().any(|d| d.contains("nunique -> shuffle")),
        "{decisions:?}"
    );
}

#[test]
fn tensor_binary_incompatible_chunking_is_api_error() {
    let s = sess(1 << 10);
    let a = s.random(&[1000], 1).unwrap(); // many chunks
    let b = s.random(&[999], 2).unwrap(); // different layout, >1 chunk
    let err = a
        .binary(&b, xorbits_array::ElemOp::Add)
        .unwrap()
        .fetch()
        .unwrap_err();
    assert!(matches!(err, XbError::Unsupported(_)), "{err:?}");
}

#[test]
fn matmul_requires_single_chunk_rhs() {
    let s = sess(1 << 10);
    let a = s.random(&[512, 4], 1).unwrap();
    let b = s.random(&[4096, 4], 2).unwrap(); // chunked rhs
    let err = a.matmul(&b).unwrap().fetch().unwrap_err();
    assert!(matches!(err, XbError::Unsupported(_)), "{err:?}");
}

#[test]
fn tensor_elementwise_chain_and_reduce() {
    let s = sess(4 << 10);
    let a = s.random(&[5000], 3).unwrap();
    let scaled = a
        .map_scalar(xorbits_array::ElemOp::Mul, 2.0)
        .unwrap()
        .map_scalar(xorbits_array::ElemOp::Add, 1.0)
        .unwrap();
    let mean = scaled
        .reduce(xorbits_array::Reduction::Mean)
        .unwrap()
        .fetch_scalar()
        .unwrap();
    // E[2U+1] = 2.0 for U ~ Uniform(0,1)
    assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
}

#[test]
fn pairwise_tensor_binary_same_layout() {
    let s = sess(4 << 10);
    let a = s.random(&[4000], 1).unwrap();
    let b = s.random(&[4000], 2).unwrap();
    let sum = a
        .binary(&b, xorbits_array::ElemOp::Add)
        .unwrap()
        .reduce(xorbits_array::Reduction::Mean)
        .unwrap()
        .fetch_scalar()
        .unwrap();
    assert!((sum - 1.0).abs() < 0.05);
}

#[test]
fn iloc_out_of_bounds_is_kernel_error() {
    let s = sess(256);
    let err = s
        .from_df(frame(50))
        .unwrap()
        .iloc_row(500)
        .unwrap()
        .fetch()
        .unwrap_err();
    assert!(matches!(err, XbError::Kernel(_)), "{err:?}");
}

#[test]
fn sort_without_head_gathers_and_sorts() {
    let s = sess(256);
    let sorted = s
        .from_df(frame(200))
        .unwrap()
        .sort_values(vec![("v".into(), false)])
        .unwrap();
    // consume the sort twice so the top-k peephole cannot apply
    let full = sorted.fetch().unwrap();
    assert_eq!(full.num_rows(), 200);
    let v = full.column("v").unwrap();
    assert_eq!(v.get(0), Scalar::Float(199.0));
    // nulls last
    assert!(v.get(199).is_null());
}

#[test]
fn merge_left_broadcast_correctness() {
    let s = sess(512);
    let big = s.from_df(frame(300)).unwrap();
    let dim = s
        .from_df(
            DataFrame::new(vec![
                ("k", Column::from_str(["g0", "g1"])),
                ("label", Column::from_str(["zero", "one"])),
            ])
            .unwrap(),
        )
        .unwrap();
    let out = big
        .merge(
            &dim,
            vec!["k".into()],
            vec!["k".into()],
            xorbits_dataframe::JoinType::Left,
        )
        .unwrap()
        .fetch()
        .unwrap();
    assert_eq!(out.num_rows(), 300);
    // g2/g3 rows have null labels
    let nulls = out.column("label").unwrap().null_count();
    assert_eq!(nulls, 150);
}
