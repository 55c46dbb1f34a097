//! Equivalence of the vectorized kernels (PR 2) with per-row `Scalar`
//! semantics — the pre-vectorization implementation strategy.
//!
//! The shuffle/join/groupby/sort hot paths now move rows through typed
//! word-level kernels (single-pass scatter, `take_opt` gather, columnar
//! accumulators, dictionary-encoded string keys), and expressions through
//! the typed evaluator (packed predicate words, literals never broadcast).
//! Every one of them must stay cell-for-cell identical to the old
//! boxed-`Scalar` behavior. Cases are driven by the in-tree seeded PRNG,
//! including null keys, all-null groups, offset bitmap views, and empty
//! frames.

use xorbits::array::prng::Xoshiro256;
use xorbits::dataframe::expr::BinOp;
use xorbits::dataframe::{
    col, eval, groupby, lit, partition, sort, AggFunc, AggSpec, Column, DataFrame, DataType, Expr,
    Scalar,
};

const CASES: u64 = 32;

fn arb_frame(rng: &mut Xoshiro256) -> DataFrame {
    let n = rng.gen_range_i64(1, 150) as usize;
    let keys_i: Vec<Option<i64>> = (0..n)
        .map(|_| rng.gen_bool(0.85).then(|| rng.gen_range_i64(0, 8)))
        .collect();
    let keys_s: Vec<Option<String>> = (0..n)
        .map(|_| {
            rng.gen_bool(0.85)
                .then(|| format!("k{}", rng.gen_range_i64(0, 6)))
        })
        .collect();
    let vi: Vec<Option<i64>> = (0..n)
        .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range_i64(-40, 40)))
        .collect();
    let vf: Vec<Option<f64>> = (0..n)
        .map(|_| rng.gen_bool(0.7).then(|| rng.gen_range_f64(-5.0, 5.0)))
        .collect();
    let vs: Vec<Option<String>> = (0..n)
        .map(|_| {
            rng.gen_bool(0.7)
                .then(|| format!("v{}", rng.gen_range_i64(0, 12)))
        })
        .collect();
    let vb: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let vd: Vec<i32> = (0..n)
        .map(|_| rng.gen_range_i64(10_000, 10_100) as i32)
        .collect();
    DataFrame::new(vec![
        ("ki", Column::from_opt_i64(keys_i)),
        ("ks", Column::from_opt_str(keys_s)),
        ("vi", Column::from_opt_i64(vi)),
        ("vf", Column::from_opt_f64(vf)),
        ("vs", Column::from_opt_str(vs)),
        ("vb", Column::from_bool(vb)),
        ("vd", Column::from_date(vd)),
    ])
    .unwrap()
}

/// Asserts cell-level equality (dtype-aware, nulls included).
fn assert_same(a: &DataFrame, b: &DataFrame) {
    assert_eq!(a.num_rows(), b.num_rows());
    assert_eq!(a.schema().names(), b.schema().names());
    for name in a.schema().names() {
        let (ca, cb) = (a.column(name).unwrap(), b.column(name).unwrap());
        assert_eq!(ca.data_type(), cb.data_type(), "column {name}");
        for i in 0..ca.len() {
            assert_eq!(ca.get(i), cb.get(i), "column {name} row {i}");
        }
    }
}

// ---------------------------------------------------------------------------
// hash_partition: single-pass typed scatter
// ---------------------------------------------------------------------------

/// Partitioning must round-trip under concat (no row lost, duplicated, or
/// mutated) and must colocate equal keys, for any partition count.
#[test]
fn hash_partition_roundtrips_under_concat() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let df = arb_frame(&mut rng);
        let with_id = df
            .with_column(
                "__row",
                Column::from_i64((0..df.num_rows() as i64).collect()),
            )
            .unwrap();
        let n = rng.gen_range_i64(1, 9) as usize;
        let parts = partition::hash_partition(&with_id, &["ki", "ks"], n).unwrap();
        assert_eq!(parts.len(), n);
        assert_eq!(
            parts.iter().map(|p| p.num_rows()).sum::<usize>(),
            with_id.num_rows()
        );

        // colocation: each (ki, ks) key tuple appears in exactly one part
        let mut key_part: Vec<(Scalar, Scalar, usize)> = Vec::new();
        for (pi, p) in parts.iter().enumerate() {
            let ki = p.column("ki").unwrap();
            let ks = p.column("ks").unwrap();
            for i in 0..p.num_rows() {
                let (a, b) = (ki.get(i), ks.get(i));
                match key_part.iter().find(|(x, y, _)| *x == a && *y == b) {
                    Some((_, _, owner)) => assert_eq!(*owner, pi, "key split across parts"),
                    None => key_part.push((a, b, pi)),
                }
            }
        }

        // round-trip: concat + sort by row id restores the original frame
        let refs: Vec<&DataFrame> = parts.iter().collect();
        let back = DataFrame::concat(&refs).unwrap();
        let back = sort::sort_by(&back, &[("__row", true)]).unwrap();
        assert_same(&back, &with_id);
    }
}

// ---------------------------------------------------------------------------
// take_opt: typed optional gather (the left-join output kernel)
// ---------------------------------------------------------------------------

/// `take_opt` must match the old per-row `Scalar` gather: `Some(i)` copies
/// row `i` (nulls included), `None` produces a null row, for every dtype.
#[test]
fn take_opt_matches_scalar_reference() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(1000 + seed);
        let df = arb_frame(&mut rng);
        let n = df.num_rows();
        let m = rng.gen_range_i64(0, 2 * n as i64 + 1) as usize;
        let idx: Vec<Option<usize>> = (0..m)
            .map(|_| {
                rng.gen_bool(0.7)
                    .then(|| rng.gen_range_i64(0, n as i64) as usize)
            })
            .collect();
        for name in df.schema().names() {
            let c = df.column(name).unwrap();
            let got = c.take_opt(&idx);
            let scalars: Vec<Scalar> = idx
                .iter()
                .map(|i| i.map_or(Scalar::Null, |j| c.get(j)))
                .collect();
            let want = Column::from_scalars(&scalars, c.data_type()).unwrap();
            assert_eq!(got.len(), want.len());
            for i in 0..got.len() {
                assert_eq!(got.get(i), want.get(i), "column {name} row {i}");
            }
        }
        // all-Some and all-None edges
        let all_some: Vec<Option<usize>> = (0..n).map(Some).collect();
        let all_none: Vec<Option<usize>> = vec![None; 5];
        for name in df.schema().names() {
            let c = df.column(name).unwrap();
            let some = c.take_opt(&all_some);
            for i in 0..n {
                assert_eq!(some.get(i), c.get(i));
            }
            let none = c.take_opt(&all_none);
            assert_eq!(none.null_count(), 5);
        }
    }
}

// ---------------------------------------------------------------------------
// groupby: typed columnar accumulators + dictionary-encoded string keys
// ---------------------------------------------------------------------------

/// Reference group-by over boxed scalars: linear-scan grouping (null keys
/// dropped) and per-row `Scalar` accumulation — the old kernel's semantics.
fn ref_groupby(df: &DataFrame, keys: &[&str], specs: &[AggSpec]) -> DataFrame {
    let key_cols: Vec<&Column> = keys.iter().map(|k| df.column(k).unwrap()).collect();
    let mut group_keys: Vec<Vec<Scalar>> = Vec::new();
    let mut rows_of: Vec<Vec<usize>> = Vec::new();
    'rows: for i in 0..df.num_rows() {
        if key_cols.iter().any(|c| !c.is_valid(i)) {
            continue; // pandas groupby(dropna=True)
        }
        let kt: Vec<Scalar> = key_cols.iter().map(|c| c.get(i)).collect();
        for (g, existing) in group_keys.iter().enumerate() {
            if *existing == kt {
                rows_of[g].push(i);
                continue 'rows;
            }
        }
        group_keys.push(kt);
        rows_of.push(vec![i]);
    }

    let mut pairs: Vec<(String, Column)> = Vec::new();
    for (kidx, k) in keys.iter().enumerate() {
        let scalars: Vec<Scalar> = group_keys.iter().map(|g| g[kidx].clone()).collect();
        let dtype = df.column(k).unwrap().data_type();
        pairs.push((
            k.to_string(),
            Column::from_scalars(&scalars, dtype).unwrap(),
        ));
    }
    for spec in specs {
        let c = df.column(&spec.column).unwrap();
        let mut out: Vec<Scalar> = Vec::new();
        for rows in &rows_of {
            let valid: Vec<usize> = rows.iter().copied().filter(|&i| c.is_valid(i)).collect();
            out.push(match spec.func {
                AggFunc::Sum => match c.data_type() {
                    xorbits::dataframe::DataType::Float64 => {
                        Scalar::Float(valid.iter().map(|&i| c.get(i).as_f64().unwrap()).sum())
                    }
                    xorbits::dataframe::DataType::Date => Scalar::Date(
                        valid
                            .iter()
                            .map(|&i| c.get(i).as_i64().unwrap())
                            .sum::<i64>() as i32,
                    ),
                    _ => Scalar::Int(valid.iter().map(|&i| c.get(i).as_i64().unwrap()).sum()),
                },
                AggFunc::Min | AggFunc::Max => {
                    let mut best: Option<Scalar> = None;
                    for &i in &valid {
                        let v = c.get(i);
                        let replace = match &best {
                            None => true,
                            Some(b) => {
                                let ord = v.total_cmp(b);
                                if spec.func == AggFunc::Min {
                                    ord == std::cmp::Ordering::Less
                                } else {
                                    ord == std::cmp::Ordering::Greater
                                }
                            }
                        };
                        if replace {
                            best = Some(v);
                        }
                    }
                    best.unwrap_or(Scalar::Null)
                }
                AggFunc::Count => Scalar::Int(valid.len() as i64),
                AggFunc::Mean => {
                    if valid.is_empty() {
                        Scalar::Null
                    } else {
                        let sum: f64 = valid.iter().map(|&i| c.get(i).as_f64().unwrap()).sum();
                        Scalar::Float(sum / valid.len() as f64)
                    }
                }
                AggFunc::First => valid.first().map_or(Scalar::Null, |&i| c.get(i)),
                AggFunc::Nunique => {
                    let mut distinct: Vec<Scalar> = Vec::new();
                    for &i in &valid {
                        let v = c.get(i);
                        let dup = distinct.iter().any(|d| match (d, &v) {
                            (Scalar::Float(a), Scalar::Float(b)) => a.to_bits() == b.to_bits(),
                            (a, b) => a == b,
                        });
                        if !dup {
                            distinct.push(v);
                        }
                    }
                    Scalar::Int(distinct.len() as i64)
                }
            });
        }
        let dtype = match spec.func {
            AggFunc::Count | AggFunc::Nunique => xorbits::dataframe::DataType::Int64,
            AggFunc::Mean => xorbits::dataframe::DataType::Float64,
            AggFunc::Sum => match c.data_type() {
                xorbits::dataframe::DataType::Float64 => xorbits::dataframe::DataType::Float64,
                xorbits::dataframe::DataType::Date => xorbits::dataframe::DataType::Date,
                _ => xorbits::dataframe::DataType::Int64,
            },
            _ => c.data_type(),
        };
        pairs.push((
            spec.output.clone(),
            Column::from_scalars(&out, dtype).unwrap(),
        ));
    }
    DataFrame::new(pairs).unwrap()
}

/// The vectorized groupby (hash group ids, typed accumulators, dict-encoded
/// string keys) must equal the scalar reference on random frames with null
/// keys, null values, int+string multi-keys and every aggregation function.
#[test]
fn groupby_matches_scalar_reference() {
    let specs = vec![
        AggSpec::new("vi", AggFunc::Sum, "sum_i"),
        AggSpec::new("vf", AggFunc::Sum, "sum_f"),
        AggSpec::new("vb", AggFunc::Sum, "sum_b"),
        AggSpec::new("vf", AggFunc::Min, "min_f"),
        AggSpec::new("vs", AggFunc::Min, "min_s"),
        AggSpec::new("vi", AggFunc::Max, "max_i"),
        AggSpec::new("vs", AggFunc::Count, "cnt_s"),
        AggSpec::new("vi", AggFunc::Mean, "mean_i"),
        AggSpec::new("vd", AggFunc::Mean, "mean_d"),
        AggSpec::new("vs", AggFunc::First, "fst_s"),
        AggSpec::new("vf", AggFunc::First, "fst_f"),
        AggSpec::new("vs", AggFunc::Nunique, "nu_s"),
        AggSpec::new("vf", AggFunc::Nunique, "nu_f"),
        AggSpec::new("vi", AggFunc::Nunique, "nu_i"),
    ];
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(2000 + seed);
        let df = arb_frame(&mut rng);
        for keys in [&["ki"][..], &["ks"][..], &["ki", "ks"][..]] {
            let got = groupby::groupby_agg(&df, keys, &specs).unwrap();
            let want = ref_groupby(&df, keys, &specs);
            let order: Vec<(&str, bool)> = keys.iter().map(|k| (*k, true)).collect();
            assert_same(
                &sort::sort_by(&got, &order).unwrap(),
                &sort::sort_by(&want, &order).unwrap(),
            );
        }
    }
}

/// Null keys are dropped; a group whose values are all null must produce
/// sum=0, count=0, nunique=0 and null min/mean/first (pandas semantics).
#[test]
fn groupby_null_keys_and_all_null_groups() {
    let df = DataFrame::new(vec![
        (
            "k",
            Column::from_opt_i64(vec![Some(1), Some(1), None, Some(2)]),
        ),
        (
            "v",
            Column::from_opt_f64(vec![None, None, Some(9.0), Some(3.5)]),
        ),
    ])
    .unwrap();
    let out = groupby::groupby_agg(
        &df,
        &["k"],
        &[
            AggSpec::new("v", AggFunc::Sum, "s"),
            AggSpec::new("v", AggFunc::Count, "c"),
            AggSpec::new("v", AggFunc::Mean, "m"),
            AggSpec::new("v", AggFunc::Min, "mn"),
            AggSpec::new("v", AggFunc::First, "f"),
            AggSpec::new("v", AggFunc::Nunique, "nu"),
        ],
    )
    .unwrap();
    assert_eq!(out.num_rows(), 2); // null key row dropped
    let k = out.column("k").unwrap();
    let g1 = (0..2).find(|&i| k.get(i) == Scalar::Int(1)).unwrap();
    assert_eq!(out.column("s").unwrap().get(g1), Scalar::Float(0.0));
    assert_eq!(out.column("c").unwrap().get(g1), Scalar::Int(0));
    assert!(out.column("m").unwrap().get(g1).is_null());
    assert!(out.column("mn").unwrap().get(g1).is_null());
    assert!(out.column("f").unwrap().get(g1).is_null());
    assert_eq!(out.column("nu").unwrap().get(g1), Scalar::Int(0));
}

/// Dictionary encoding must be equality-preserving: codes agree exactly
/// when the strings agree, nulls stay null, and codes are dense
/// first-occurrence ranks.
#[test]
fn dict_encode_is_equality_preserving() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(3000 + seed);
        let df = arb_frame(&mut rng);
        // exercise an offset view too
        let off = rng.gen_range_i64(0, df.num_rows() as i64) as usize;
        let view = df.slice(off, df.num_rows() - off);
        for frame in [&df, &view] {
            let a = frame.column("vs").unwrap().as_utf8().unwrap();
            let codes = a.dict_encode();
            assert_eq!(codes.len(), a.len());
            let mut next_code = 0i64;
            for i in 0..a.len() {
                assert_eq!(codes.is_valid(i), a.get(i).is_some(), "validity row {i}");
                if let Some(c) = codes.get(i) {
                    // dense first-occurrence order
                    assert!(c <= next_code);
                    next_code = next_code.max(c + 1);
                }
                for j in 0..i {
                    if a.get(i).is_some() && a.get(j).is_some() {
                        assert_eq!(
                            codes.get(i) == codes.get(j),
                            a.get(i) == a.get(j),
                            "rows {i},{j}"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// concat / dropna: word-level bitmap ops
// ---------------------------------------------------------------------------

/// String concat over offset views and `dropna` (bitmap-AND) must match
/// per-row reference construction.
#[test]
fn concat_and_dropna_match_per_row_reference() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(4000 + seed);
        let df = arb_frame(&mut rng);
        // concat of random slices (offset validity bitmaps + offset bytes)
        let mut views: Vec<DataFrame> = Vec::new();
        for _ in 0..rng.gen_range_i64(1, 5) {
            let off = rng.gen_range_i64(0, df.num_rows() as i64) as usize;
            let len = rng.gen_range_i64(0, (df.num_rows() - off) as i64 + 1) as usize;
            views.push(df.slice(off, len));
        }
        let refs: Vec<&DataFrame> = views.iter().collect();
        let got = DataFrame::concat(&refs).unwrap();
        // reference: per-row gather through Scalar
        for name in df.schema().names() {
            let want: Vec<Scalar> = views
                .iter()
                .flat_map(|v| {
                    let c = v.column(name).unwrap();
                    (0..v.num_rows()).map(move |i| c.get(i))
                })
                .collect();
            let c = got.column(name).unwrap();
            assert_eq!(c.len(), want.len());
            for (i, w) in want.iter().enumerate() {
                assert_eq!(c.get(i), *w, "column {name} row {i}");
            }
        }

        // dropna on a view: rows kept iff every subset column is valid
        let view = &views[0];
        for subset in [None, Some(&["vi", "vs"][..]), Some(&["vf"][..])] {
            let dropped = view.dropna(subset).unwrap();
            let names: Vec<&str> = match subset {
                Some(s) => s.to_vec(),
                None => view.schema().names(),
            };
            let keep: Vec<usize> = (0..view.num_rows())
                .filter(|&i| names.iter().all(|n| view.column(n).unwrap().is_valid(i)))
                .collect();
            assert_same(&dropped, &view.take(&keep));
        }
    }
}

// ---------------------------------------------------------------------------
// sort: typed comparator
// ---------------------------------------------------------------------------

/// The typed comparator must order rows exactly as the old
/// `Scalar::total_cmp` comparator did (nulls last in both directions,
/// stable ties).
#[test]
fn sort_matches_scalar_comparator() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(5000 + seed);
        let df = arb_frame(&mut rng);
        for keys in [
            &[("vi", true)][..],
            &[("vf", false)][..],
            &[("vs", true), ("vi", false)][..],
            &[("vb", false), ("vd", true)][..],
        ] {
            let got = sort::argsort(&df, keys).unwrap();
            let cols: Vec<&Column> = keys.iter().map(|(k, _)| df.column(k).unwrap()).collect();
            let mut want: Vec<usize> = (0..df.num_rows()).collect();
            want.sort_by(|&a, &b| {
                for (c, (_, asc)) in cols.iter().zip(keys) {
                    let (va, vb) = (c.get(a), c.get(b));
                    let ord = match (va.is_null(), vb.is_null()) {
                        (true, true) => std::cmp::Ordering::Equal,
                        (true, false) => return std::cmp::Ordering::Greater,
                        (false, true) => return std::cmp::Ordering::Less,
                        (false, false) => va.total_cmp(&vb),
                    };
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            assert_eq!(got, want, "keys {keys:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// eval: typed predicate kernels against a per-row Scalar reference
// ---------------------------------------------------------------------------

const CMP_OPS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
];
/// Columns whose values compare with one another as numbers.
const NUMERIC: [&str; 6] = ["i", "j", "f", "g", "d", "b"];

fn pick<T: Clone>(rng: &mut Xoshiro256, from: &[T]) -> T {
    from[rng.next_bounded(from.len() as u64) as usize].clone()
}

/// A frame with nulls in every column, `NaN` and ±0.0 among the floats,
/// `i64` extremes among the integers, then sliced at an offset that is
/// no multiple of 64 so every value and validity bitmap is an offset view.
/// Every eighth case slices it down to no rows.
fn eval_frame(rng: &mut Xoshiro256, case: u64) -> DataFrame {
    let n = rng.gen_range_i64(70, 300) as usize;
    let ints = [
        i64::MIN,
        -(1 << 53) - 1,
        -3,
        -1,
        0,
        1,
        2,
        3,
        1 << 53,
        (1 << 53) + 1,
        i64::MAX,
    ];
    let floats = [
        f64::NAN,
        -0.0,
        0.0,
        -1.0,
        1.0,
        2.0,
        2.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let words = ["", "a", "ab", "abc", "b", "ba", "é", "aé", "zz"];
    let column = |dtype: DataType, rng: &mut Xoshiro256| {
        let cells: Vec<Scalar> = (0..n)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    return Scalar::Null;
                }
                match dtype {
                    DataType::Int64 => Scalar::Int(pick(rng, &ints)),
                    DataType::Float64 => Scalar::Float(pick(rng, &floats)),
                    DataType::Date => Scalar::Date(rng.gen_range_i64(-3, 4) as i32),
                    DataType::Utf8 => Scalar::Str(pick(rng, &words).to_string()),
                    DataType::Bool => Scalar::Bool(rng.gen_bool(0.5)),
                }
            })
            .collect();
        Column::from_scalars(&cells, dtype).unwrap()
    };
    let df = DataFrame::new(vec![
        ("i", column(DataType::Int64, rng)),
        ("j", column(DataType::Int64, rng)),
        ("f", column(DataType::Float64, rng)),
        ("g", column(DataType::Float64, rng)),
        ("d", column(DataType::Date, rng)),
        ("b", column(DataType::Bool, rng)),
        ("c", column(DataType::Bool, rng)),
        ("s", column(DataType::Utf8, rng)),
        ("t", column(DataType::Utf8, rng)),
    ])
    .unwrap();
    // 1..64: never a multiple of 64
    let off = rng.gen_range_i64(1, 64) as usize;
    let len = if case.is_multiple_of(8) {
        0
    } else {
        rng.gen_range_i64(1, (n - off) as i64 + 1) as usize
    };
    df.slice(off, len)
}

/// `x op y` over boxed scalars: null if either side is; strings and
/// booleans by their own order; integers, dates and booleans as exact
/// integers; anything with a float as `f64` under `total_cmp`.
fn ref_cmp(op: BinOp, x: &Scalar, y: &Scalar) -> Scalar {
    use std::cmp::Ordering::*;
    let ord = match (x, y) {
        (Scalar::Null, _) | (_, Scalar::Null) => return Scalar::Null,
        (Scalar::Str(a), Scalar::Str(b)) => a.cmp(b),
        (Scalar::Bool(a), Scalar::Bool(b)) => a.cmp(b),
        (Scalar::Float(_), _) | (_, Scalar::Float(_)) => {
            x.as_f64().unwrap().total_cmp(&y.as_f64().unwrap())
        }
        _ => x.as_i64().unwrap().cmp(&y.as_i64().unwrap()),
    };
    Scalar::Bool(match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        _ => ord != Less,
    })
}

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// Evaluates `e` and asserts whole-column equality with the reference
/// cells (value bits of null rows included, which must be `false`), and
/// that the mask is the column with nulls as `false`.
fn check(df: &DataFrame, e: &Expr, want: Vec<Scalar>) {
    let got = eval::eval(df, e).unwrap();
    let want_col = Column::from_scalars(&want, DataType::Bool).unwrap();
    assert_eq!(got, want_col, "{e:?}");
    let mask = eval::eval_mask(df, e).unwrap();
    let expected: Vec<bool> = want.iter().map(|s| *s == Scalar::Bool(true)).collect();
    assert_eq!(
        mask,
        xorbits::dataframe::Bitmap::from_iter(expected),
        "{e:?}"
    );
}

fn cells(df: &DataFrame, name: &str) -> Vec<Scalar> {
    let c = df.column(name).unwrap();
    (0..c.len()).map(|i| c.get(i)).collect()
}

/// A literal for comparing with `name`: one of its own cells (so equality
/// hits), or an extra of a type it compares with. A null literal is typed
/// `Float64`, so string columns get none.
fn literal_for(rng: &mut Xoshiro256, df: &DataFrame, name: &str) -> Scalar {
    let strings = matches!(name, "s" | "t");
    let own: Vec<Scalar> = cells(df, name)
        .into_iter()
        .filter(|v| !(strings && v.is_null()))
        .collect();
    if !own.is_empty() && rng.gen_bool(0.5) {
        return pick(rng, &own);
    }
    if strings {
        return Scalar::Str(pick(rng, &["", "a", "ab", "b", "é", "zz"]).to_string());
    }
    pick(
        rng,
        &[
            Scalar::Int(1),
            Scalar::Int((1 << 53) + 1),
            Scalar::Int(i64::MIN),
            Scalar::Float(2.0),
            Scalar::Float(-0.0),
            Scalar::Float(f64::NAN),
            Scalar::Date(1),
            Scalar::Bool(true),
            Scalar::Null,
        ],
    )
}

/// The typed evaluator equals a per-row `Scalar` evaluation for every
/// comparison (literal on either side, column against column, mixed
/// numeric types), `and` / `or` / `not`, `isin` with 0, 1, up to 8 and
/// more than 8 probes, the string predicates and `isnull` / `notnull`, on
/// offset views and empty frames.
#[test]
fn eval_matches_scalar_reference() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(6000 + case);
        let df = eval_frame(&mut rng, case);
        let n = df.num_rows();
        let pairs: Vec<(&str, &str)> = NUMERIC
            .iter()
            .flat_map(|a| NUMERIC.iter().map(move |b| (*a, *b)))
            .chain([("s", "t"), ("t", "s"), ("b", "c"), ("s", "s")])
            .collect();
        for op in CMP_OPS {
            for &(a, b) in &pairs {
                let (x, y) = (cells(&df, a), cells(&df, b));
                let want = (0..n).map(|i| ref_cmp(op, &x[i], &y[i])).collect();
                check(&df, &binary(op, col(a), col(b)), want);
            }
            for name in ["i", "f", "d", "b", "s"] {
                let x = cells(&df, name);
                let k = literal_for(&mut rng, &df, name);
                let want = x.iter().map(|v| ref_cmp(op, v, &k)).collect();
                check(&df, &binary(op, col(name), lit(k.clone())), want);
                let want = x.iter().map(|v| ref_cmp(op, &k, v)).collect();
                check(&df, &binary(op, lit(k), col(name)), want);
            }
        }

        // and / or / not, null as false
        let (ki, ks) = (
            literal_for(&mut rng, &df, "i"),
            literal_for(&mut rng, &df, "s"),
        );
        let p = col("i").ge(lit(ki.clone()));
        let q = col("s").lt(lit(ks.clone()));
        let pv: Vec<Scalar> = cells(&df, "i")
            .iter()
            .map(|v| ref_cmp(BinOp::Ge, v, &ki))
            .collect();
        let qv: Vec<Scalar> = cells(&df, "s")
            .iter()
            .map(|v| ref_cmp(BinOp::Lt, v, &ks))
            .collect();
        let truth = |s: &Scalar| *s == Scalar::Bool(true);
        let not = pv
            .iter()
            .map(|s| match s {
                Scalar::Bool(b) => Scalar::Bool(!b),
                _ => Scalar::Null,
            })
            .collect();
        check(&df, &p.clone().not(), not);
        let and = (0..n)
            .map(|i| Scalar::Bool(truth(&pv[i]) && truth(&qv[i])))
            .collect();
        check(&df, &p.clone().and(q.clone()), and);
        let or = (0..n)
            .map(|i| Scalar::Bool(truth(&pv[i]) || truth(&qv[i])))
            .collect();
        check(&df, &p.clone().or(q.clone()), or);
        for b in [true, false] {
            let want = pv.iter().map(|s| Scalar::Bool(truth(s) && b)).collect();
            check(&df, &p.clone().and(lit(b)), want);
            let want = qv.iter().map(|s| Scalar::Bool(b || truth(s))).collect();
            check(&df, &lit(b).or(q.clone()), want);
        }

        // isin: a member is a probe `==` would match; null rows never are
        for name in ["i", "f", "d", "s"] {
            let x = cells(&df, name);
            for k in [0, 1, rng.gen_range_i64(2, 9) as usize, 12] {
                let probes: Vec<Scalar> =
                    (0..k).map(|_| literal_for(&mut rng, &df, name)).collect();
                let want = x
                    .iter()
                    .map(|v| {
                        Scalar::Bool(probes.iter().any(|p| {
                            matches!(p, Scalar::Str(_)) == matches!(v, Scalar::Str(_))
                                && ref_cmp(BinOp::Eq, v, p) == Scalar::Bool(true)
                        }))
                    })
                    .collect();
                check(&df, &col(name).is_in(probes), want);
            }
        }

        // string predicates, null in null out
        for p in ["", "a", "b", "é", "zz"] {
            let x = cells(&df, "s");
            let pred = |f: &dyn Fn(&str) -> bool| -> Vec<Scalar> {
                x.iter()
                    .map(|v| v.as_str().map_or(Scalar::Null, |s| Scalar::Bool(f(s))))
                    .collect()
            };
            check(&df, &col("s").starts_with(p), pred(&|s| s.starts_with(p)));
            check(&df, &col("s").ends_with(p), pred(&|s| s.ends_with(p)));
            check(&df, &col("s").contains(p), pred(&|s| s.contains(p)));
        }

        // isnull / notnull never produce nulls
        for name in df.schema().names() {
            let x = cells(&df, name);
            let nulls = x.iter().map(|v| Scalar::Bool(v.is_null())).collect();
            check(&df, &col(name).is_null(), nulls);
            let valid = x.iter().map(|v| Scalar::Bool(!v.is_null())).collect();
            check(&df, &col(name).not_null(), valid);
        }
    }
}

/// Arithmetic against per-row `Scalar` arithmetic: `Int64 ⊕ Int64`
/// wraps as integers, everything else (and `/`) runs in `f64`, in operand
/// order, with a literal on either side.
#[test]
fn eval_arithmetic_matches_scalar_reference() {
    let ops = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div];
    let reference = |op: BinOp, x: &Scalar, y: &Scalar| -> Scalar {
        if x.is_null() || y.is_null() {
            return Scalar::Null;
        }
        if let (Scalar::Int(a), Scalar::Int(b), false) = (x, y, op == BinOp::Div) {
            return Scalar::Int(match op {
                BinOp::Add => a.wrapping_add(*b),
                BinOp::Sub => a.wrapping_sub(*b),
                _ => a.wrapping_mul(*b),
            });
        }
        let (a, b) = (x.as_f64().unwrap(), y.as_f64().unwrap());
        Scalar::Float(match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            _ => a / b,
        })
    };
    let same = |a: &Scalar, b: &Scalar| match (a, b) {
        (Scalar::Float(x), Scalar::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    };
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(7000 + case);
        let df = eval_frame(&mut rng, case);
        for op in ops {
            for (a, b) in [("i", "j"), ("i", "f"), ("f", "g"), ("d", "i"), ("b", "f")] {
                let (x, y) = (cells(&df, a), cells(&df, b));
                let k = literal_for(&mut rng, &df, b);
                for (e, want) in [
                    (
                        binary(op, col(a), col(b)),
                        (0..x.len())
                            .map(|i| reference(op, &x[i], &y[i]))
                            .collect::<Vec<_>>(),
                    ),
                    (
                        binary(op, col(a), lit(k.clone())),
                        x.iter().map(|v| reference(op, v, &k)).collect(),
                    ),
                    (
                        binary(op, lit(k.clone()), col(a)),
                        x.iter().map(|v| reference(op, &k, v)).collect(),
                    ),
                ] {
                    let got = eval::eval(&df, &e).unwrap();
                    assert_eq!(got.len(), want.len());
                    for (i, w) in want.iter().enumerate() {
                        assert!(
                            same(&got.get(i), w),
                            "{e:?} row {i}: {:?} vs {w:?}",
                            got.get(i)
                        );
                    }
                }
            }
        }
    }
}
