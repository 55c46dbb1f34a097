//! Equivalence of the vectorized kernels (PR 2) with per-row `Scalar`
//! semantics — the pre-vectorization implementation strategy.
//!
//! The shuffle/join/groupby/sort hot paths now move rows through typed
//! word-level kernels (single-pass scatter, the gather over pieces, columnar
//! accumulators, dictionary-encoded string keys), and expressions through
//! the typed evaluator (packed predicate words, literals never broadcast).
//! Every one of them must stay cell-for-cell identical to the old
//! boxed-`Scalar` behavior. Cases are driven by the in-tree seeded PRNG,
//! including null keys, all-null groups, offset bitmap views, and empty
//! frames.

use xorbits::array::prng::Xoshiro256;
use xorbits::dataframe::column::NO_ROW;
use xorbits::dataframe::expr::BinOp;
use xorbits::dataframe::{
    col, eval, groupby, join, lit, partition, sort, AggFunc, AggSpec, Column, DataFrame, DataType,
    Expr, JoinOptions, JoinType, Scalar,
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
// gather: typed gather over pieces (the join output kernel)
// ---------------------------------------------------------------------------

/// `df` cut at random points into consecutive offset views, zero-row views
/// included (one in front, one at the end, any in between).
fn cut(rng: &mut Xoshiro256, df: &DataFrame) -> Vec<DataFrame> {
    let n = df.num_rows();
    let mut pieces = vec![df.slice(0, 0)];
    let mut at = 0;
    while at < n {
        let len = rng.gen_range_i64(0, (n - at).min(40) as i64 + 1) as usize;
        pieces.push(df.slice(at, len));
        at += len;
    }
    pieces.push(df.slice(n, 0));
    pieces
}

/// Ids into `n` rows: any order with missing rows mixed in, or ascending
/// — long stretches of consecutive ids, skips and repeats — with missing
/// rows last, as a probe side's rows and a left join's right side come.
fn gather_ids(rng: &mut Xoshiro256, n: usize, ascending: bool) -> Vec<u32> {
    let m = rng.gen_range_i64(0, 2 * n as i64 + 1) as usize;
    if !ascending {
        return (0..m)
            .map(|_| match rng.gen_bool(0.7) {
                true => rng.gen_range_i64(0, n as i64) as u32,
                false => NO_ROW,
            })
            .collect();
    }
    let mut ids = Vec::new();
    let mut g = 0;
    while g < n && ids.len() < m {
        ids.push(g as u32);
        g += match rng.next_bounded(20) {
            0 => 0,
            1 => 1 + rng.next_bounded(4) as usize,
            _ => 1,
        };
    }
    ids.extend(std::iter::repeat_n(NO_ROW, rng.next_bounded(3) as usize));
    ids
}

/// `Column::gather` must match a per-row `Scalar` gather from the whole
/// column, for every dtype and both id orders: an id copies that row of
/// the pieces laid end to end (nulls included), `NO_ROW` produces a null
/// row. A piece's validity bitmap carries over into a fixed-width result
/// (and a missing row makes one), while a string result carries one only
/// when a row is null. Without a missing row it is structurally the
/// concatenation's `take`.
#[test]
fn gather_matches_scalar_reference() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(1000 + seed);
        let df = arb_frame(&mut rng);
        let pieces = cut(&mut rng, &df);
        let n = df.num_rows();
        for ascending in [false, true] {
            let idx = gather_ids(&mut rng, n, ascending);
            let found: Vec<u32> = idx.iter().copied().filter(|&g| g != NO_ROW).collect();
            let missing = found.len() < idx.len();
            for name in df.schema().names() {
                let c = df.column(name).unwrap();
                let parts: Vec<&Column> = pieces.iter().map(|p| p.column(name).unwrap()).collect();
                let got = Column::gather(&parts, &idx).unwrap();
                let scalars: Vec<Scalar> = idx
                    .iter()
                    .map(|&g| match g {
                        NO_ROW => Scalar::Null,
                        g => c.get(g as usize),
                    })
                    .collect();
                let want = Column::from_scalars(&scalars, c.data_type()).unwrap();
                assert_eq!(got.len(), want.len());
                for i in 0..got.len() {
                    assert_eq!(got.get(i), want.get(i), "column {name} row {i}");
                }
                let bitmap = match c.data_type() {
                    DataType::Utf8 => got.null_count() > 0,
                    _ => missing || parts.iter().any(|p| p.validity().is_some()),
                };
                assert_eq!(got.validity().is_some(), bitmap, "column {name}");
                let whole = Column::concat(&parts).unwrap();
                let rows: Vec<usize> = found.iter().map(|&g| g as usize).collect();
                assert_eq!(
                    Column::gather(&parts, &found).unwrap(),
                    whole.take(&rows),
                    "column {name}"
                );
            }
        }
        // all rows in order, and nothing but missing rows
        let all: Vec<u32> = (0..n as u32).collect();
        for name in df.schema().names() {
            let c = df.column(name).unwrap();
            let parts: Vec<&Column> = pieces.iter().map(|p| p.column(name).unwrap()).collect();
            let some = Column::gather(&parts, &all).unwrap();
            for i in 0..n {
                assert_eq!(some.get(i), c.get(i));
            }
            let none = Column::gather(&parts, &[NO_ROW; 5]).unwrap();
            assert_eq!(none.null_count(), 5);
        }
    }
    let mixed = [&Column::from_i64(vec![1]), &Column::from_f64(vec![1.0])];
    assert!(Column::gather(&mixed, &[0, 1]).is_err());
}

// ---------------------------------------------------------------------------
// merge: typed and generic probes over pieces
// ---------------------------------------------------------------------------

/// A key column of `dtype`: few distinct values (duplicates on both
/// sides), nulls when `nulls`, `NaN` and both zeros among the floats, and
/// strings on both sides of the 8-byte short-copy boundary.
fn key_column(rng: &mut Xoshiro256, dtype: DataType, n: usize, nulls: bool) -> Column {
    let cells: Vec<Scalar> = (0..n)
        .map(|_| {
            if nulls && rng.gen_bool(0.15) {
                return Scalar::Null;
            }
            let v = rng.gen_range_i64(0, 5);
            match dtype {
                DataType::Int64 => Scalar::Int(v - 2),
                DataType::Date => Scalar::Date(18_000 + v as i32),
                DataType::Float64 => Scalar::Float([0.0, -0.0, 1.5, f64::NAN, -2.0][v as usize]),
                DataType::Utf8 => {
                    Scalar::Str(["", "a", "bb", "exactly8", "a-longer-key"][v as usize].into())
                }
                DataType::Bool => Scalar::Bool(v % 2 == 0),
            }
        })
        .collect();
    Column::from_scalars(&cells, dtype).unwrap()
}

/// Optional payload cells.
fn payload(rng: &mut Xoshiro256, dtype: DataType, n: usize) -> Column {
    let cells: Vec<Scalar> = (0..n)
        .map(|i| match rng.gen_bool(0.8) {
            false => Scalar::Null,
            true if dtype == DataType::Utf8 => Scalar::Str(format!("p{}", i % 11)),
            true if dtype == DataType::Float64 => Scalar::Float(i as f64 * 0.25),
            true => Scalar::Int(i as i64 * 3),
        })
        .collect();
    Column::from_scalars(&cells, dtype).unwrap()
}

/// Join-key equality: null matches null, floats match by bits.
fn key_eq(a: &Scalar, b: &Scalar) -> bool {
    match (a, b) {
        (Scalar::Float(x), Scalar::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// The pandas-`merge` reference as a per-row nested loop over scalars.
fn ref_merge(
    l: &DataFrame,
    r: &DataFrame,
    lon: &[&str],
    ron: &[&str],
    how: JoinType,
    suffixes: (&str, &str),
) -> DataFrame {
    let key = |df: &DataFrame, on: &[&str], i: usize| -> Vec<Scalar> {
        on.iter().map(|k| df.column(k).unwrap().get(i)).collect()
    };
    // output rows: a left row and its right match (none: null)
    let (mut lrows, mut rrows): (Vec<Option<usize>>, Vec<Option<usize>>) = (vec![], vec![]);
    for i in 0..l.num_rows() {
        let lk = key(l, lon, i);
        let hits: Vec<Option<usize>> = (0..r.num_rows())
            .filter(|&j| lk.iter().zip(key(r, ron, j)).all(|(a, b)| key_eq(a, &b)))
            .map(Some)
            .collect();
        let picked = match how {
            JoinType::Inner => hits,
            JoinType::Left if hits.is_empty() => vec![None],
            JoinType::Left => hits,
            JoinType::Semi => hits.into_iter().take(1).collect(),
            JoinType::Anti if hits.is_empty() => vec![None],
            JoinType::Anti => vec![],
        };
        lrows.extend(picked.iter().map(|_| Some(i)));
        rrows.extend(picked);
    }
    let column = |df: &DataFrame, name: &str, rows: &[Option<usize>]| {
        let c = df.column(name).unwrap();
        let cells: Vec<Scalar> = rows
            .iter()
            .map(|row| row.map_or(Scalar::Null, |i| c.get(i)))
            .collect();
        Column::from_scalars(&cells, c.data_type()).unwrap()
    };
    let lnames = l.schema().names();
    let rnames = r.schema().names();
    let shared: Vec<&str> = lon
        .iter()
        .zip(ron)
        .filter(|(a, b)| a == b)
        .map(|(a, _)| *a)
        .collect();
    let mut pairs: Vec<(String, Column)> = Vec::new();
    for name in &lnames {
        let out = match rnames.contains(name)
            && !shared.contains(name)
            && !matches!(how, JoinType::Semi | JoinType::Anti)
        {
            true => format!("{name}{}", suffixes.0),
            false => name.to_string(),
        };
        pairs.push((out, column(l, name, &lrows)));
    }
    if matches!(how, JoinType::Inner | JoinType::Left) {
        for name in rnames.iter().filter(|n| !shared.contains(n)) {
            let out = match lnames.contains(name) {
                true => format!("{name}{}", suffixes.1),
                false => name.to_string(),
            };
            pairs.push((out, column(r, name, &rrows)));
        }
    }
    DataFrame::new(pairs).unwrap()
}

/// Whole-frame equality: names, order, dtypes and every cell, floats by
/// bits (so `NaN` keys compare equal to themselves).
fn assert_frames_equal(got: &DataFrame, want: &DataFrame, what: &str) {
    assert_eq!(got.schema().names(), want.schema().names(), "{what}");
    assert_eq!(got.num_rows(), want.num_rows(), "{what}");
    for name in got.schema().names() {
        let (a, b) = (got.column(name).unwrap(), want.column(name).unwrap());
        assert_eq!(a.data_type(), b.data_type(), "{what}: column {name}");
        for i in 0..a.len() {
            let (x, y) = (a.get(i), b.get(i));
            assert!(
                key_eq(&x, &y),
                "{what}: column {name} row {i}: {x:?} vs {y:?}"
            );
        }
    }
}

/// `merge_pieces` over randomly cut sides equals a per-row nested-loop
/// merge of the whole sides, for every join type, key dtype (nulls,
/// duplicates, `NaN`, ±0.0), one and two keys, same-named and renamed keys
/// and both suffix pairs — and takes exactly the bytes the merge of the
/// concatenated sides does. Pieces include zero-row views, offset views,
/// and empty frames of a divergent schema, which a side with rows ignores.
#[test]
fn merge_matches_nested_loop_reference() {
    let dtypes = [
        DataType::Int64,
        DataType::Date,
        DataType::Float64,
        DataType::Utf8,
        DataType::Bool,
    ];
    let hows = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ];
    for case in 0..160u64 {
        let mut rng = Xoshiro256::seed_from_u64(0x301e + case);
        let two_keys = case % 4 == 3;
        let kt = [dtypes[case as usize % 5], dtypes[(case as usize / 5) % 5]];
        let nulls = rng.gen_bool(0.5);
        let renamed = rng.gen_bool(0.5);
        let (lon, ron): (Vec<&str>, Vec<&str>) = match (renamed, two_keys) {
            (false, false) => (vec!["k"], vec!["k"]),
            (false, true) => (vec!["k", "k2"], vec!["k", "k2"]),
            (true, false) => (vec!["lk"], vec!["rk"]),
            (true, true) => (vec!["lk", "k2"], vec!["rk", "k2"]),
        };
        let side = |rng: &mut Xoshiro256, on: &[&str], payloads: &[(&str, DataType)]| {
            let n = rng.gen_range_i64(0, 40) as usize;
            let mut cols: Vec<(String, Column)> = on
                .iter()
                .zip(kt)
                .map(|(k, t)| (k.to_string(), key_column(rng, t, n, nulls)))
                .collect();
            for &(name, t) in payloads {
                cols.push((name.to_string(), payload(rng, t, n)));
            }
            DataFrame::new(cols).unwrap()
        };
        let l = side(
            &mut rng,
            &lon,
            &[("v", DataType::Int64), ("s", DataType::Utf8)],
        );
        let r = side(
            &mut rng,
            &ron,
            &[("v", DataType::Float64), ("w", DataType::Utf8)],
        );
        let suffixes = if rng.gen_bool(0.5) {
            ("_x", "_y")
        } else {
            ("_l", "_r")
        };
        let pieces = |rng: &mut Xoshiro256, df: &DataFrame| {
            let mut p = cut(rng, df);
            if df.num_rows() > 0 {
                // an empty chunk whose inferred schema diverged
                let odd =
                    DataFrame::new(vec![("other", Column::from_str(Vec::<&str>::new()))]).unwrap();
                let at = rng.gen_range_i64(0, p.len() as i64 + 1) as usize;
                p.insert(at, odd);
            }
            p
        };
        let (lp, rp) = (pieces(&mut rng, &l), pieces(&mut rng, &r));
        let (lrefs, rrefs): (Vec<&DataFrame>, Vec<&DataFrame>) =
            (lp.iter().collect(), rp.iter().collect());
        for how in hows {
            let opts = JoinOptions {
                how,
                suffixes: (suffixes.0.into(), suffixes.1.into()),
            };
            let what = format!("case {case} {how:?} keys {kt:?}/{lon:?}/{ron:?} nulls {nulls}");
            let got = join::merge_pieces(&lrefs, &rrefs, &lon, &ron, &opts).unwrap();
            assert_frames_equal(&got, &ref_merge(&l, &r, &lon, &ron, how, suffixes), &what);
            let concat = |parts: &[&DataFrame]| {
                DataFrame::concat(&DataFrame::live_parts(parts).unwrap()).unwrap()
            };
            let whole = join::merge(&concat(&lrefs), &concat(&rrefs), &lon, &ron, &opts).unwrap();
            assert_eq!(got.nbytes(), whole.nbytes(), "{what}");
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
