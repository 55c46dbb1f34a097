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

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use xorbits::array::prng::Xoshiro256;
use xorbits::core::chunk::{ChunkOp, DfStep, Payload, PayloadKind};
use xorbits::core::exec;
use xorbits::dataframe::column::NO_ROW;
use xorbits::dataframe::dates;
use xorbits::dataframe::expr::{BinOp, Func};
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
            let got = join::merge_pieces(&lrefs, &rrefs, &lon, &ron, &opts, None).unwrap();
            assert_frames_equal(&got, &ref_merge(&l, &r, &lon, &ron, how, suffixes), &what);
            // a projected join is the join, pruned: any subset of its
            // names, keys and suffixed ones included, in any order, and
            // names it lacks
            let names = got.schema().names();
            let mut keep: Vec<String> = names
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .map(|n| n.to_string())
                .chain(["absent".to_string()])
                .collect();
            keep.reverse();
            let pruned: Vec<&str> = names
                .iter()
                .copied()
                .filter(|n| keep.iter().any(|k| k == n))
                .collect();
            let projected =
                join::merge_pieces(&lrefs, &rrefs, &lon, &ron, &opts, Some(&keep)).unwrap();
            let what = format!("{what} keep {keep:?}");
            assert_frames_equal(&projected, &got.select(&pruned).unwrap(), &what);
            let concat = |parts: &[&DataFrame]| {
                DataFrame::concat(&DataFrame::live_parts(parts).unwrap()).unwrap()
            };
            let whole = join::merge(&concat(&lrefs), &concat(&rrefs), &lon, &ron, &opts).unwrap();
            assert_eq!(got.nbytes(), whole.nbytes(), "{what}");
        }
    }
}

/// A filter handed a `PruneTo` projection evaluates its mask on the whole
/// frame and compacts only the kept columns: the result is the filter's,
/// pruned, for predicates over kept and dropped columns alike, offset
/// views, zero-row frames and projections that keep nothing.
#[test]
fn projected_filter_equals_filter_then_prune() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xf17e + case);
        let df = eval_frame(&mut rng, case);
        let names = df.schema().names();
        let predicate = binary(
            pick(&mut rng, &CMP_OPS),
            col(pick(&mut rng, &NUMERIC)),
            col(pick(&mut rng, &NUMERIC)),
        )
        .or(col(pick(&mut rng, &["s", "t"])).eq(lit("a")));
        let mut keep: Vec<String> = names
            .iter()
            .filter(|_| rng.gen_bool(0.4))
            .map(|n| n.to_string())
            .collect();
        if case % 5 == 4 {
            keep = vec!["absent".to_string()];
        }
        let filter = ChunkOp::DfMap(DfStep::Filter(predicate).into());
        let input = [Arc::new(Payload::Df(df))];
        let run = |keep: Option<&[String]>| {
            let out = exec::execute_chunk(&filter, &input, keep).unwrap();
            out[0].as_df().unwrap().clone()
        };
        let prune = ChunkOp::DfMap(DfStep::PruneTo(keep.clone()).into());
        let whole = Arc::new(Payload::Df(run(None)));
        let want = exec::execute_chunk(&prune, &[whole], None).unwrap();
        let what = format!("case {case} keep {keep:?}");
        assert_frames_equal(&run(Some(&keep)), want[0].as_df().unwrap(), &what);
    }
}

// ---------------------------------------------------------------------------
// groupby: typed columnar accumulators + dictionary-encoded string keys
// ---------------------------------------------------------------------------

/// A cell as a hashable key with grouping's equality: null equals null,
/// floats compare by bit pattern (`NaN` equals itself, ±0.0 differ).
fn cell_key(s: &Scalar) -> String {
    match s {
        Scalar::Float(x) => format!("Float({:016x})", x.to_bits()),
        other => format!("{other:?}"),
    }
}

/// The cells of row `i` of `cols` as one hashable key.
fn row_key(cols: &[&Column], i: usize) -> Vec<String> {
    cols.iter().map(|c| cell_key(&c.get(i))).collect()
}

/// Reference group-by over boxed scalars: grouping on each row's cells in
/// first-occurrence order (null keys dropped) and per-row `Scalar`
/// accumulation — the old kernel's semantics.
fn ref_groupby(df: &DataFrame, keys: &[&str], specs: &[AggSpec]) -> DataFrame {
    let key_cols: Vec<&Column> = keys.iter().map(|k| df.column(k).unwrap()).collect();
    let mut group_keys: Vec<Vec<Scalar>> = Vec::new();
    let mut rows_of: Vec<Vec<usize>> = Vec::new();
    let mut gid_of: HashMap<Vec<String>, usize> = HashMap::new();
    for i in 0..df.num_rows() {
        if key_cols.iter().any(|c| !c.is_valid(i)) {
            continue; // pandas groupby(dropna=True)
        }
        let g = *gid_of.entry(row_key(&key_cols, i)).or_insert_with(|| {
            group_keys.push(key_cols.iter().map(|c| c.get(i)).collect());
            rows_of.push(Vec::new());
            rows_of.len() - 1
        });
        rows_of[g].push(i);
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
                        // from +0.0, as pandas: std's empty f64 sum is -0.0
                        Scalar::Float(
                            valid
                                .iter()
                                .fold(0.0, |s, &i| s + c.get(i).as_f64().unwrap()),
                        )
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
                                // ints exactly: `Scalar::total_cmp` goes through
                                // f64, which ties `i64::MIN` with its neighbour
                                let ord = match (&v, b) {
                                    (Scalar::Int(x), Scalar::Int(y)) => x.cmp(y),
                                    _ => v.total_cmp(b),
                                };
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
                        let sum = valid
                            .iter()
                            .fold(0.0, |s, &i| s + c.get(i).as_f64().unwrap());
                        Scalar::Float(sum / valid.len() as f64)
                    }
                }
                AggFunc::First => valid.first().map_or(Scalar::Null, |&i| c.get(i)),
                AggFunc::Nunique => {
                    let distinct: HashSet<String> =
                        valid.iter().map(|&i| cell_key(&c.get(i))).collect();
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

/// `i64` extremes and float specials (`NaN`, ±0.0, ±inf, adjacent bit
/// patterns) with nulls, `n` rows: the values whose keys stretch
/// `nunique`'s observed range past anything a bitset takes.
fn extreme_columns(rng: &mut Xoshiro256, n: usize) -> [(&'static str, Column); 2] {
    let ints = [i64::MIN, i64::MAX, 0, -1, 1, i64::MIN + 1];
    let one = 1.0f64.to_bits();
    let floats = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        f64::from_bits(one + 1),
    ];
    let xi = (0..n)
        .map(|_| rng.gen_bool(0.85).then(|| pick(rng, &ints)))
        .collect();
    let xf = (0..n)
        .map(|_| rng.gen_bool(0.85).then(|| pick(rng, &floats)))
        .collect();
    [
        ("xi", Column::from_opt_i64(xi)),
        ("xf", Column::from_opt_f64(xf)),
    ]
}

/// The vectorized groupby (hash group ids, typed accumulators, dict-encoded
/// string keys) must equal the scalar reference on random frames with null
/// keys, null values, int+string multi-keys, `i64` extremes and float
/// specials, and every aggregation function.
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
        AggSpec::new("vd", AggFunc::Nunique, "nu_d"),
        AggSpec::new("vb", AggFunc::Nunique, "nu_b"),
        AggSpec::new("xi", AggFunc::Nunique, "nu_xi"),
        AggSpec::new("xi", AggFunc::Min, "min_xi"),
        AggSpec::new("xi", AggFunc::Max, "max_xi"),
        AggSpec::new("xf", AggFunc::Nunique, "nu_xf"),
        AggSpec::new("xf", AggFunc::Count, "cnt_xf"),
    ];
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(2000 + seed);
        let mut df = arb_frame(&mut rng);
        for (name, c) in extreme_columns(&mut rng, df.num_rows()) {
            df = df.with_column(name, c).unwrap();
        }
        for keys in [
            &["ki"][..],
            &["ks"][..],
            &["ki", "ks"][..],
            &["xi"][..],
            &["xf"][..],
        ] {
            // groups come out in first-occurrence order on both sides
            let got = groupby::groupby_agg(&df, keys, &specs).unwrap();
            let want = ref_groupby(&df, keys, &specs);
            assert_frames_equal(&got, &want, &format!("seed {seed} keys {keys:?}"));
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

/// Reference distinct: a row is kept iff no earlier row has the same
/// cells in `subset` (every column for `None`) — null equals null, floats
/// compare by bits — rebuilt cell by cell through `Scalar`.
fn ref_drop_duplicates(df: &DataFrame, subset: Option<&[&str]>) -> DataFrame {
    let names = subset.map_or_else(|| df.schema().names(), <[&str]>::to_vec);
    let key_cols: Vec<&Column> = names.iter().map(|n| df.column(n).unwrap()).collect();
    let mut seen = HashSet::new();
    let keep: Vec<usize> = (0..df.num_rows())
        .filter(|&i| seen.insert(row_key(&key_cols, i)))
        .collect();
    let pairs = df
        .schema()
        .names()
        .into_iter()
        .map(|n| {
            let c = df.column(n).unwrap();
            let cells: Vec<Scalar> = keep.iter().map(|&i| c.get(i)).collect();
            (n, Column::from_scalars(&cells, c.data_type()).unwrap())
        })
        .collect();
    DataFrame::new(pairs).unwrap()
}

/// `n` rows of few distinct values, nulls in every column but `b`: `i64`
/// extremes (`i`, past the direct-address table) and a small int range
/// (`j`, within it), float specials, strings sharing long prefixes.
fn distinct_frame(rng: &mut Xoshiro256, n: usize) -> DataFrame {
    let ints = [i64::MIN, i64::MAX, 0, -1, 1];
    let floats = [0.0, -0.0, f64::NAN, f64::INFINITY, 1.5, -2.0];
    let strs = [
        "",
        "exactly8",
        "a-shared-long-prefix-",
        "a-shared-long-prefix-0",
        "a-shared-long-prefix-1",
    ];
    let mut opt = |p: f64| rng.gen_bool(p);
    let valid: Vec<[bool; 4]> = (0..n)
        .map(|_| [opt(0.85), opt(0.85), opt(0.85), opt(0.85)])
        .collect();
    let i = (0..n)
        .map(|r| valid[r][0].then(|| pick(rng, &ints)))
        .collect();
    let j = (0..n)
        .map(|r| valid[r][1].then(|| rng.gen_range_i64(0, 4)))
        .collect();
    let f = (0..n)
        .map(|r| valid[r][2].then(|| pick(rng, &floats)))
        .collect();
    let s: Vec<Option<String>> = (0..n)
        .map(|r| valid[r][3].then(|| pick(rng, &strs).to_string()))
        .collect();
    let b = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    DataFrame::new(vec![
        ("i", Column::from_opt_i64(i)),
        ("j", Column::from_opt_i64(j)),
        ("f", Column::from_opt_f64(f)),
        ("s", Column::from_opt_str(s)),
        ("b", Column::from_bool(b)),
    ])
    .unwrap()
}

/// `drop_duplicates` keeps exactly the first row of every distinct key
/// tuple, in order, for subsets of zero to three columns and `None`, on
/// whole frames, offset views and empty frames.
#[test]
fn drop_duplicates_matches_scalar_reference() {
    let subsets: [Option<&[&str]>; 8] = [
        None,
        Some(&[]),
        Some(&["i"]),
        Some(&["j"]),
        Some(&["f"]),
        Some(&["s", "j"]),
        Some(&["i", "f", "s"]),
        Some(&["b", "j", "s"]),
    ];
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(6000 + seed);
        let n = rng.gen_range_i64(0, 200) as usize;
        let df = distinct_frame(&mut rng, n);
        let off = rng.gen_range_i64(0, n as i64 + 1) as usize;
        for frame in [&df, &df.slice(off, n - off), &df.head(0)] {
            for subset in subsets {
                assert_frames_equal(
                    &frame.drop_duplicates(subset).unwrap(),
                    &ref_drop_duplicates(frame, subset),
                    &format!("seed {seed} subset {subset:?}"),
                );
            }
        }
    }
}

/// Past 8,192 distinct keys on the hash path — `f64` keys with `NaN`,
/// ±0.0 and nulls, and wide-range `i64` pairs — the grouping table has
/// doubled several times; groups (with `nunique`) and distinct rows still
/// equal the references, in first-occurrence order.
#[test]
fn grouping_table_doubles_past_8192_hash_keys() {
    let mut rng = Xoshiro256::seed_from_u64(6100);
    let n = 20_000;
    let kf: Vec<Option<f64>> = (0..n)
        .map(|_| match rng.gen_range_i64(0, 40) {
            0 => None,
            1 => Some(f64::NAN),
            2 => Some(-0.0),
            3 => Some(0.0),
            _ => Some(rng.gen_range_i64(0, 12_000) as f64 * 0.37),
        })
        .collect();
    let pairs: Vec<(i64, i64)> = (0..12_000)
        .map(|_| (rng.next_u64() as i64, rng.gen_range_i64(-3, 3)))
        .collect();
    let (ka, kb): (Vec<i64>, Vec<i64>) = (0..n).map(|_| pick(&mut rng, &pairs)).unzip();
    let vi = (0..n)
        .map(|_| rng.gen_bool(0.9).then(|| rng.gen_range_i64(0, 6)))
        .collect();
    let vs = (0..n)
        .map(|_| {
            rng.gen_bool(0.9)
                .then(|| format!("v{}", rng.gen_range_i64(0, 5)))
        })
        .collect::<Vec<_>>();
    let df = DataFrame::new(vec![
        ("kf", Column::from_opt_f64(kf)),
        ("ka", Column::from_i64(ka)),
        ("kb", Column::from_i64(kb)),
        ("vi", Column::from_opt_i64(vi)),
        ("vs", Column::from_opt_str(vs)),
    ])
    .unwrap();
    let specs = [
        AggSpec::new("vi", AggFunc::Nunique, "nu_i"),
        AggSpec::new("vs", AggFunc::Nunique, "nu_s"),
        AggSpec::new("kf", AggFunc::Nunique, "nu_f"),
        AggSpec::new("vi", AggFunc::Count, "cnt_i"),
        AggSpec::new("vs", AggFunc::First, "fst_s"),
    ];
    for keys in [&["kf"][..], &["ka", "kb"][..]] {
        let got = groupby::groupby_agg(&df, keys, &specs).unwrap();
        assert!(got.num_rows() > 8192, "{keys:?}: {} groups", got.num_rows());
        assert_frames_equal(&got, &ref_groupby(&df, keys, &specs), &format!("{keys:?}"));
    }
    for subset in [
        Some(&["kf"][..]),
        Some(&["ka", "kb"][..]),
        Some(&["kf", "kb"][..]),
        None,
    ] {
        let got = df.drop_duplicates(subset).unwrap();
        assert!(got.num_rows() > 8192, "{subset:?}: {} rows", got.num_rows());
        assert_frames_equal(
            &got,
            &ref_drop_duplicates(&df, subset),
            &format!("{subset:?}"),
        );
    }
}

/// `nunique` marks a bitset while groups × observed key range is at most
/// the counted column's bytes (8 per null-free `Int64` row) and keeps one
/// table of (group, key) pairs past it; both sides of that bound, keys
/// whose observed range overflows (`i64` extremes, float bit patterns)
/// and more than 8,192 groups count what the reference counts.
#[test]
fn nunique_matches_reference_on_both_sides_of_the_bitset_bound() {
    let (n, groups) = (1000usize, 10i64);
    let mut rng = Xoshiro256::seed_from_u64(6200);
    let k = Column::from_i64((0..n as i64).map(|i| i % groups).collect());
    let bound = 8 * n / groups as usize;
    for span in [1, bound - 1, bound, bound + 1, 4 * bound] {
        // the observed range is exactly `span`: its ends are present
        let mut v: Vec<i64> = (0..n)
            .map(|_| 1000 + rng.gen_range_i64(0, span as i64))
            .collect();
        v[0] = 1000;
        v[1] = 1000 + span as i64 - 1;
        let df = DataFrame::new(vec![("k", k.clone()), ("v", Column::from_i64(v))]).unwrap();
        let specs = [AggSpec::new("v", AggFunc::Nunique, "nu")];
        assert_frames_equal(
            &groupby::groupby_agg(&df, &["k"], &specs).unwrap(),
            &ref_groupby(&df, &["k"], &specs),
            &format!("span {span}"),
        );
    }
    // adjacent float bit patterns (a bitset), extremes and specials (sets),
    // strings by code, dates and bools
    let one = 1.0f64.to_bits();
    let near = (0..n)
        .map(|_| f64::from_bits(one + rng.gen_range_i64(0, 50) as u64))
        .collect();
    let [(_, xi), (_, xf)] = extreme_columns(&mut rng, n);
    let df = DataFrame::new(vec![
        ("k", k),
        ("near", Column::from_f64(near)),
        ("xi", xi),
        ("xf", xf),
        (
            "s",
            Column::from_str((0..n).map(|i| format!("s{}", i % 97))),
        ),
        (
            "d",
            Column::from_date((0..n).map(|i| (i % 13) as i32).collect()),
        ),
        ("b", Column::from_bool((0..n).map(|i| i % 3 == 0).collect())),
    ])
    .unwrap();
    let specs: Vec<AggSpec> = ["near", "xi", "xf", "s", "d", "b"]
        .iter()
        .map(|c| AggSpec::new(*c, AggFunc::Nunique, format!("nu_{c}")))
        .collect();
    for keys in [&["k"][..], &[][..]] {
        assert_frames_equal(
            &groupby::groupby_agg(&df, keys, &specs).unwrap(),
            &ref_groupby(&df, keys, &specs),
            &format!("keys {keys:?}"),
        );
    }
    // past 8,192 groups of a few rows each, a shuffle partition's shape:
    // keys over the whole `i64` range, repeats and nulls within a group,
    // float bit patterns — one table of (group, key) pairs
    let n = 40_000;
    let values: Vec<i64> = (0..64).map(|_| rng.next_u64() as i64).collect();
    let g: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(0, 10_000)).collect();
    let v: Vec<Option<i64>> = (0..n)
        .map(|_| rng.gen_bool(0.9).then(|| pick(&mut rng, &values)))
        .collect();
    let f: Vec<f64> = (0..n)
        .map(|_| f64::from_bits(rng.next_u64() >> rng.gen_range_i64(0, 3)))
        .collect();
    let df = DataFrame::new(vec![
        ("g", Column::from_i64(g)),
        ("v", Column::from_opt_i64(v)),
        ("f", Column::from_f64(f)),
    ])
    .unwrap();
    let specs = [
        AggSpec::new("v", AggFunc::Nunique, "nu_v"),
        AggSpec::new("f", AggFunc::Nunique, "nu_f"),
    ];
    let got = groupby::groupby_agg(&df, &["g"], &specs).unwrap();
    assert!(got.num_rows() > 8192, "{} groups", got.num_rows());
    assert_frames_equal(&got, &ref_groupby(&df, &["g"], &specs), "8192+ groups");
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

        // date parts: null in null out, the date's validity carried over
        let x = cells(&df, "d");
        for (func, part) in [
            (Func::Year, dates::year as fn(i32) -> i32),
            (Func::Month, |d| dates::month(d) as i32),
            (Func::Day, |d| dates::day(d) as i32),
        ] {
            let want: Vec<Scalar> = x
                .iter()
                .map(|v| match v {
                    Scalar::Date(d) => Scalar::Int(i64::from(part(*d))),
                    _ => Scalar::Null,
                })
                .collect();
            let e = Expr::Call {
                func: func.clone(),
                expr: Box::new(col("d")),
            };
            let got = eval::eval(&df, &e).unwrap();
            assert_eq!(
                got,
                Column::from_scalars(&want, DataType::Int64).unwrap(),
                "{e:?}"
            );
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

/// String `==` / `!=` against a literal and `isin` with at most 4 string
/// probes of any one length compare a row's length, then its first 8 bytes
/// as one word, then the rest; more probes of one length go through a hash
/// set. Against a per-row `Scalar` reference: nulls, empty strings,
/// strings longer than 8 bytes that share their first 8, lengths either side
/// of 8, non-ASCII, rows at the very end of the byte buffer, offset views.
#[test]
fn string_equality_and_isin_match_scalar_reference() {
    let words = [
        "",
        "A",
        "AIR",
        "REG AIR",
        "ABCDEFGH",
        "ABCDEFGI",
        "ABCDEFG",
        "DELIVER IN PERSON",
        "DELIVER IN PERSONS",
        "DELIVER IN PERSOM",
        "DELIVER ",
        "éééé",
        "ééééé",
        "éééé\u{0}",
        "aé",
    ];
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(8000 + case);
        let n = rng.gen_range_i64(1, 200) as usize;
        let cells: Vec<Scalar> = (0..n)
            .map(|_| match rng.gen_bool(0.15) {
                true => Scalar::Null,
                false => Scalar::Str(pick(&mut rng, &words).to_string()),
            })
            .collect();
        let column = Column::from_scalars(&cells, DataType::Utf8).unwrap();
        let df = DataFrame::new(vec![("s", column)]).unwrap();
        let off = rng.gen_range_i64(0, n as i64) as usize;
        let len = rng.gen_range_i64(0, (n - off) as i64 + 1) as usize;
        let df = df.slice(off, len);
        let x = &cells[off..off + len];
        for w in words {
            let k = Scalar::Str(w.to_string());
            for op in [BinOp::Eq, BinOp::Ne] {
                let want = x.iter().map(|v| ref_cmp(op, v, &k)).collect();
                check(&df, &binary(op, col("s"), lit(k.clone())), want);
                let want = x.iter().map(|v| ref_cmp(op, &k, v)).collect();
                check(&df, &binary(op, lit(k.clone()), col("s")), want);
            }
        }
        let mut probe_sets: Vec<Vec<&str>> = [1, 2, rng.gen_range_i64(3, 9) as usize, 9, 14]
            .into_iter()
            .map(|k| (0..k).map(|_| pick(&mut rng, &words)).collect())
            .collect();
        // four probes 8 bytes long, at the per-length bound, then five
        probe_sets.push(vec!["ABCDEFGH", "ABCDEFGI", "DELIVER ", "éééé", "A"]);
        probe_sets.push(vec!["ABCDEFGH", "ABCDEFGI", "DELIVER ", "éééé", "ABCDEFGH"]);
        for set in probe_sets {
            let probes: Vec<Scalar> = set.iter().map(|w| Scalar::Str(w.to_string())).collect();
            let want = x
                .iter()
                .map(|v| Scalar::Bool(!v.is_null() && probes.contains(v)))
                .collect();
            check(&df, &col("s").is_in(probes), want);
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

// ---------------------------------------------------------------------------
// coded strings: a coded column and its plain twin give equal results
// ---------------------------------------------------------------------------

/// Dictionary values: `""`, non-ASCII text, and two values that share
/// their first 21 bytes, so equality must look past the first word.
const CODED_VALUES: [&str; 7] = [
    "AIR",
    "",
    "REG AIR",
    "a-long-shared-prefix-1",
    "a-long-shared-prefix-2",
    "é",
    "MAIL",
];

/// The plain column holding `c`'s values.
fn plain_twin(c: &Column) -> Column {
    Column::from_opt_str(c.as_utf8().unwrap().iter())
}

fn is_coded(c: &Column) -> bool {
    c.as_utf8().unwrap().is_coded()
}

/// `n` rows coded over `values` (every option listed, so unused entries
/// stay in the dictionary), about a fifth of them null.
fn coded_column(rng: &mut Xoshiro256, n: usize, values: &[&str]) -> Column {
    let picks: Vec<u8> = (0..n)
        .map(|_| rng.next_bounded(values.len() as u64) as u8)
        .collect();
    let full = Column::from_str_picks(values, &picks);
    let ids: Vec<u32> = (0..n as u32)
        .map(|i| if rng.gen_bool(0.2) { NO_ROW } else { i })
        .collect();
    Column::gather(&[&full], &ids).unwrap()
}

/// A coded result and the plain result hold the same values, carry a
/// validity bitmap alike and have the same logical size.
fn assert_twins(coded: &Column, plain: &Column, what: &str) {
    assert_eq!(coded, plain, "{what}");
    assert_eq!(
        coded.validity().is_some(),
        plain.validity().is_some(),
        "{what}: validity bitmap"
    );
    assert_eq!(coded.nbytes(), plain.nbytes(), "{what}: nbytes");
}

/// Filter, take, slice at offsets that are no multiple of 64, scatter and
/// concat keep the coded form and agree with the plain kernels.
#[test]
fn coded_strings_match_plain_under_row_operations() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(9000 + seed);
        let n = rng.gen_range_i64(0, 300) as usize;
        let coded = coded_column(&mut rng, n, &CODED_VALUES);
        let plain = plain_twin(&coded);
        assert!(is_coded(&coded));
        assert_twins(&coded, &plain, "built");

        let mask = xorbits::dataframe::Bitmap::from_iter((0..n).map(|_| rng.gen_bool(0.6)));
        let filtered = coded.filter(&mask);
        assert!(is_coded(&filtered));
        assert_twins(&filtered, &plain.filter(&mask), "filter");

        let rows: Vec<usize> = (0..n / 2)
            .map(|_| rng.next_bounded(n as u64) as usize)
            .collect();
        let taken = coded.take(&rows);
        assert!(is_coded(&taken));
        assert_twins(&taken, &plain.take(&rows), "take");

        let off = rng.gen_range_i64(0, n as i64 + 1) as usize;
        let off = if off.is_multiple_of(64) && off < n {
            off + 1
        } else {
            off
        };
        let len = rng.gen_range_i64(0, (n - off) as i64 + 1) as usize;
        let sliced = coded.slice(off, len);
        assert!(is_coded(&sliced));
        assert_twins(&sliced, &plain.slice(off, len), "slice");
        for (at, rows) in [(len / 3, len / 2), (1.min(len), len.saturating_sub(2))] {
            let inner = sliced.slice(at, rows);
            assert_twins(&inner, &plain.slice(off + at, rows), "slice of a slice");
        }

        let parts = 1 + rng.next_bounded(4) as usize;
        let pids: Vec<u32> = (0..n)
            .map(|_| rng.next_bounded(parts as u64) as u32)
            .collect();
        let mut counts = vec![0; parts];
        pids.iter().for_each(|&p| counts[p as usize] += 1);
        for (c, p) in coded
            .scatter(&pids, &counts)
            .iter()
            .zip(plain.scatter(&pids, &counts))
        {
            assert!(is_coded(c));
            assert_twins(c, &p, "scatter");
        }

        let pieces = [&sliced, &filtered, &coded.slice(0, 0), &taken];
        let joined = Column::concat(&pieces).unwrap();
        assert!(is_coded(&joined));
        let plains: Vec<Column> = pieces.iter().map(|c| plain_twin(c)).collect();
        let plains: Vec<&Column> = plains.iter().collect();
        let want = Column::concat(&plains).unwrap();
        assert_eq!(joined, want, "concat");
        assert_eq!(joined.nbytes(), want.nbytes(), "concat nbytes");
    }
}

/// A gather across pieces keeps the codes when the pieces share their
/// dictionary or hold equal ones, and falls back to the plain form when
/// the dictionaries differ; every result matches the plain gather.
#[test]
fn coded_gather_across_pieces_matches_plain() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(9100 + seed);
        let one = coded_column(&mut rng, 120, &CODED_VALUES);
        let other = coded_column(&mut rng, 90, &CODED_VALUES);
        let mut reordered = CODED_VALUES;
        reordered.reverse();
        let different = coded_column(&mut rng, 70, &reordered);
        let same = [one.slice(0, 50), one.slice(50, 0), one.slice(50, 70)];
        let equal = [one.clone(), other.clone()];
        let mixed = [one.clone(), different];
        let with_plain = [one.clone(), plain_twin(&other)];
        for (what, pieces, keeps) in [
            ("same dictionary", &same[..], true),
            ("equal dictionaries", &equal[..], true),
            ("different dictionaries", &mixed[..], false),
            ("a plain piece", &with_plain[..], false),
        ] {
            let parts: Vec<&Column> = pieces.iter().collect();
            let plains: Vec<Column> = pieces.iter().map(plain_twin).collect();
            let plains: Vec<&Column> = plains.iter().collect();
            let n: usize = pieces.iter().map(Column::len).sum();
            for ascending in [false, true] {
                let idx = gather_ids(&mut rng, n, ascending);
                let got = Column::gather(&parts, &idx).unwrap();
                assert_eq!(is_coded(&got), keeps, "{what}");
                assert_twins(&got, &Column::gather(&plains, &idx).unwrap(), what);
            }
        }
    }
}

/// A frame of a coded column `s`, a second coded column `t` over the same
/// dictionary, and an integer column `k`, sliced at an offset that is no
/// multiple of 64; and its plain twin.
fn coded_frames(rng: &mut Xoshiro256) -> (DataFrame, DataFrame) {
    let n = rng.gen_range_i64(70, 300) as usize;
    let picks: Vec<u8> = (0..n)
        .map(|_| rng.next_bounded(CODED_VALUES.len() as u64) as u8)
        .collect();
    let base = Column::from_str_picks(&CODED_VALUES, &picks);
    let pick_rows = |rng: &mut Xoshiro256| -> Vec<u32> {
        (0..n as u32)
            .map(|_| match rng.gen_bool(0.2) {
                true => NO_ROW,
                false => rng.next_bounded(n as u64) as u32,
            })
            .collect()
    };
    let s = Column::gather(&[&base], &pick_rows(rng)).unwrap();
    let t = Column::gather(&[&base], &pick_rows(rng)).unwrap();
    let k = Column::from_i64((0..n).map(|_| rng.gen_range_i64(0, 5)).collect());
    let coded = DataFrame::new(vec![("s", s), ("t", t), ("k", k)]).unwrap();
    let off = rng.gen_range_i64(1, 64) as usize;
    let coded = coded.slice(off, n - off);
    let plain = DataFrame::new(vec![
        ("s", plain_twin(coded.column("s").unwrap())),
        ("t", plain_twin(coded.column("t").unwrap())),
        ("k", coded.column("k").unwrap().clone()),
    ])
    .unwrap();
    (coded, plain)
}

/// Every comparison and `isin` against literals (present, absent, `""`,
/// a long shared prefix), column against column, the LIKE family and the
/// string transforms give the plain column's results.
#[test]
fn coded_predicates_and_transforms_match_plain() {
    let literals = [
        "AIR",
        "ZZZ",
        "",
        "a-long-shared-prefix-",
        "a-long-shared-prefix-2",
        "é",
    ];
    let probe_sets: [&[&str]; 4] = [
        &["AIR", "REG AIR"],
        &["", "absent"],
        &["a-long-shared-prefix-1", "a-long-shared-prefix-3"],
        // more probes of one length than are compared word-wise
        &["AIR", "BBB", "CCC", "DDD", "EEE", "FFF"],
    ];
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(9200 + seed);
        let (coded, plain) = coded_frames(&mut rng);
        let mut exprs: Vec<Expr> = Vec::new();
        for op in CMP_OPS {
            for &k in &literals {
                exprs.push(binary(op, col("s"), lit(k)));
                exprs.push(binary(op, lit(k), col("s")));
            }
            exprs.push(binary(op, col("s"), col("t")));
        }
        for probes in probe_sets {
            exprs.push(col("s").is_in(probes.iter().copied()));
        }
        for p in ["A", "a-long-shared-prefix-", "", "é"] {
            exprs.push(col("s").starts_with(p));
            exprs.push(col("s").call(Func::EndsWith(p.to_string())));
            exprs.push(col("s").contains(p));
        }
        for f in [
            Func::Substr { start: 0, len: 2 },
            Func::Substr { start: 1, len: 20 },
            Func::Lower,
            Func::Upper,
            Func::Trim,
            Func::StrLen,
        ] {
            exprs.push(col("s").call(f));
        }
        for e in &exprs {
            let want = eval::eval(&plain, e).unwrap();
            let got = eval::eval(&coded, e).unwrap();
            assert_eq!(got, want, "{e:?}");
            assert_eq!(
                got.validity().is_some(),
                want.validity().is_some(),
                "{e:?}: validity bitmap"
            );
            assert_eq!(got.nbytes(), want.nbytes(), "{e:?}: nbytes");
        }
        // coded against plain, column against column
        let cross = DataFrame::new(vec![
            ("s", coded.column("s").unwrap().clone()),
            ("t", plain.column("t").unwrap().clone()),
        ])
        .unwrap();
        for op in CMP_OPS {
            let e = binary(op, col("s"), col("t"));
            assert_eq!(
                eval::eval(&cross, &e).unwrap(),
                eval::eval(&plain, &e).unwrap()
            );
        }
    }
}

/// Grouping by coded keys, `nunique` and min/max/first over coded
/// strings, sorting, hash partitioning, and a join of a coded key against
/// its plain twin give the plain frames' results.
#[test]
fn coded_keys_group_sort_and_join_like_plain() {
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(9300 + seed);
        let (coded, plain) = coded_frames(&mut rng);
        let specs = vec![
            AggSpec::new("k", AggFunc::Sum, "k_sum"),
            AggSpec::new("t", AggFunc::Nunique, "t_nunique"),
            AggSpec::new("t", AggFunc::Min, "t_min"),
            AggSpec::new("t", AggFunc::Max, "t_max"),
            AggSpec::new("t", AggFunc::First, "t_first"),
            AggSpec::new("t", AggFunc::Count, "t_count"),
        ];
        for keys in [&["s"][..], &["s", "t"][..], &["k"][..]] {
            let got = groupby::groupby_agg(&coded, keys, &specs).unwrap();
            let want = groupby::groupby_agg(&plain, keys, &specs).unwrap();
            assert_same(&got, &want);
            assert_eq!(got.nbytes(), want.nbytes(), "groupby {keys:?}");
        }
        for keys in [&[("s", true)][..], &[("t", false), ("s", true)][..]] {
            assert_eq!(
                sort::argsort(&coded, keys).unwrap(),
                sort::argsort(&plain, keys).unwrap(),
                "sort {keys:?}"
            );
        }
        let got = partition::hash_partition(&coded, &["s"], 3).unwrap();
        let want = partition::hash_partition(&plain, &["s"], 3).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_same(g, w);
        }
        for how in [JoinType::Inner, JoinType::Left] {
            let opts = JoinOptions {
                how,
                suffixes: ("_x".into(), "_y".into()),
            };
            let got = join::merge(&coded, &plain, &["s"], &["s"], &opts).unwrap();
            let want = join::merge(&plain, &plain, &["s"], &["s"], &opts).unwrap();
            assert_same(&got, &want);
            let got = join::merge(&plain, &coded, &["t"], &["s"], &opts).unwrap();
            let want = join::merge(&plain, &plain, &["t"], &["s"], &opts).unwrap();
            assert_same(&got, &want);
        }
    }
}

/// The chunk codec sizes and writes a coded column exactly as its plain
/// twin, under both encodings: a whole frame, an offset view, a filtered
/// one whose codes leave dictionary entries unused, and no rows.
#[test]
fn coded_strings_encode_like_plain() {
    use xorbits_storage::chunkfmt::{decode_chunk, EncodeWorkspace};
    use xorbits_storage::{ChunkValue, EncodingMode};
    let mut ws = EncodeWorkspace::new();
    for seed in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(9400 + seed);
        let (coded, plain) = coded_frames(&mut rng);
        let mask = xorbits::dataframe::Bitmap::from_iter(
            (0..coded.num_rows()).map(|i| i % 3 == 0 && rng.gen_bool(0.5)),
        );
        let cases = [
            (coded.clone(), plain.clone()),
            (coded.slice(5, 61), plain.slice(5, 61)),
            (coded.filter(&mask).unwrap(), plain.filter(&mask).unwrap()),
            (coded.slice(0, 0), plain.slice(0, 0)),
        ];
        for (c, p) in cases {
            for mode in [EncodingMode::Plain, EncodingMode::Auto] {
                let (cv, pv) = (ChunkValue::Df(c.clone()), ChunkValue::Df(p.clone()));
                assert_eq!(ws.measure(&cv, mode), ws.measure(&pv, mode), "{mode:?}");
                let bytes = ws.encode(&cv, mode).to_vec();
                assert_eq!(bytes, ws.encode(&pv, mode), "{mode:?}");
                match decode_chunk(bytes).unwrap() {
                    ChunkValue::Df(back) => assert_same(&back, &p),
                    ChunkValue::Arr(_) => unreachable!("a frame was encoded"),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// packed keys: a multi-column key as one word, and `nunique` by runs
// ---------------------------------------------------------------------------

/// The packing shapes of a key column: small negative ints, dates, ints
/// over a wide range (a packed word past the dense grouping table), `i64`
/// extremes (a range that overflows 64 bits: the hashed fallback) and
/// coded strings.
#[derive(Clone, Copy, Debug)]
enum KeyShape {
    Negative,
    Dates,
    Wide,
    Extreme,
    Coded,
}

const SHAPES: [KeyShape; 5] = [
    KeyShape::Negative,
    KeyShape::Dates,
    KeyShape::Wide,
    KeyShape::Extreme,
    KeyShape::Coded,
];

/// `n` key cells of `shape`, about a sixth null when `nulls`; a coded
/// key is a gather of `base`, so every such column shares its dictionary.
fn shaped_key(
    rng: &mut Xoshiro256,
    shape: KeyShape,
    n: usize,
    nulls: bool,
    base: &Column,
) -> Column {
    let null = |rng: &mut Xoshiro256| nulls && rng.gen_bool(0.15);
    match shape {
        KeyShape::Coded => {
            let ids: Vec<u32> = (0..n)
                .map(|_| match null(rng) {
                    true => NO_ROW,
                    false => rng.next_bounded(base.len() as u64) as u32,
                })
                .collect();
            Column::gather(&[base], &ids).unwrap()
        }
        KeyShape::Dates => Column::from_scalars(
            &(0..n)
                .map(|_| match null(rng) {
                    true => Scalar::Null,
                    false => Scalar::Date(rng.gen_range_i64(-30, 30) as i32 + 18_000),
                })
                .collect::<Vec<_>>(),
            DataType::Date,
        )
        .unwrap(),
        _ => Column::from_opt_i64(
            (0..n)
                .map(|_| {
                    (!null(rng)).then(|| match shape {
                        KeyShape::Negative => rng.gen_range_i64(-4, 3),
                        KeyShape::Wide => rng.gen_range_i64(-3, 3) * 3_000_000_007,
                        _ => pick(rng, &[i64::MIN, i64::MAX, -1, 0, i64::MIN + 1]),
                    })
                })
                .collect(),
        ),
    }
}

/// A coded column over `options` holding `c`'s values, nulls kept.
fn recode(c: &Column, options: &[&str]) -> Column {
    let s = c.as_utf8().unwrap();
    let picks: Vec<u8> = (0..s.len())
        .map(|i| {
            s.get(i)
                .map_or(0, |v| options.iter().position(|o| *o == v).unwrap() as u8)
        })
        .collect();
    let ids: Vec<u32> = (0..s.len() as u32)
        .map(|i| if s.is_valid(i as usize) { i } else { NO_ROW })
        .collect();
    Column::gather(&[&Column::from_str_picks(options, &picks)], &ids).unwrap()
}

/// Grouping by two or three keys of every packing shape — dense words,
/// wide words, overflowing ranges, null keys, coded strings — on whole
/// frames and offset views equals the per-row reference, `nunique` and
/// the other accumulators included.
#[test]
fn packed_group_keys_match_scalar_reference() {
    let picks: Vec<u8> = (0..CODED_VALUES.len() as u8).collect();
    let base = Column::from_str_picks(&CODED_VALUES, &picks);
    let specs = [
        AggSpec::new("v", AggFunc::Sum, "sum_v"),
        AggSpec::new("v", AggFunc::Nunique, "nu_v"),
        AggSpec::new("f", AggFunc::Nunique, "nu_f"),
        AggSpec::new("k1", AggFunc::Nunique, "nu_k1"),
        AggSpec::new("f", AggFunc::First, "fst_f"),
    ];
    for case in 0..120u64 {
        let mut rng = Xoshiro256::seed_from_u64(0x9ac0 + case);
        let n = rng.gen_range_i64(0, 200) as usize;
        let nkeys = 2 + (case % 2) as usize;
        let shapes: Vec<KeyShape> = (0..nkeys).map(|_| pick(&mut rng, &SHAPES)).collect();
        let nulls = case % 3 == 0;
        let mut cols: Vec<(String, Column)> = shapes
            .iter()
            .enumerate()
            .map(|(k, &s)| (format!("k{k}"), shaped_key(&mut rng, s, n, nulls, &base)))
            .collect();
        let floats = [0.0, -0.0, f64::NAN, 1.5, -2.25];
        cols.push((
            "v".into(),
            Column::from_opt_i64(
                (0..n)
                    .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range_i64(-50, 50)))
                    .collect(),
            ),
        ));
        cols.push((
            "f".into(),
            Column::from_opt_f64(
                (0..n)
                    .map(|_| rng.gen_bool(0.8).then(|| pick(&mut rng, &floats)))
                    .collect(),
            ),
        ));
        let df = DataFrame::new(cols).unwrap();
        let off = rng.gen_range_i64(0, n as i64 + 1) as usize;
        let keys: Vec<String> = (0..nkeys).map(|k| format!("k{k}")).collect();
        let keys: Vec<&str> = keys.iter().map(|k| k.as_str()).collect();
        for (what, frame) in [("whole", df.clone()), ("offset", df.slice(off, n - off))] {
            assert_frames_equal(
                &groupby::groupby_agg(&frame, &keys, &specs).unwrap(),
                &ref_groupby(&frame, &keys, &specs),
                &format!("case {case} {what} {shapes:?} nulls {nulls}"),
            );
        }
    }
}

/// Joins on two keys of every packing shape, for all four join types, over
/// multi-piece sides cut at offsets, equal the nested-loop reference: both
/// sides' keys packed over their joint ranges, overflowing ranges and null
/// keys on the hashed path, and coded keys whose dictionaries are shared,
/// equal (built apart, same values in the same order) or different.
#[test]
fn packed_join_keys_match_nested_loop_reference() {
    let picks: Vec<u8> = (0..CODED_VALUES.len() as u8).collect();
    let base = Column::from_str_picks(&CODED_VALUES, &picks);
    let mut reversed = CODED_VALUES;
    reversed.reverse();
    let hows = [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ];
    for case in 0..150u64 {
        let mut rng = Xoshiro256::seed_from_u64(0x701d + case);
        let shapes = [pick(&mut rng, &SHAPES), pick(&mut rng, &SHAPES)];
        let nulls = case % 4 == 0;
        // both sides are rows of one pool of key tuples, so keys match
        let pool_n = rng.gen_range_i64(1, 30) as usize;
        let pool: Vec<Column> = shapes
            .iter()
            .map(|&s| shaped_key(&mut rng, s, pool_n, nulls, &base))
            .collect();
        let side = |rng: &mut Xoshiro256, payload: &str| {
            let n = rng.gen_range_i64(0, 60) as usize;
            let ids: Vec<u32> = (0..n)
                .map(|_| rng.next_bounded(pool_n as u64) as u32)
                .collect();
            let mut cols: Vec<(String, Column)> = pool
                .iter()
                .enumerate()
                .map(|(k, c)| (format!("k{k}"), Column::gather(&[c], &ids).unwrap()))
                .collect();
            cols.push((payload.into(), payload_column(rng, n)));
            DataFrame::new(cols).unwrap()
        };
        let l = side(&mut rng, "lv");
        let mut r = side(&mut rng, "rv");
        let dicts = ["shared", "equal", "different"][case as usize % 3];
        for (k, &shape) in shapes.iter().enumerate() {
            let name = format!("k{k}");
            let c = r.column(&name).unwrap().clone();
            let recoded = match (shape, dicts) {
                (KeyShape::Coded, "equal") => recode(&c, &CODED_VALUES),
                (KeyShape::Coded, "different") => recode(&c, &reversed),
                _ => continue,
            };
            r = r.with_column(&name, recoded).unwrap();
        }
        let (lp, rp) = (cut(&mut rng, &l), cut(&mut rng, &r));
        let (lrefs, rrefs): (Vec<&DataFrame>, Vec<&DataFrame>) =
            (lp.iter().collect(), rp.iter().collect());
        for how in hows {
            let opts = JoinOptions {
                how,
                ..Default::default()
            };
            let on = ["k0", "k1"];
            let got = join::merge_pieces(&lrefs, &rrefs, &on, &on, &opts, None).unwrap();
            let what = format!("case {case} {how:?} {shapes:?} nulls {nulls} dicts {dicts}");
            assert_frames_equal(&got, &ref_merge(&l, &r, &on, &on, how, ("_x", "_y")), &what);
        }
    }
}

/// Optional int payload cells.
fn payload_column(rng: &mut Xoshiro256, n: usize) -> Column {
    Column::from_opt_i64(
        (0..n)
            .map(|i| rng.gen_bool(0.8).then_some(i as i64))
            .collect(),
    )
}

/// `nunique` past the bitset counts each group's run of keys: runs on
/// both sides of the short-run scan, one group far longer than any,
/// keys over the whole `i64` range, floats by bits (`NaN`, ±0.0), null
/// values skipped, groups scattered over the rows, a whole-frame
/// aggregate and no rows at all.
#[test]
fn nunique_runs_match_scalar_reference() {
    let mut rng = Xoshiro256::seed_from_u64(0x4e17);
    // group g has g % 40 + 1 rows, group 60 has 3,000
    let mut g: Vec<i64> = (0..60)
        .flat_map(|g| std::iter::repeat_n(g, g as usize % 40 + 1))
        .collect();
    g.extend(std::iter::repeat_n(60, 3000));
    for i in (1..g.len()).rev() {
        let j = rng.next_bounded(i as u64 + 1) as usize;
        g.swap(i, j);
    }
    let n = g.len();
    let values: Vec<i64> = (0..40).map(|_| rng.next_u64() as i64).collect();
    let floats = [0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, 1.0, 1e300];
    let df = DataFrame::new(vec![
        ("g", Column::from_i64(g)),
        (
            "v",
            Column::from_opt_i64(
                (0..n)
                    .map(|_| rng.gen_bool(0.9).then(|| pick(&mut rng, &values)))
                    .collect(),
            ),
        ),
        (
            "f",
            Column::from_opt_f64(
                (0..n)
                    .map(|_| rng.gen_bool(0.9).then(|| pick(&mut rng, &floats)))
                    .collect(),
            ),
        ),
    ])
    .unwrap();
    let specs = [
        AggSpec::new("v", AggFunc::Nunique, "nu_v"),
        AggSpec::new("f", AggFunc::Nunique, "nu_f"),
    ];
    for keys in [&["g"][..], &[][..]] {
        for (what, frame) in [
            ("whole", df.clone()),
            ("offset", df.slice(37, n - 37)),
            ("empty", df.head(0)),
        ] {
            let got = groupby::groupby_agg(&frame, keys, &specs).unwrap();
            if keys.is_empty() && frame.num_rows() == 0 {
                // a whole-frame aggregate of no rows is one row of zeros
                assert_eq!(got.num_rows(), 1, "{what}");
                assert_eq!(got.column("nu_v").unwrap().get(0), Scalar::Int(0));
                assert_eq!(got.column("nu_f").unwrap().get(0), Scalar::Int(0));
                continue;
            }
            assert_frames_equal(
                &got,
                &ref_groupby(&frame, keys, &specs),
                &format!("{keys:?} {what}"),
            );
        }
    }
}
