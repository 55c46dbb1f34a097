//! Property-style tests of the dataframe kernel invariants.
//!
//! Each test sweeps many randomised cases driven by the in-tree seeded
//! PRNG (`xorbits::array::prng`), so the suite stays property-shaped while
//! the workspace builds and tests with zero external crates.

use xorbits::array::prng::Xoshiro256;
use xorbits::dataframe::{
    col, eval, groupby, join, lit, partition, sort, AggFunc, AggSpec, Bitmap, Column, DataFrame,
    Expr, JoinType, Scalar,
};

const CASES: u64 = 24;

fn small_frame(rng: &mut Xoshiro256) -> DataFrame {
    let n = rng.gen_range_i64(1, 200) as usize;
    let keys: Vec<i64> = (0..n).map(|_| rng.gen_range_i64(0, 20)).collect();
    let vals: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-1000.0, 1000.0)).collect();
    let opt: Vec<Option<i64>> = (0..n)
        .map(|_| rng.gen_bool(0.5).then(|| rng.gen_range_i64(0, 5)))
        .collect();
    DataFrame::new(vec![
        ("k", Column::from_i64(keys)),
        ("v", Column::from_f64(vals)),
        ("o", Column::from_opt_i64(opt)),
    ])
    .unwrap()
}

fn key_vec(rng: &mut Xoshiro256, max_len: usize) -> Vec<i64> {
    let n = rng.gen_range_i64(0, max_len as i64 + 1) as usize;
    (0..n).map(|_| rng.gen_range_i64(0, 10)).collect()
}

/// Sorting is a permutation (same multiset of rows) and ordered.
#[test]
fn sort_is_ordered_permutation() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0x5017 + case);
        let df = small_frame(&mut rng);
        let sorted = sort::sort_by(&df, &[("v", true)]).unwrap();
        assert_eq!(sorted.num_rows(), df.num_rows());
        let col = sorted.column("v").unwrap().as_f64().unwrap();
        for i in 1..col.len() {
            assert!(col.values[i - 1] <= col.values[i]);
        }
        // multiset equality via sorted values
        let mut a: Vec<f64> = df.column("v").unwrap().as_f64().unwrap().values.to_vec();
        a.sort_by(f64::total_cmp);
        assert_eq!(&a[..], &col.values[..]);
    }
}

/// top_k(n) equals sort().head(n) for every n.
#[test]
fn top_k_matches_full_sort() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0x70b0 + case);
        let df = small_frame(&mut rng);
        let n = rng.gen_range_i64(0, 50) as usize;
        let full = sort::sort_by(&df, &[("v", false)]).unwrap().head(n);
        let tk = sort::top_k(&df, &[("v", false)], n).unwrap();
        assert_eq!(full, tk);
    }
}

/// groupby sums partition the total sum.
#[test]
fn groupby_sum_partitions_total() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0x6b50 + case);
        let df = small_frame(&mut rng);
        let out =
            groupby::groupby_agg(&df, &["k"], &[AggSpec::new("v", AggFunc::Sum, "s")]).unwrap();
        let total: f64 = df
            .column("v")
            .unwrap()
            .as_f64()
            .unwrap()
            .values
            .iter()
            .sum();
        let grouped: f64 = out
            .column("s")
            .unwrap()
            .as_f64()
            .unwrap()
            .values
            .iter()
            .sum();
        assert!((total - grouped).abs() < 1e-6 * total.abs().max(1.0));
    }
}

/// The map/combine/finalize decomposition equals the single pass for any
/// chunking point.
#[test]
fn groupby_decomposition_equivalence() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xdec0 + case);
        let df = small_frame(&mut rng);
        let split = (rng.gen_range_i64(0, 200) as usize).min(df.num_rows());
        let specs = vec![
            AggSpec::new("v", AggFunc::Sum, "s"),
            AggSpec::new("v", AggFunc::Mean, "m"),
            AggSpec::new("v", AggFunc::Min, "lo"),
            AggSpec::new("v", AggFunc::Max, "hi"),
            AggSpec::new("o", AggFunc::Count, "c"),
        ];
        let direct = groupby::groupby_agg(&df, &["k"], &specs).unwrap();
        let p1 = groupby::groupby_map(&df.slice(0, split), &["k"], &specs).unwrap();
        let p2 =
            groupby::groupby_map(&df.slice(split, df.num_rows() - split), &["k"], &specs).unwrap();
        let both = DataFrame::concat(&[&p1, &p2]).unwrap();
        let combined = groupby::groupby_finalize(&both, &["k"], &specs).unwrap();
        let a = sort::sort_by(&direct, &[("k", true)]).unwrap();
        let b = sort::sort_by(&combined, &[("k", true)]).unwrap();
        assert_eq!(a.num_rows(), b.num_rows());
        for ci in 0..a.num_columns() {
            for ri in 0..a.num_rows() {
                let (x, y) = (a.column_at(ci).get(ri), b.column_at(ci).get(ri));
                match (x.as_f64(), y.as_f64()) {
                    (Some(x), Some(y)) => {
                        assert!((x - y).abs() < 1e-9 * x.abs().max(1.0))
                    }
                    _ => assert_eq!(x, y),
                }
            }
        }
    }
}

/// Hash partitioning is a disjoint cover and co-locates equal keys.
#[test]
fn hash_partition_disjoint_cover() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xa574 + case);
        let df = small_frame(&mut rng);
        let n = rng.gen_range_i64(1, 9) as usize;
        let parts = partition::hash_partition(&df, &["k"], n).unwrap();
        assert_eq!(parts.len(), n);
        let total: usize = parts.iter().map(|p| p.num_rows()).sum();
        assert_eq!(total, df.num_rows());
        // each key value appears in exactly one partition
        for key in 0i64..20 {
            let hits = parts
                .iter()
                .filter(|p| {
                    let c = p.column("k").unwrap();
                    (0..p.num_rows()).any(|i| c.get(i) == Scalar::Int(key))
                })
                .count();
            assert!(hits <= 1, "key {} in {} partitions", key, hits);
        }
    }
}

/// Inner join row count equals the nested-loop reference count.
#[test]
fn join_count_matches_nested_loop() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0x2017 + case);
        let l = key_vec(&mut rng, 60);
        let r = key_vec(&mut rng, 60);
        let left = DataFrame::new(vec![("k", Column::from_i64(l.clone()))]).unwrap();
        let right = DataFrame::new(vec![("k", Column::from_i64(r.clone()))]).unwrap();
        let joined =
            join::merge(&left, &right, &["k"], &["k"], &join::JoinOptions::default()).unwrap();
        let expected: usize = l.iter().map(|a| r.iter().filter(|b| *b == a).count()).sum();
        assert_eq!(joined.num_rows(), expected);
    }
}

/// Semi + anti joins partition the left side.
#[test]
fn semi_anti_partition_left() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0x5e31 + case);
        let l = key_vec(&mut rng, 60);
        let r = key_vec(&mut rng, 60);
        let left = DataFrame::new(vec![("k", Column::from_i64(l))]).unwrap();
        let right = DataFrame::new(vec![("k", Column::from_i64(r))]).unwrap();
        let opts = |how| join::JoinOptions {
            how,
            ..Default::default()
        };
        let semi = join::merge(&left, &right, &["k"], &["k"], &opts(JoinType::Semi)).unwrap();
        let anti = join::merge(&left, &right, &["k"], &["k"], &opts(JoinType::Anti)).unwrap();
        assert_eq!(semi.num_rows() + anti.num_rows(), left.num_rows());
    }
}

/// CSV round trip preserves the frame (modulo float formatting).
#[test]
fn csv_round_trip() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xc541 + case);
        let df = small_frame(&mut rng);
        let mut buf = Vec::new();
        xorbits::dataframe::csv::write_csv(&df, &mut buf).unwrap();
        let back = xorbits::dataframe::csv::read_csv(
            &buf[..],
            &xorbits::dataframe::csv::CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(back.num_rows(), df.num_rows());
        for i in 0..df.num_rows() {
            let a = df.column("k").unwrap().get(i);
            let b = back.column("k").unwrap().get(i);
            assert_eq!(a, b);
        }
    }
}

/// drop_duplicates yields unique keys covering all input keys.
#[test]
fn drop_duplicates_unique_cover() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0xd0d0 + case);
        let df = small_frame(&mut rng);
        let out = df.drop_duplicates(Some(&["k"])).unwrap();
        let keys: Vec<i64> = (0..out.num_rows())
            .map(|i| out.column("k").unwrap().get(i).as_i64().unwrap())
            .collect();
        let set: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len(), "duplicate keys survived");
        let input_keys: std::collections::HashSet<i64> = (0..df.num_rows())
            .map(|i| df.column("k").unwrap().get(i).as_i64().unwrap())
            .collect();
        assert_eq!(set.len(), input_keys.len());
    }
}

/// Int64 comparisons and `isin` are exact over the whole `i64` range.
/// Values on both sides of ±2^53, where `f64` stops telling neighbours
/// apart, and at `i64::MIN` / `MAX` order as integers: column against
/// literal, literal against column, and column against column.
#[test]
fn int64_compare_and_isin_are_exact_beyond_2_pow_53() {
    let p53 = 1i64 << 53;
    let edges = [
        i64::MIN,
        i64::MIN + 1,
        -p53 - 2,
        -p53 - 1,
        -p53,
        -p53 + 1,
        -1,
        0,
        1,
        p53 - 1,
        p53,
        p53 + 1,
        p53 + 2,
        i64::MAX - 1,
        i64::MAX,
    ];
    type Build = fn(Expr, Expr) -> Expr;
    type Holds = fn(&i64, &i64) -> bool;
    let ops: [(Build, Holds); 6] = [
        (Expr::eq, i64::eq),
        (Expr::ne, i64::ne),
        (Expr::lt, i64::lt),
        (Expr::le, i64::le),
        (Expr::gt, i64::gt),
        (Expr::ge, i64::ge),
    ];
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from_u64(0x2053 + case);
        let mut edge = || edges[rng.next_bounded(edges.len() as u64) as usize];
        let n = 1 + (edge().unsigned_abs() % 150) as usize;
        let a: Vec<i64> = (0..n).map(|_| edge()).collect();
        let b: Vec<i64> = (0..n).map(|_| edge()).collect();
        let k = edge();
        let probes: Vec<i64> = (0..(edge().unsigned_abs() % 12)).map(|_| edge()).collect();
        let df = DataFrame::new(vec![
            ("a", Column::from_i64(a.clone())),
            ("b", Column::from_i64(b.clone())),
        ])
        .unwrap();
        let check = |e: Expr, want: &dyn Fn(usize) -> bool| {
            let got = eval::eval_mask(&df, &e).unwrap();
            assert_eq!(got, Bitmap::from_iter((0..n).map(want)), "{e:?}");
        };
        for (build, holds) in ops {
            check(build(col("a"), lit(k)), &|i| holds(&a[i], &k));
            check(build(lit(k), col("a")), &|i| holds(&k, &a[i]));
            check(build(col("a"), col("b")), &|i| holds(&a[i], &b[i]));
        }
        check(col("a").is_in(probes.clone()), &|i| probes.contains(&a[i]));
    }
}
