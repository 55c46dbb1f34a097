//! Predicate pushdown and column pruning change where a filter runs and
//! which columns a join or filter builds, never what a program returns.
//! Seeded filter-over-join programs run through the builder API twice:
//! with the logical optimizer on (the default config, which pushes filters
//! below joins and prunes columns after sources, joins and filters) and
//! off (`column_pruning: false`). The results must be equal as row
//! multisets — a pushed filter or a pruned column changes chunk sizes and
//! so the tiling, and with it row order and float summation order. Cases
//! cover inner, left, semi and anti joins, suffix-colliding names, null
//! keys, conjuncts over one side, both sides or no column, and joins and
//! filters whose keys, payload and predicate columns nobody reads above.

use xorbits::array::prng::Xoshiro256;
use xorbits::core::config::XorbitsConfig;
use xorbits::core::local::LocalExecutor;
use xorbits::core::trace;
use xorbits::dataframe::{DataType, Expr};
use xorbits::prelude::*;

const CASES: u64 = 24;

fn pick<T: Clone>(rng: &mut Xoshiro256, from: &[T]) -> T {
    from[rng.next_bounded(from.len() as u64) as usize].clone()
}

/// `(k, <int>, v, <str>)` with null keys and strings: the two sides of
/// every join share `k` (the join key) and `v` (a suffix collision).
fn side(rng: &mut Xoshiro256, int: &str, text: &str) -> DataFrame {
    let n = rng.gen_range_i64(0, 160) as usize;
    let words = ["AIR", "REG AIR", "", "DELIVER IN PERSON", "é"];
    let mut cells: [Vec<Scalar>; 4] = Default::default();
    for _ in 0..n {
        let k = rng.gen_range_i64(0, 8);
        let null_key = rng.gen_bool(0.1);
        cells[0].push(if null_key {
            Scalar::Null
        } else {
            Scalar::Int(k)
        });
        cells[1].push(Scalar::Int(rng.gen_range_i64(-5, 5)));
        cells[2].push(Scalar::Float(rng.gen_range_f64(-10.0, 10.0)));
        let w = pick(rng, &words).to_string();
        let null_text = rng.gen_bool(0.1);
        cells[3].push(if null_text {
            Scalar::Null
        } else {
            Scalar::Str(w)
        });
    }
    let types = [
        DataType::Int64,
        DataType::Int64,
        DataType::Float64,
        DataType::Utf8,
    ];
    let names = ["k", int, "v", text];
    let columns = names.iter().zip(&cells).zip(types);
    DataFrame::new(
        columns
            .map(|((&name, cells), t)| (name, Column::from_scalars(cells, t).unwrap()))
            .collect(),
    )
    .unwrap()
}

/// Conjuncts by what they read, in terms of `left(k, a, v, s) ⋈
/// right(k, b, v, t)`'s output: the left side (the key `k` included), the
/// right side, both, a suffixed name, or nothing.
fn conjunct(rng: &mut Xoshiro256, semi: bool) -> Expr {
    let x = rng.gen_range_i64(-5, 5);
    let f = rng.gen_range_f64(-10.0, 10.0);
    let left = [
        col("a").gt(lit(x)),
        col("k").le(lit(rng.gen_range_i64(0, 8))),
        col("s").eq(lit("AIR")),
        col("s").is_in(["AIR", "REG AIR", ""]),
        col("k").is_null().not(),
    ];
    let none = [lit(true), lit(1i64).lt(lit(2i64)), lit(x).gt(lit(0i64))];
    if semi {
        // a semi or anti join outputs the left columns, unsuffixed
        return match rng.next_bounded(3) {
            0 => pick(rng, &none),
            1 => col("v").lt(lit(f)),
            _ => pick(rng, &left),
        };
    }
    let right = [
        col("b").ge(lit(x)),
        col("t").ne(lit("REG AIR")),
        col("b").is_null(),
    ];
    let other = [
        col("a").lt(col("b")),
        col("v_x").lt(col("v_y")),
        col("v_x").gt(lit(f)),
        col("v_y").le(lit(f)),
        col("s").eq(col("t")),
    ];
    match rng.next_bounded(8) {
        0 | 1 => pick(rng, &left),
        2 | 3 => pick(rng, &right),
        4 | 5 => pick(rng, &other),
        6 => pick(rng, &none),
        _ => pick(rng, &left).or(pick(rng, &right)),
    }
}

fn predicate(rng: &mut Xoshiro256, semi: bool) -> Expr {
    let n = rng.gen_range_i64(1, 6);
    (0..n)
        .map(|_| conjunct(rng, semi))
        .reduce(Expr::and)
        .unwrap()
}

fn strs(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

/// One seeded program on `sess`: a filter over a join of `how`, in one of
/// three shapes — alone, under a group-by, or under a second join and
/// filter.
fn program(sess: &Session<LocalExecutor>, case: u64, how: JoinType) -> XbResult<DataFrame> {
    let mut rng = Xoshiro256::seed_from_u64(0x9d5 + case);
    let semi = matches!(how, JoinType::Semi | JoinType::Anti);
    let l = sess.from_df(side(&mut rng, "a", "s"))?;
    let r = sess.from_df(side(&mut rng, "b", "t"))?;
    let joined = l.merge(&r, strs(&["k"]), strs(&["k"]), how)?;
    let filtered = joined.filter(predicate(&mut rng, semi))?;
    match case % 3 {
        0 => filtered.fetch(),
        1 => {
            let v = if semi { "v" } else { "v_x" };
            let sums = vec![
                AggSpec::new("a", AggFunc::Sum, "sa"),
                AggSpec::new(v, AggFunc::Sum, "sv"),
            ];
            filtered.groupby_agg(strs(&["k"]), sums)?.fetch()
        }
        _ => {
            // a third side `(k, c, w, u)`, and a filter over all three
            let third = side(&mut rng, "c", "u").rename(&[("v", "w")])?;
            let chain = filtered.merge(&sess.from_df(third)?, strs(&["k"]), strs(&["k"]), how)?;
            let top = if semi {
                // a semi or anti join outputs its left side alone
                predicate(&mut rng, true)
            } else {
                let c = col("c").gt(lit(rng.gen_range_i64(-5, 5)));
                predicate(&mut rng, false).and(c).and(col("u").ne(lit("é")))
            };
            chain.filter(top)?.fetch()
        }
    }
}

/// One seeded program whose joins and filters carry columns no consumer
/// reads: a filter over a join, joined to a third side and filtered
/// again, under a group-by or a projection that reads a few columns.
fn narrow_program(sess: &Session<LocalExecutor>, case: u64, how: JoinType) -> XbResult<DataFrame> {
    let mut rng = Xoshiro256::seed_from_u64(0x7a1 + case);
    let semi = matches!(how, JoinType::Semi | JoinType::Anti);
    let l = sess.from_df(side(&mut rng, "a", "s"))?;
    let r = sess.from_df(side(&mut rng, "b", "t"))?;
    let third = sess.from_df(side(&mut rng, "c", "u").rename(&[("v", "w")])?)?;
    let joined = l
        .merge(&r, strs(&["k"]), strs(&["k"]), how)?
        .filter(predicate(&mut rng, semi))?;
    let top = joined
        .merge(&third, strs(&["k"]), strs(&["k"]), how)?
        .filter(predicate(&mut rng, semi))?;
    // a semi or anti join outputs its left side alone
    let reads: &[&[&str]] = if semi {
        &[&["a"], &["s", "v"], &["k", "a"]]
    } else {
        &[&["a", "b"], &["v_y", "u"], &["s", "c", "t"], &["k", "w"]]
    };
    let read = pick(&mut rng, reads);
    match case % 2 {
        0 => {
            let counts = read
                .iter()
                .map(|c| AggSpec::new(*c, AggFunc::Count, format!("n_{c}")));
            top.groupby_agg(strs(&["k"]), counts.collect())?.fetch()
        }
        _ => top.select(strs(read))?.fetch(),
    }
}

/// A session of tiny chunks, so joins shuffle or broadcast many pieces.
fn session(column_pruning: bool, chunk_bytes: usize) -> Session<LocalExecutor> {
    let cfg = XorbitsConfig {
        chunk_limit_bytes: chunk_bytes,
        column_pruning,
        ..Default::default()
    };
    Session::new(cfg, LocalExecutor::new())
}

/// A frame's rows in a canonical order: by every cell, floats to 9
/// significant digits so summation order cannot reorder them.
fn sorted_rows(df: &DataFrame) -> Vec<Vec<Scalar>> {
    let mut rows: Vec<(String, Vec<Scalar>)> = (0..df.num_rows())
        .map(|r| {
            let row: Vec<Scalar> = df.columns().iter().map(|c| c.get(r)).collect();
            let key = row
                .iter()
                .map(|v| match v {
                    Scalar::Float(f) => format!("{f:.8e}"),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|");
            (key, row)
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows.into_iter().map(|(_, row)| row).collect()
}

/// Equal as row multisets, floats to a relative 1e-9.
fn same_rows(got: &DataFrame, want: &DataFrame, what: &str) {
    assert_eq!(got.schema().names(), want.schema().names(), "{what}");
    let (got, want) = (sorted_rows(got), sorted_rows(want));
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (r, (g, w)) in got.iter().zip(&want).enumerate() {
        for (x, y) in g.iter().zip(w) {
            match (x, y) {
                (Scalar::Float(x), Scalar::Float(y)) => assert!(
                    (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                    "{what}: row {r}: {x} vs {y}"
                ),
                _ => assert_eq!(x, y, "{what}: row {r}"),
            }
        }
    }
}

#[test]
fn pushdown_on_and_off_return_the_same_rows() {
    let mut pushed = 0;
    for how in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        for case in 0..CASES {
            let chunk_bytes = 256 << (case % 4);
            trace::enable_default();
            let on = program(&session(true, chunk_bytes), case, how);
            let log = trace::disable().expect("tracing was enabled");
            let off = program(&session(false, chunk_bytes), case, how);
            let what = format!("{how:?} case {case}");
            match (on, off) {
                (Ok(on), Ok(off)) => same_rows(&on, &off, &what),
                (on, off) => panic!("{what}: on {:?} vs off {:?}", on.err(), off.err()),
            }
            let counters = &log.metrics.counters;
            pushed += counters
                .get("optimize.filters_pushed")
                .copied()
                .unwrap_or(0);
        }
    }
    // the cases do exercise the rewrite
    assert!(pushed > 0);
}

#[test]
fn pruning_on_and_off_return_the_same_rows() {
    let mut pruned = 0;
    for how in [
        JoinType::Inner,
        JoinType::Left,
        JoinType::Semi,
        JoinType::Anti,
    ] {
        for case in 0..CASES {
            let chunk_bytes = 256 << (case % 4);
            trace::enable_default();
            let on = narrow_program(&session(true, chunk_bytes), case, how);
            let log = trace::disable().expect("tracing was enabled");
            let off = narrow_program(&session(false, chunk_bytes), case, how);
            let what = format!("{how:?} case {case}");
            match (on, off) {
                (Ok(on), Ok(off)) => same_rows(&on, &off, &what),
                (on, off) => panic!("{what}: on {:?} vs off {:?}", on.err(), off.err()),
            }
            let counters = &log.metrics.counters;
            pruned += counters
                .get("optimize.columns_pruned")
                .copied()
                .unwrap_or(0);
        }
    }
    // joins and filters do drop columns nobody reads
    assert!(pruned > 0);
}

/// An `Assign` evaluates every expression, read above or not: assigning
/// `x = c * 2` and keeping only `a` must not prune `c` away from under it.
#[test]
fn an_unread_assigned_column_still_finds_its_inputs() {
    let df = DataFrame::new(vec![
        ("a", Column::from_i64(vec![1, 2, 3])),
        ("b", Column::from_i64(vec![4, 5, 6])),
        ("c", Column::from_i64(vec![7, 8, 9])),
    ])
    .unwrap();
    let run = |column_pruning| {
        session(column_pruning, 1 << 20)
            .from_df(df.clone())?
            .assign(vec![("x".into(), col("c").mul(lit(2i64)))])?
            .select(strs(&["a"]))?
            .fetch()
    };
    let (on, off) = (run(true), run(false));
    assert_eq!(on.unwrap(), off.unwrap());
}
