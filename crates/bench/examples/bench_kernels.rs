//! Benchmarks the vectorized shuffle/join/groupby/sort kernels (PR 2)
//! against faithful reimplementations of the previous per-row `Scalar`
//! kernels, side by side in one process so the numbers are
//! machine-comparable. Emits `BENCH_kernels.json` for the driver.
//!
//! The "scalar" implementations below mirror the pre-vectorization code:
//! index-bucket hash partitioning with per-partition gathers, per-row
//! `Option`/`Scalar` column gathers, boxed per-(group × spec) accumulators
//! with `String`-cloning distinct sets, probe-side `rows_eq` with per-row
//! column-name resolution, and a `Scalar::total_cmp` sort comparator.
//!
//! Run: `cargo run --release -p xorbits-bench --example bench_kernels`
//! Env:
//!   `XORBITS_BENCH_ROWS`  row count (default 1e6; CI smoke uses 1e4)
//!   `XORBITS_BENCH_OUT`   output JSON path (default BENCH_kernels.json)
//!   `XORBITS_BENCH_CHECK` reference JSON; exit non-zero if any kernel is
//!                         >2x slower than its reference entry

use std::time::Instant;
use xorbits_bench::env_f64;
use xorbits_dataframe::column::{BoolArr, PrimArr};
use xorbits_dataframe::hash::{FxHashMap, FxHashSet};
use xorbits_dataframe::{
    groupby, join, partition, sort, AggFunc, AggSpec, Bitmap, Column, DataFrame, Scalar,
};

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

// ---------------------------------------------------------------------------
// legacy kernels (pre-PR per-row implementations, public-API reconstructions)
// ---------------------------------------------------------------------------

/// Per-bit bitmap gather — the old `Bitmap::take` (no word-level splicing).
fn legacy_bitmap_take(b: &Bitmap, indices: &[usize]) -> Bitmap {
    Bitmap::from_iter(indices.iter().map(|&i| b.get(i)))
}

/// The old `Column::take`: typed primitive gathers over per-bit validity
/// gathers, and per-row `Option<&str>` re-packing for strings.
fn legacy_take_col(c: &Column, indices: &[usize]) -> Column {
    match c {
        Column::Int64(a) => Column::Int64(PrimArr {
            values: indices.iter().map(|&i| a.values[i]).collect(),
            validity: a.validity.as_ref().map(|v| legacy_bitmap_take(v, indices)),
        }),
        Column::Float64(a) => Column::Float64(PrimArr {
            values: indices.iter().map(|&i| a.values[i]).collect(),
            validity: a.validity.as_ref().map(|v| legacy_bitmap_take(v, indices)),
        }),
        Column::Date(a) => Column::Date(PrimArr {
            values: indices.iter().map(|&i| a.values[i]).collect(),
            validity: a.validity.as_ref().map(|v| legacy_bitmap_take(v, indices)),
        }),
        Column::Utf8(a) => Column::from_opt_str(indices.iter().map(|&i| a.get(i))),
        Column::Bool(a) => Column::Bool(BoolArr {
            values: legacy_bitmap_take(&a.values, indices),
            validity: a.validity.as_ref().map(|v| legacy_bitmap_take(v, indices)),
        }),
    }
}

/// The old `hash_combine`/`hash_rows`: every type went through per-row
/// `Option` gets (no null-free slice walks, no offset-window string scan).
fn legacy_hash_rows(df: &DataFrame, keys: &[&str]) -> Vec<u64> {
    use xorbits_dataframe::hash::combine;
    const NULL_H: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut hashes = vec![0u64; df.num_rows()];
    for k in keys {
        match df.column(k).unwrap() {
            Column::Int64(a) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = combine(*h, a.get(i).map_or(NULL_H, |v| v as u64));
                }
            }
            Column::Date(a) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = combine(*h, a.get(i).map_or(NULL_H, |v| v as u64));
                }
            }
            Column::Float64(a) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = combine(*h, a.get(i).map_or(NULL_H, |v| v.to_bits()));
                }
            }
            Column::Bool(a) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = combine(*h, a.get(i).map_or(NULL_H, |v| v as u64));
                }
            }
            Column::Utf8(a) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    let vh = a.get(i).map_or(NULL_H, |s| {
                        use std::hash::Hasher;
                        let mut hasher = xorbits_dataframe::hash::FxHasher::default();
                        hasher.write(s.as_bytes());
                        hasher.finish()
                    });
                    *h = combine(*h, vh);
                }
            }
        }
    }
    hashes
}

fn legacy_take(df: &DataFrame, indices: &[usize]) -> DataFrame {
    let pairs: Vec<(&str, Column)> = df
        .schema()
        .names()
        .iter()
        .map(|n| (*n, legacy_take_col(df.column(n).unwrap(), indices)))
        .collect();
    DataFrame::new(pairs).unwrap()
}

/// Index-bucket partitioning: bucket row ids per partition, then gather
/// each partition separately (N extra passes over the index sets).
fn legacy_hash_partition(df: &DataFrame, keys: &[&str], n: usize) -> Vec<DataFrame> {
    let hashes = legacy_hash_rows(df, keys);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, h) in hashes.iter().enumerate() {
        buckets[(h % n as u64) as usize].push(i);
    }
    buckets.iter().map(|idx| legacy_take(df, idx)).collect()
}

/// A hashable key for distinct-value tracking (the old `ScalarKey`).
#[derive(Clone, PartialEq, Eq, Hash)]
enum ScalarKey {
    Null,
    Int(i64),
    Float(u64),
    Bool(bool),
    Str(String),
    Date(i32),
}

impl ScalarKey {
    fn from_scalar(s: &Scalar) -> ScalarKey {
        match s {
            Scalar::Null => ScalarKey::Null,
            Scalar::Int(v) => ScalarKey::Int(*v),
            Scalar::Float(v) => ScalarKey::Float(v.to_bits()),
            Scalar::Bool(v) => ScalarKey::Bool(*v),
            Scalar::Str(v) => ScalarKey::Str(v.clone()),
            Scalar::Date(v) => ScalarKey::Date(*v),
        }
    }
}

/// Boxed per-(group × spec) accumulator (the old `Acc`).
#[derive(Clone)]
enum Acc {
    SumI(i64),
    SumF(f64),
    MinMax(Option<Scalar>),
    Count(i64),
    Mean { sum: f64, count: i64 },
    Distinct(FxHashSet<ScalarKey>),
}

impl Acc {
    fn update(&mut self, func: AggFunc, col: &Column, row: usize) {
        if !col.is_valid(row) {
            return;
        }
        match self {
            Acc::SumI(s) => *s = s.wrapping_add(col.get(row).as_i64().unwrap_or(0)),
            Acc::SumF(s) => *s += col.get(row).as_f64().unwrap_or(0.0),
            Acc::MinMax(cur) => {
                let v = col.get(row);
                let replace = match cur {
                    None => true,
                    Some(c) => {
                        let ord = v.total_cmp(c);
                        if func == AggFunc::Min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if replace {
                    *cur = Some(v);
                }
            }
            Acc::Count(c) => *c += 1,
            Acc::Mean { sum, count } => {
                *sum += col.get(row).as_f64().unwrap_or(0.0);
                *count += 1;
            }
            Acc::Distinct(set) => {
                set.insert(ScalarKey::from_scalar(&col.get(row)));
            }
        }
    }

    fn finish(&self) -> Scalar {
        match self {
            Acc::SumI(s) => Scalar::Int(*s),
            Acc::SumF(s) => Scalar::Float(*s),
            Acc::MinMax(v) => v.clone().unwrap_or(Scalar::Null),
            Acc::Count(c) => Scalar::Int(*c),
            Acc::Mean { sum, count } => {
                if *count == 0 {
                    Scalar::Null
                } else {
                    Scalar::Float(sum / *count as f64)
                }
            }
            Acc::Distinct(set) => Scalar::Int(set.len() as i64),
        }
    }
}

/// Hash-grouped aggregation with boxed scalar accumulators — the old
/// `groupby_agg` (raw string keys hashed per row, `String`s cloned into
/// distinct sets, every update through `Column::get`).
fn legacy_groupby(df: &DataFrame, keys: &[&str], specs: &[AggSpec]) -> DataFrame {
    let hashes = legacy_hash_rows(df, keys);
    let key_cols: Vec<&Column> = keys.iter().map(|k| df.column(k).unwrap()).collect();
    let mut table: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    let mut repr_rows: Vec<usize> = Vec::new();
    let mut row_groups: Vec<(usize, usize)> = Vec::with_capacity(df.num_rows());
    'rows: for (i, &h) in hashes.iter().enumerate() {
        if key_cols.iter().any(|c| !c.is_valid(i)) {
            continue;
        }
        let bucket = table.entry(h).or_default();
        for &gid in bucket.iter() {
            if key_cols.iter().all(|c| c.eq_at(i, c, repr_rows[gid])) {
                row_groups.push((i, gid));
                continue 'rows;
            }
        }
        let gid = repr_rows.len();
        repr_rows.push(i);
        bucket.push(gid);
        row_groups.push((i, gid));
    }

    let in_cols: Vec<&Column> = specs
        .iter()
        .map(|s| df.column(&s.column).unwrap())
        .collect();
    let mut accs: Vec<Vec<Acc>> = specs
        .iter()
        .map(|s| {
            let proto = match s.func {
                AggFunc::Sum => {
                    if df.column(&s.column).unwrap().data_type()
                        == xorbits_dataframe::DataType::Int64
                    {
                        Acc::SumI(0)
                    } else {
                        Acc::SumF(0.0)
                    }
                }
                AggFunc::Min | AggFunc::Max => Acc::MinMax(None),
                AggFunc::Count => Acc::Count(0),
                AggFunc::Mean => Acc::Mean { sum: 0.0, count: 0 },
                AggFunc::First => Acc::MinMax(None),
                AggFunc::Nunique => Acc::Distinct(FxHashSet::default()),
            };
            vec![proto; repr_rows.len()]
        })
        .collect();
    for &(row, gid) in &row_groups {
        for (si, spec) in specs.iter().enumerate() {
            accs[si][gid].update(spec.func, in_cols[si], row);
        }
    }
    let mut pairs: Vec<(String, Column)> = Vec::new();
    for k in keys {
        pairs.push((
            k.to_string(),
            legacy_take_col(df.column(k).unwrap(), &repr_rows),
        ));
    }
    for (si, spec) in specs.iter().enumerate() {
        let dtype = match spec.func {
            AggFunc::Count | AggFunc::Nunique => xorbits_dataframe::DataType::Int64,
            AggFunc::Mean => xorbits_dataframe::DataType::Float64,
            _ => in_cols[si].data_type(),
        };
        let scalars: Vec<Scalar> = accs[si].iter().map(|a| a.finish()).collect();
        pairs.push((
            spec.output.clone(),
            Column::from_scalars(&scalars, dtype).unwrap(),
        ));
    }
    DataFrame::new(pairs).unwrap()
}

/// Inner hash join with per-row `rows_eq` name resolution on probe and
/// `Scalar` round-trip output gathers — the old `merge`.
fn legacy_merge(left: &DataFrame, right: &DataFrame, on: &[&str]) -> DataFrame {
    let rhashes = legacy_hash_rows(right, on);
    let mut table: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (j, h) in rhashes.iter().enumerate() {
        table.entry(*h).or_default().push(j);
    }
    let lhashes = legacy_hash_rows(left, on);
    let mut lidx: Vec<usize> = Vec::new();
    let mut ridx: Vec<usize> = Vec::new();
    for (i, h) in lhashes.iter().enumerate() {
        if let Some(bucket) = table.get(h) {
            for &j in bucket {
                // per-probe column-name resolution, as the old probe loop did
                if left.rows_eq(i, on, right, on, j).unwrap() {
                    lidx.push(i);
                    ridx.push(j);
                }
            }
        }
    }
    let mut pairs: Vec<(String, Column)> = Vec::new();
    for name in left.schema().names() {
        pairs.push((
            name.to_string(),
            legacy_take_col(left.column(name).unwrap(), &lidx),
        ));
    }
    for name in right.schema().names() {
        if on.contains(&name) {
            continue;
        }
        // Scalar round-trip gather (the old `take_optional` slow path)
        let src = right.column(name).unwrap();
        let scalars: Vec<Scalar> = ridx.iter().map(|&j| src.get(j)).collect();
        pairs.push((
            name.to_string(),
            Column::from_scalars(&scalars, src.data_type()).unwrap(),
        ));
    }
    DataFrame::new(pairs).unwrap()
}

/// Sort through the old boxed-`Scalar` comparator.
fn legacy_sort(df: &DataFrame, key: &str, asc: bool) -> DataFrame {
    let c = df.column(key).unwrap();
    let mut idx: Vec<usize> = (0..df.num_rows()).collect();
    idx.sort_by(|&a, &b| {
        let (va, vb) = (c.get(a), c.get(b));
        let ord = match (va.is_null(), vb.is_null()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => return std::cmp::Ordering::Greater,
            (false, true) => return std::cmp::Ordering::Less,
            (false, false) => va.total_cmp(&vb),
        };
        if asc {
            ord
        } else {
            ord.reverse()
        }
    });
    legacy_take(df, &idx)
}

/// Row-at-a-time null-mask construction — the old `dropna`.
fn legacy_dropna(df: &DataFrame) -> DataFrame {
    let keep: Vec<usize> = (0..df.num_rows())
        .filter(|&i| {
            df.schema()
                .names()
                .iter()
                .all(|n| df.column(n).unwrap().is_valid(i))
        })
        .collect();
    legacy_take(df, &keep)
}

// ---------------------------------------------------------------------------
// data
// ---------------------------------------------------------------------------

/// Same shape as PR 1's zero-copy bench frame, for cross-PR continuity.
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

/// Unsorted float sort input (multiplicative hash of the row id).
fn shuffled(n: usize) -> DataFrame {
    DataFrame::new(vec![(
        "v",
        Column::from_f64(
            (0..n as u64)
                .map(|i| (i.wrapping_mul(2654435761) % 1_000_003) as f64)
                .collect(),
        ),
    )])
    .unwrap()
}

/// Frame with ~20% nulls in two columns, for dropna.
fn nullable(n: usize) -> DataFrame {
    DataFrame::new(vec![
        (
            "a",
            Column::from_opt_i64(
                (0..n as i64)
                    .map(|i| if i % 5 == 0 { None } else { Some(i) })
                    .collect(),
            ),
        ),
        (
            "b",
            Column::from_opt_f64(
                (0..n)
                    .map(|i| if i % 7 == 0 { None } else { Some(i as f64) })
                    .collect(),
            ),
        ),
    ])
    .unwrap()
}

struct Row {
    name: &'static str,
    scalar_ms: Option<f64>,
    vectorized_ms: f64,
    /// Where the "before" number comes from (live legacy rerun vs a
    /// recorded PR 1 median).
    before_source: &'static str,
}

/// glibc reads its malloc tunables once at process start, so the pooled
/// allocator profile (don't return freed multi-MB kernel arenas to the
/// kernel between iterations, as jemalloc/tcmalloc-style production
/// allocators would) has to be applied by re-exec'ing once with the
/// tunables in the environment. Scalar and vectorized kernels both run
/// under the same profile, so the comparison stays fair either way; this
/// just removes first-touch page-fault noise from the absolute numbers.
/// Set `XORBITS_BENCH_NO_REEXEC=1` to benchmark under default malloc.
#[cfg(unix)]
fn reexec_with_pooled_malloc() {
    use std::os::unix::process::CommandExt;
    if std::env::var_os("XORBITS_BENCH_CHILD").is_some()
        || std::env::var_os("XORBITS_BENCH_NO_REEXEC").is_some()
    {
        return;
    }
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(_) => return,
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .env("XORBITS_BENCH_CHILD", "1")
        .env("MALLOC_MMAP_THRESHOLD_", "268435456")
        .env("MALLOC_TRIM_THRESHOLD_", "268435456")
        .exec();
    // exec only returns on failure; fall through and run untuned
    eprintln!("bench: re-exec failed ({err}); running with default malloc");
}

#[cfg(not(unix))]
fn reexec_with_pooled_malloc() {}

fn main() {
    reexec_with_pooled_malloc();
    xorbits_bench::trace_init_from_env();
    let rows = env_f64("XORBITS_BENCH_ROWS", 1e6) as usize;
    let out_path =
        std::env::var("XORBITS_BENCH_OUT").unwrap_or_else(|_| "BENCH_kernels.json".into());
    // fewer samples for the slow legacy kernels
    let (ls, vs) = (3, 5);
    let mut out: Vec<Row> = Vec::new();
    let mut push = |name: &'static str, scalar_ms: Option<f64>, vectorized_ms: f64, src| {
        if let Some(s) = scalar_ms {
            println!(
                "{name:<28} scalar {:>9.3} ms   vectorized {:>9.3} ms   {:>6.1}x",
                s * 1e3,
                vectorized_ms * 1e3,
                s / vectorized_ms.max(1e-12)
            );
        } else {
            println!("{name:<28} vectorized {:>9.3} ms", vectorized_ms * 1e3);
        }
        out.push(Row {
            name,
            scalar_ms,
            vectorized_ms,
            before_source: src,
        });
    };

    let df = frame(rows);

    // shuffle: single-pass scatter vs index buckets + per-partition gather
    let legacy = time_it(ls, || legacy_hash_partition(&df, &["k"], 16));
    let new = time_it(vs, || partition::hash_partition(&df, &["k"], 16).unwrap());
    push("hash_partition_16", Some(legacy), new, "legacy-in-run");

    // groupby, int key: typed accumulators vs boxed Scalar accs
    let specs = vec![
        AggSpec::new("v", AggFunc::Sum, "s"),
        AggSpec::new("v", AggFunc::Mean, "m"),
    ];
    let legacy = time_it(ls, || legacy_groupby(&df, &["k"], &specs));
    let new = time_it(vs, || groupby::groupby_agg(&df, &["k"], &specs).unwrap());
    push(
        "groupby_sum_mean_int_key",
        Some(legacy),
        new,
        "legacy-in-run",
    );

    // groupby, string key: dictionary-encoded keys + code-set nunique vs
    // per-row String hashing and String-cloning distinct sets
    let specs = vec![
        AggSpec::new("v", AggFunc::Count, "c"),
        AggSpec::new("s", AggFunc::Nunique, "nu"),
    ];
    let legacy = time_it(ls, || legacy_groupby(&df, &["s"], &specs));
    let new = time_it(vs, || groupby::groupby_agg(&df, &["s"], &specs).unwrap());
    push(
        "groupby_str_key_nunique",
        Some(legacy),
        new,
        "legacy-in-run",
    );

    // join: typed probe + typed gather vs rows_eq probe + Scalar gather
    let jl = DataFrame::new(vec![
        (
            "j",
            Column::from_i64(
                (0..rows as i64)
                    .map(|i| (i * 7) % (rows as i64 / 5).max(1))
                    .collect(),
            ),
        ),
        (
            "lv",
            Column::from_f64((0..rows).map(|i| i as f64).collect()),
        ),
    ])
    .unwrap();
    let nright = (rows / 10).max(1);
    let jr = DataFrame::new(vec![
        ("j", Column::from_i64((0..nright as i64).collect())),
        (
            "rv",
            Column::from_str((0..nright).map(|i| format!("r{}", i % 97))),
        ),
    ])
    .unwrap();
    let legacy = time_it(ls, || legacy_merge(&jl, &jr, &["j"]));
    let new = time_it(vs, || join::merge_on(&jl, &jr, &["j"]).unwrap());
    push("inner_join", Some(legacy), new, "legacy-in-run");

    // sort: typed comparator vs Scalar::total_cmp
    let sf = shuffled(rows);
    let legacy = time_it(ls, || legacy_sort(&sf, "v", true));
    let new = time_it(vs, || sort::sort_by(&sf, &[("v", true)]).unwrap());
    push("sort_f64", Some(legacy), new, "legacy-in-run");

    // dropna: word-wise bitmap AND vs per-row validity probing
    let nf = nullable(rows);
    let legacy = time_it(ls, || legacy_dropna(&nf));
    let new = time_it(vs, || nf.dropna(None).unwrap());
    push("dropna", Some(legacy), new, "legacy-in-run");

    // concat of 64 zero-copy parts: word-level validity splice vs the
    // per-row validity push the old concat used (values were already bulk)
    let parts = partition::split_even(&nf, 64);
    let refs: Vec<&DataFrame> = parts.iter().collect();
    let legacy = time_it(ls, || {
        let keep: Vec<DataFrame> = refs
            .iter()
            .map(|p| legacy_take(p, &(0..p.num_rows()).collect::<Vec<_>>()))
            .collect();
        keep
    });
    let new = time_it(vs, || DataFrame::concat(&refs).unwrap());
    push(
        "concat_64_parts_nullable",
        Some(legacy),
        new,
        "legacy-in-run",
    );

    std::mem::drop((df, jl, jr, sf, nf, parts));

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"rows\": {rows},\n"));
    json.push_str("  \"benches\": [\n");
    for (i, r) in out.iter().enumerate() {
        let scalar = r
            .scalar_ms
            .map(|s| format!("{:.6}", s * 1e3))
            .unwrap_or_else(|| "null".into());
        let speedup = r
            .scalar_ms
            .map(|s| format!("{:.1}", s / r.vectorized_ms.max(1e-12)))
            .unwrap_or_else(|| "null".into());
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"scalar_ms\": {}, \"vectorized_ms\": {:.6}, \"speedup\": {}, \"before_source\": \"{}\"}}{}\n",
            r.name,
            scalar,
            r.vectorized_ms * 1e3,
            speedup,
            r.before_source,
            if i + 1 < out.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).unwrap();
    print!("{json}");

    // regression gate for CI: any kernel >2x slower than its reference
    if let Ok(ref_path) = std::env::var("XORBITS_BENCH_CHECK") {
        let reference = std::fs::read_to_string(&ref_path)
            .unwrap_or_else(|e| panic!("cannot read {ref_path}: {e}"));
        let mut failures = Vec::new();
        for r in &out {
            if let Some(ref_ms) = extract_ms(&reference, r.name) {
                let now = r.vectorized_ms * 1e3;
                if now > 2.0 * ref_ms {
                    failures.push(format!(
                        "{}: {now:.3} ms vs reference {ref_ms:.3} ms (>{:.1}x)",
                        r.name,
                        now / ref_ms
                    ));
                } else {
                    println!(
                        "check {:<28} {now:>9.3} ms <= 2x ref {ref_ms:.3} ms",
                        r.name
                    );
                }
            }
        }
        if !failures.is_empty() {
            eprintln!("kernel regression vs {ref_path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
    xorbits_bench::trace_dump_from_env();
}

/// Pulls `"vectorized_ms": <num>` for the named bench out of a reference
/// JSON (flat string scan; the workspace has no JSON parser dependency).
fn extract_ms(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let obj = &json[json.find(&needle)?..];
    let obj = &obj[..obj.find('}')?];
    let key = "\"vectorized_ms\": ";
    let v = &obj[obj.find(key)? + key.len()..];
    let end = v
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(v.len());
    v[..end].parse().ok()
}
