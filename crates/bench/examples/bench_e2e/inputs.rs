//! Set-up: everything a workload needs before its first timed op.
//!
//! Tables are generated once and served as *cached scans*: a
//! `DfSource::Generator` whose closure returns zero-copy slices of the
//! cached frame. The stock `TpchData` generator re-synthesises rows inside
//! every query (about half of query time), and `DfSource::Materialized`
//! makes every lineage-cache lookup hash the whole table; either would
//! bury the engine under the benchmark's own data handling.
//!
//! Table contents are a pure function of the scale factor (index-hash
//! generation). `--seed` drives what is submitted: op order within a
//! pass, where the warm texts' extra whitespace goes, and the order of
//! the serving streams.

use std::sync::Arc;
use xorbits_array::prng::Xoshiro256;
use xorbits_core::error::XbResult;
use xorbits_core::sql::Catalog;
use xorbits_core::tileable::DfSource;
use xorbits_dataframe::DataFrame;
use xorbits_workloads::tpch::gen::{
    gen_customer, gen_lineitem, gen_nation, gen_orders, gen_part, gen_partsupp, gen_region,
    gen_supplier,
};
use xorbits_workloads::tpch::{sql_text, tpch_catalog, TpchData, TpchScale};

/// One submitted query.
pub struct Op {
    /// Display name: `Q7`, `Q7/warm`, `Q7@-3m`.
    pub name: String,
    /// The text handed to the SQL frontend.
    pub text: String,
    /// Stock TPC-H number when `text` computes exactly that query's
    /// result (also checked against the hand-built program).
    pub stock: Option<u32>,
}

/// Inputs of one workload run.
pub struct Inputs {
    pub data: TpchData,
    /// The big tables, for the kernel and codec micro-sections.
    pub lineitem: Arc<DataFrame>,
    pub orders: Arc<DataFrame>,
    pub ops: Vec<Op>,
    /// Serving only: per tenant, indices into `ops`.
    pub streams: Vec<Vec<usize>>,
}

impl Inputs {
    pub fn catalog(&self) -> XbResult<Catalog> {
        tpch_catalog(&self.data)
    }
}

fn cached_scan(label: &str, df: DataFrame) -> (DfSource, Arc<DataFrame>) {
    let rows = df.num_rows();
    let bytes_per_row = (df.nbytes() / rows.max(1)).max(1);
    let df = Arc::new(df);
    let scan = Arc::clone(&df);
    let source = DfSource::Generator {
        rows,
        bytes_per_row,
        gen: Arc::new(move |start, len| Ok(scan.slice(start, len))),
        label: label.to_string(),
    };
    (source, df)
}

fn tables(sf: f64) -> XbResult<(TpchData, Arc<DataFrame>, Arc<DataFrame>)> {
    let scale = TpchScale::new(sf);
    let (lineitem, li) = cached_scan(
        "read_parquet(lineitem)",
        gen_lineitem(scale, 0, scale.lineitem())?,
    );
    let (orders, ord) = cached_scan(
        "read_parquet(orders)",
        gen_orders(scale, 0, scale.orders())?,
    );
    let scan = |label: &str, df: DataFrame| cached_scan(label, df).0;
    let data = TpchData {
        scale,
        lineitem,
        orders,
        customer: scan(
            "read_parquet(customer)",
            gen_customer(scale, 0, scale.customer())?,
        ),
        part: scan("read_parquet(part)", gen_part(scale, 0, scale.part())?),
        partsupp: scan(
            "read_parquet(partsupp)",
            gen_partsupp(scale, 0, scale.partsupp())?,
        ),
        supplier: scan(
            "read_parquet(supplier)",
            gen_supplier(scale, 0, scale.supplier())?,
        ),
        nation: DfSource::materialized(gen_nation()?),
        region: DfSource::materialized(gen_region()?),
    };
    Ok((data, li, ord))
}

fn stock_ops() -> Vec<Op> {
    (1..=22)
        .map(|q| Op {
            name: format!("Q{q}"),
            text: sql_text(q).expect("22 stock texts").to_string(),
            stock: Some(q),
        })
        .collect()
}

/// A whitespace variant of `text`: the first space outside a string
/// literal is doubled, every later one with probability 1/2. Same
/// normalized text, so the plan cache answers it at the text level.
fn whitespace_variant(text: &str, rng: &mut Xoshiro256) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    let mut in_str = false;
    let mut doubled = false;
    for ch in text.chars() {
        if ch == '\'' {
            in_str = !in_str;
        }
        out.push(ch);
        if ch == ' ' && !in_str && (rng.gen_bool(0.5) || !doubled) {
            out.push(' ');
            doubled = true;
        }
    }
    out
}

/// `YYYY-MM-DD` moved `months` back, the day clamped to the month's end.
fn shift_date(date: &str, months: i32) -> Option<String> {
    let mut it = date.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: i32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    let idx = y * 12 + (m - 1) - months;
    let (y, m) = (idx.div_euclid(12), idx.rem_euclid(12) + 1);
    let leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
    let last = match m {
        2 if leap => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        _ => 31,
    };
    Some(format!("{y:04}-{m:02}-{:02}", d.min(last)))
}

/// `text` with every `DATE '...'` literal moved `months` back: the same
/// query over a window of the same width, so selectivity is kept.
fn rebind_dates(text: &str, months: i32) -> String {
    const TAG: &str = "DATE '";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(TAG) {
        let lit_start = at + TAG.len();
        let Some(len) = rest[lit_start..].find('\'') else {
            break;
        };
        out.push_str(&rest[..lit_start]);
        let lit = &rest[lit_start..lit_start + len];
        out.push_str(&shift_date(lit, months).unwrap_or_else(|| lit.to_string()));
        rest = &rest[lit_start + len..];
    }
    out.push_str(rest);
    out
}

/// The stock texts that carry a date literal.
const SERVING_TEMPLATES: [u32; 12] = [1, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15, 20];
/// Date bindings per template (0..N months back).
const SERVING_BINDINGS: i32 = 8;
/// Stream positions over both tenants; p95 then has 10 values beyond it.
pub const SERVING_POSITIONS: usize = 200;
pub const SERVING_TENANTS: usize = 2;
const SERVING_ZIPF_S: f64 = 1.0;

/// The serving texts in popularity order: binding-major, so the twelve
/// most popular texts are the twelve templates at their stock dates.
fn serving_ops() -> Vec<Op> {
    (0..SERVING_BINDINGS)
        .flat_map(|k| {
            SERVING_TEMPLATES.iter().map(move |&q| {
                let stock = sql_text(q).expect("stock text");
                Op {
                    name: if k == 0 {
                        format!("Q{q}")
                    } else {
                        format!("Q{q}@-{k}m")
                    },
                    text: rebind_dates(stock, k),
                    stock: (k == 0).then_some(q),
                }
            })
        })
        .collect()
}

/// How often each of `n` texts appears among `positions` submissions:
/// Zipf(s) expectations rounded by largest remainder. The table is fixed
/// so that every seed submits the same multiset (same distinct texts,
/// same work) and only the order differs; a free Zipf draw moves the
/// number of distinct texts, and with it every metric, by several
/// percent from seed to seed.
fn zipf_counts(n: usize, s: f64, positions: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let expect: Vec<f64> = weights
        .iter()
        .map(|w| w / total * positions as f64)
        .collect();
    let mut counts: Vec<usize> = expect.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (expect[b] - expect[b].floor())
            .total_cmp(&(expect[a] - expect[a].floor()))
            .then(a.cmp(&b))
    });
    let short = positions - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

fn shuffle<T>(items: &mut [T], rng: &mut Xoshiro256) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
}

/// The op order of pass `pass`: a fresh seeded shuffle per pass, so an
/// op's best-of-N is taken over different predecessors.
pub fn pass_order(ops: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ops).collect();
    let mut rng = Xoshiro256::seed_from_u64(seed ^ (pass as u64 + 1).wrapping_mul(0x9e37_79b9));
    shuffle(&mut order, &mut rng);
    order
}

/// Builds the inputs of `workload` at scale `sf` from `seed`.
pub fn build(workload: &str, sf: f64, seed: u64) -> XbResult<Inputs> {
    let (data, lineitem, orders) = tables(sf)?;
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut streams = Vec::new();
    let ops = match workload {
        "session_aged" => {
            // ops 0..22 are the cold texts, 22..44 their warm variants
            let mut ops = stock_ops();
            let warm: Vec<Op> = ops
                .iter()
                .map(|op| Op {
                    name: format!("{}/warm", op.name),
                    text: whitespace_variant(&op.text, &mut rng),
                    stock: op.stock,
                })
                .collect();
            ops.extend(warm);
            ops
        }
        "serving" => {
            let ops = serving_ops();
            let mut positions: Vec<usize> =
                zipf_counts(ops.len(), SERVING_ZIPF_S, SERVING_POSITIONS)
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &c)| vec![i; c])
                    .collect();
            shuffle(&mut positions, &mut rng);
            streams = (0..SERVING_TENANTS)
                .map(|t| {
                    positions
                        .iter()
                        .skip(t)
                        .step_by(SERVING_TENANTS)
                        .copied()
                        .collect()
                })
                .collect();
            ops
        }
        _ => stock_ops(),
    };
    // building the catalog probes every source once; part of set-up
    tpch_catalog(&data)?;
    Ok(Inputs {
        data,
        lineitem,
        orders,
        ops,
        streams,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dates_shift_by_whole_months_and_clamp() {
        assert_eq!(shift_date("1995-03-15", 3).as_deref(), Some("1994-12-15"));
        assert_eq!(shift_date("1996-12-31", 1).as_deref(), Some("1996-11-30"));
        assert_eq!(shift_date("1996-03-31", 1).as_deref(), Some("1996-02-29"));
        assert_eq!(shift_date("1994-01-01", 0).as_deref(), Some("1994-01-01"));
        let q = "a >= DATE '1994-01-01' AND a < DATE '1995-01-01' AND s = 'x'";
        assert_eq!(
            rebind_dates(q, 2),
            "a >= DATE '1993-11-01' AND a < DATE '1994-11-01' AND s = 'x'"
        );
        for q in SERVING_TEMPLATES {
            let text = sql_text(q).unwrap();
            assert_eq!(rebind_dates(text, 0), text);
            assert_ne!(rebind_dates(text, 1), text, "Q{q} has a date literal");
        }
    }

    #[test]
    fn zipf_table_is_exact_and_skewed() {
        let c = zipf_counts(96, 0.8, 200);
        assert_eq!(c.iter().sum::<usize>(), 200);
        assert!(c[0] > c[10] && c[10] >= c[95]);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_order() {
        let a = build("serving", 1.0, 7).unwrap();
        let b = build("serving", 1.0, 7).unwrap();
        let c = build("serving", 1.0, 8).unwrap();
        assert_eq!(a.streams, b.streams);
        assert_ne!(a.streams, c.streams);
        let sorted = |i: &Inputs| {
            let mut v: Vec<usize> = i.streams.concat();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a), sorted(&c), "every seed submits one multiset");
        assert_eq!(pass_order(22, 7, 3), pass_order(22, 7, 3));
        assert_ne!(pass_order(22, 7, 3), pass_order(22, 7, 4));

        let aged = build("session_aged", 1.0, 7).unwrap();
        assert_eq!(aged.ops.len(), 44);
        let norm = |t: &str| xorbits_core::sql::normalize(t).unwrap();
        assert_eq!(norm(&aged.ops[0].text), norm(&aged.ops[22].text));
        assert_ne!(aged.ops[0].text, aged.ops[22].text);
    }
}
