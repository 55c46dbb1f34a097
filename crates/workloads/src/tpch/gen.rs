//! Synthetic TPC-H data generator.
//!
//! Generates the eight TPC-H tables at a configurable scale factor with the
//! schema, key relationships, value distributions and filter selectivities
//! the 22 queries depend on. Rows are produced *deterministically from the
//! row index* (hash-based, not sequential RNG), so any row range can be
//! generated independently — exactly what a chunked `read_parquet` needs.
//!
//! Scaling substitution (DESIGN.md §1): real SF1 is 6M lineitem rows; this
//! generator uses `LINEITEM_PER_SF` rows per SF unit so that "SF1000" fits
//! a single host, and the benchmark harness scales worker memory budgets by
//! the same ratio, preserving the paper's OOM behaviour.

use std::sync::Arc;
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::tileable::DfSource;
use xorbits_dataframe::{dates, Column, DataFrame, DfResult};

/// Lineitem rows per scale-factor unit (real TPC-H: 6,000,000).
pub const LINEITEM_PER_SF: usize = 3000;

/// Deterministic 64-bit mix of `(table, row, field)`.
fn mix(table: u64, row: u64, field: u64) -> u64 {
    let mut z = table
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(row.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(field.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform(table: u64, row: u64, field: u64, lo: i64, hi: i64) -> i64 {
    debug_assert!(hi >= lo);
    lo + (mix(table, row, field) % (hi - lo + 1) as u64) as i64
}

fn uniform_f(table: u64, row: u64, field: u64, lo: f64, hi: f64) -> f64 {
    let u = mix(table, row, field) as f64 / u64::MAX as f64;
    lo + u * (hi - lo)
}

/// Index of one of `n` (at most 256) options, as a string column's pick.
fn pick(table: u64, row: u64, field: u64, n: usize) -> u8 {
    (mix(table, row, field) % n as u64) as u8
}

/// Appends `value` in decimal, zero-padded to `width` digits — what
/// `format!("{value:0width$}")` makes, without a string of its own.
fn push_padded(text: &mut String, value: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let (mut at, mut rest) = (digits.len(), value);
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let at = at.min(digits.len() - width.min(digits.len()));
    text.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("ROMANIA", 3),
    ("RUSSIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
    ("CHINA", 2),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SHIPMODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const TYPE_1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINER_1: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];
const CONTAINER_2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const PART_WORDS: [&str; 8] = [
    "green", "blush", "powder", "forest", "salmon", "navy", "almond", "misty",
];

/// Table row counts at a scale factor.
#[derive(Debug, Clone, Copy)]
pub struct TpchScale {
    /// Scale factor (the paper uses 10/100/1000).
    pub sf: f64,
}

impl TpchScale {
    /// Creates a scale descriptor.
    pub fn new(sf: f64) -> TpchScale {
        TpchScale { sf }
    }

    /// Lineitem rows (largest table).
    pub fn lineitem(&self) -> usize {
        ((LINEITEM_PER_SF as f64) * self.sf).max(16.0) as usize
    }

    /// Orders rows (≈ lineitem / 4; each order has exactly 4 lines here).
    pub fn orders(&self) -> usize {
        self.lineitem() / 4
    }

    /// Customer rows (TPC-H ratio: orders/10).
    pub fn customer(&self) -> usize {
        (self.orders() / 10).max(8)
    }

    /// Part rows.
    pub fn part(&self) -> usize {
        (self.lineitem() / 15).max(16)
    }

    /// Partsupp rows (4 suppliers per part).
    pub fn partsupp(&self) -> usize {
        self.part() * 4
    }

    /// Supplier rows.
    pub fn supplier(&self) -> usize {
        (self.part() / 10).max(8)
    }
}

const T_LINEITEM: u64 = 1;
const T_ORDERS: u64 = 2;
const T_CUSTOMER: u64 = 3;
const T_PART: u64 = 4;
const T_PARTSUPP: u64 = 5;
const T_SUPPLIER: u64 = 6;

/// Row ids `start..start + len` as the `row` argument of [`mix`]. String
/// columns are generated from these (and from finished value columns)
/// straight into the column's bytes: a column of a few fixed values from
/// one pick per row ([`Column::from_str_picks`]), any other from a writer
/// that appends each row's text to the column's one buffer
/// ([`Column::from_str_writer`]). A staging `String` per row would be
/// allocated and freed on every build, and those frees moved how much of
/// the freed tables glibc handed back to the kernel.
fn rows(start: usize, len: usize) -> impl Iterator<Item = u64> {
    (start..start + len).map(|i| i as u64)
}

/// One pick per row of `start..start + len`.
fn picks(start: usize, len: usize, pick: impl Fn(u64) -> u8) -> Vec<u8> {
    rows(start, len).map(pick).collect()
}

/// A column of `options[picks[i]]`, the options built as `String`s.
fn from_picks(options: &[String], picks: &[u8]) -> Column {
    let options: Vec<&str> = options.iter().map(String::as_str).collect();
    Column::from_str_picks(&options, picks)
}

/// Every space-joined choice of one word from each list, the last list's
/// word varying fastest: option `(i * n1 + j) * n2 + k` of three lists.
fn joined(lists: &[&[&str]]) -> Vec<String> {
    lists.iter().fold(vec![String::new()], |heads, words| {
        let sep = |h: &String| if h.is_empty() { "" } else { " " };
        heads
            .iter()
            .flat_map(|h| words.iter().map(move |w| format!("{h}{}{w}", sep(h))))
            .collect()
    })
}

/// `j`-th of the four suppliers of `partkey` (TPC-H formula analogue).
fn supp_of_part(partkey: i64, j: i64, nsupp: i64) -> i64 {
    1 + ((partkey + j * (nsupp / 4 + 1)) % nsupp)
}

fn order_date(row: u64) -> i32 {
    // uniform over 1992-01-01 .. 1998-08-02
    let lo = dates::to_days(1992, 1, 1);
    let hi = dates::to_days(1998, 8, 2);
    lo + uniform(T_ORDERS, row, 1, 0, (hi - lo) as i64) as i32
}

/// Generates `lineitem[start..start+len)`.
pub fn gen_lineitem(scale: TpchScale, start: usize, len: usize) -> DfResult<DataFrame> {
    let nparts = scale.part() as i64;
    let nsupp = scale.supplier() as i64;
    let cutoff = dates::to_days(1995, 6, 17);
    let mut orderkey = Vec::with_capacity(len);
    let mut partkey = Vec::with_capacity(len);
    let mut suppkey = Vec::with_capacity(len);
    let mut linenumber = Vec::with_capacity(len);
    let mut quantity = Vec::with_capacity(len);
    let mut extendedprice = Vec::with_capacity(len);
    let mut discount = Vec::with_capacity(len);
    let mut tax = Vec::with_capacity(len);
    let mut shipdate = Vec::with_capacity(len);
    let mut commitdate = Vec::with_capacity(len);
    let mut receiptdate = Vec::with_capacity(len);
    for i in start..start + len {
        let r = i as u64;
        let okey = (i / 4 + 1) as i64;
        let pkey = uniform(T_LINEITEM, r, 2, 1, nparts);
        let qty = uniform(T_LINEITEM, r, 4, 1, 50) as f64;
        let price_per_unit = 900.0 + (pkey % 1000) as f64;
        let odate = order_date((okey - 1) as u64);
        let sdate = odate + uniform(T_LINEITEM, r, 8, 1, 121) as i32;
        let cdate = odate + uniform(T_LINEITEM, r, 9, 30, 90) as i32;
        let rdate = sdate + uniform(T_LINEITEM, r, 10, 1, 30) as i32;
        orderkey.push(okey);
        partkey.push(pkey);
        suppkey.push(supp_of_part(pkey, uniform(T_LINEITEM, r, 3, 0, 3), nsupp));
        linenumber.push((i % 4 + 1) as i64);
        quantity.push(qty);
        extendedprice.push(qty * price_per_unit);
        discount.push((uniform(T_LINEITEM, r, 6, 0, 10) as f64) / 100.0);
        tax.push((uniform(T_LINEITEM, r, 7, 0, 8) as f64) / 100.0);
        shipdate.push(sdate);
        commitdate.push(cdate);
        receiptdate.push(rdate);
    }
    let returnflag = picks(start, len, |r| {
        if receiptdate[(r as usize) - start] > cutoff {
            0
        } else if mix(T_LINEITEM, r, 11).is_multiple_of(2) {
            1
        } else {
            2
        }
    });
    let returnflag = Column::from_str_picks(&["N", "R", "A"], &returnflag);
    let linestatus: Vec<u8> = shipdate.iter().map(|&d| (d <= cutoff) as u8).collect();
    let linestatus = Column::from_str_picks(&["O", "F"], &linestatus);
    let shipinstruct = picks(start, len, |r| pick(T_LINEITEM, r, 12, INSTRUCTIONS.len()));
    let shipinstruct = Column::from_str_picks(&INSTRUCTIONS, &shipinstruct);
    let shipmode = picks(start, len, |r| pick(T_LINEITEM, r, 13, SHIPMODES.len()));
    let shipmode = Column::from_str_picks(&SHIPMODES, &shipmode);
    DataFrame::new(vec![
        ("l_orderkey", Column::from_i64(orderkey)),
        ("l_partkey", Column::from_i64(partkey)),
        ("l_suppkey", Column::from_i64(suppkey)),
        ("l_linenumber", Column::from_i64(linenumber)),
        ("l_quantity", Column::from_f64(quantity)),
        ("l_extendedprice", Column::from_f64(extendedprice)),
        ("l_discount", Column::from_f64(discount)),
        ("l_tax", Column::from_f64(tax)),
        ("l_returnflag", returnflag),
        ("l_linestatus", linestatus),
        ("l_shipdate", Column::from_date(shipdate)),
        ("l_commitdate", Column::from_date(commitdate)),
        ("l_receiptdate", Column::from_date(receiptdate)),
        ("l_shipinstruct", shipinstruct),
        ("l_shipmode", shipmode),
    ])
}

/// Generates `orders[start..start+len)`.
pub fn gen_orders(scale: TpchScale, start: usize, len: usize) -> DfResult<DataFrame> {
    let ncust = scale.customer() as i64;
    let mut orderkey = Vec::with_capacity(len);
    let mut custkey = Vec::with_capacity(len);
    let mut totalprice = Vec::with_capacity(len);
    let mut orderdate = Vec::with_capacity(len);
    let mut shippriority = Vec::with_capacity(len);
    for i in start..start + len {
        let r = i as u64;
        orderkey.push((i + 1) as i64);
        // TPC-H: only two thirds of customers have orders
        let c = uniform(T_ORDERS, r, 2, 1, ncust);
        custkey.push(if c % 3 == 0 { (c % ncust) + 1 } else { c });
        orderdate.push(order_date(r));
        totalprice.push(uniform_f(T_ORDERS, r, 4, 1000.0, 400_000.0));
        shippriority.push(0i64);
    }
    let cutoff = dates::to_days(1995, 6, 17);
    let orderstatus = picks(start, len, |r| {
        if orderdate[(r as usize) - start] > cutoff {
            0
        } else if mix(T_ORDERS, r, 3).is_multiple_of(20) {
            1
        } else {
            2
        }
    });
    let orderstatus = Column::from_str_picks(&["O", "P", "F"], &orderstatus);
    let orderpriority = picks(start, len, |r| pick(T_ORDERS, r, 5, PRIORITIES.len()));
    let orderpriority = Column::from_str_picks(&PRIORITIES, &orderpriority);
    let comment = picks(start, len, |r| (mix(T_ORDERS, r, 6) % 100).min(2) as u8);
    let comment = Column::from_str_picks(
        &[
            "special packages requests",
            "pending special deposits requests",
            "carefully final deposits",
        ],
        &comment,
    );
    DataFrame::new(vec![
        ("o_orderkey", Column::from_i64(orderkey)),
        ("o_custkey", Column::from_i64(custkey)),
        ("o_orderstatus", orderstatus),
        ("o_totalprice", Column::from_f64(totalprice)),
        ("o_orderdate", Column::from_date(orderdate)),
        ("o_orderpriority", orderpriority),
        ("o_shippriority", Column::from_i64(shippriority)),
        ("o_comment", comment),
    ])
}

/// Generates `customer[start..start+len)`.
pub fn gen_customer(scale: TpchScale, start: usize, len: usize) -> DfResult<DataFrame> {
    let _ = scale;
    let mut custkey = Vec::with_capacity(len);
    let mut nationkey = Vec::with_capacity(len);
    let mut acctbal = Vec::with_capacity(len);
    for i in start..start + len {
        let r = i as u64;
        custkey.push((i + 1) as i64);
        nationkey.push(uniform(T_CUSTOMER, r, 2, 0, 24));
        acctbal.push(uniform_f(T_CUSTOMER, r, 6, -999.99, 9999.99));
    }
    let name = Column::from_str_writer(len, len * 18, |i, text| {
        text.push_str("Customer#");
        push_padded(text, (start + i + 1) as u64, 9);
    });
    let phone = Column::from_str_writer(len, len * 15, |i, text| {
        let r = (start + i) as u64;
        push_padded(text, (nationkey[i] + 10) as u64, 2);
        text.push('-');
        push_padded(text, mix(T_CUSTOMER, r, 3) % 1000, 3);
        text.push('-');
        push_padded(text, mix(T_CUSTOMER, r, 4) % 1000, 3);
        text.push('-');
        push_padded(text, mix(T_CUSTOMER, r, 5) % 10000, 4);
    });
    let mktsegment = picks(start, len, |r| pick(T_CUSTOMER, r, 7, SEGMENTS.len()));
    let mktsegment = Column::from_str_picks(&SEGMENTS, &mktsegment);
    DataFrame::new(vec![
        ("c_custkey", Column::from_i64(custkey)),
        ("c_name", name),
        ("c_nationkey", Column::from_i64(nationkey)),
        ("c_phone", phone),
        ("c_acctbal", Column::from_f64(acctbal)),
        ("c_mktsegment", mktsegment),
    ])
}

/// Generates `part[start..start+len)`.
pub fn gen_part(scale: TpchScale, start: usize, len: usize) -> DfResult<DataFrame> {
    let _ = scale;
    let mut partkey = Vec::with_capacity(len);
    let mut size = Vec::with_capacity(len);
    let mut retailprice = Vec::with_capacity(len);
    for i in start..start + len {
        let r = i as u64;
        let pkey = (i + 1) as i64;
        partkey.push(pkey);
        size.push(uniform(T_PART, r, 8, 1, 50));
        retailprice.push(900.0 + (pkey % 1000) as f64);
    }
    // appends one pick of each `(field, options)`, space-joined
    let words = |i: usize, text: &mut String, lists: &[(u64, &[&str])]| {
        let r = (start + i) as u64;
        for (k, &(field, options)) in lists.iter().enumerate() {
            if k > 0 {
                text.push(' ');
            }
            text.push_str(options[pick(T_PART, r, field, options.len()) as usize]);
        }
    };
    let name = Column::from_str_writer(len, len * 13, |i, text| {
        words(i, text, &[(1, &PART_WORDS), (2, &PART_WORDS)])
    });
    // manufacturer `m` and brand `mn`, each digit 1..=5
    let m = |r: u64| uniform(T_PART, r, 3, 1, 5) as u8 - 1;
    let manufacturers: Vec<String> = (1..=5).map(|m| format!("Manufacturer#{m}")).collect();
    let mfgr = from_picks(&manufacturers, &picks(start, len, m));
    let brands: Vec<String> = (11..=55)
        .filter(|b| (1..=5).contains(&(b % 10)))
        .map(|b| format!("Brand#{b}"))
        .collect();
    let brand = picks(start, len, |r| {
        m(r) * 5 + uniform(T_PART, r, 4, 1, 5) as u8 - 1
    });
    let brand = from_picks(&brands, &brand);
    // the option of one word per `(field, list)`, as `joined` numbers them
    let words_pick = |r: u64, lists: &[(u64, &[&str])]| {
        let at = |&(field, list): &(u64, &[&str])| (pick(T_PART, r, field, list.len()), list.len());
        lists
            .iter()
            .map(at)
            .fold(0, |acc, (k, n)| acc * n as u8 + k)
    };
    let ptype = picks(start, len, |r| {
        words_pick(r, &[(5, &TYPE_1), (6, &TYPE_2), (7, &TYPE_3)])
    });
    let ptype = from_picks(&joined(&[&TYPE_1, &TYPE_2, &TYPE_3]), &ptype);
    let container = picks(start, len, |r| {
        words_pick(r, &[(9, &CONTAINER_1), (10, &CONTAINER_2)])
    });
    let container = from_picks(&joined(&[&CONTAINER_1, &CONTAINER_2]), &container);
    DataFrame::new(vec![
        ("p_partkey", Column::from_i64(partkey)),
        ("p_name", name),
        ("p_mfgr", mfgr),
        ("p_brand", brand),
        ("p_type", ptype),
        ("p_size", Column::from_i64(size)),
        ("p_container", container),
        ("p_retailprice", Column::from_f64(retailprice)),
    ])
}

/// Generates `partsupp[start..start+len)` (4 suppliers per part).
pub fn gen_partsupp(scale: TpchScale, start: usize, len: usize) -> DfResult<DataFrame> {
    let nsupp = scale.supplier() as i64;
    let mut partkey = Vec::with_capacity(len);
    let mut suppkey = Vec::with_capacity(len);
    let mut availqty = Vec::with_capacity(len);
    let mut supplycost = Vec::with_capacity(len);
    for i in start..start + len {
        let r = i as u64;
        let pkey = (i / 4 + 1) as i64;
        partkey.push(pkey);
        suppkey.push(supp_of_part(pkey, (i % 4) as i64, nsupp));
        availqty.push(uniform(T_PARTSUPP, r, 2, 1, 9999));
        supplycost.push(uniform_f(T_PARTSUPP, r, 3, 1.0, 1000.0));
    }
    DataFrame::new(vec![
        ("ps_partkey", Column::from_i64(partkey)),
        ("ps_suppkey", Column::from_i64(suppkey)),
        ("ps_availqty", Column::from_i64(availqty)),
        ("ps_supplycost", Column::from_f64(supplycost)),
    ])
}

/// Generates `supplier[start..start+len)`.
pub fn gen_supplier(scale: TpchScale, start: usize, len: usize) -> DfResult<DataFrame> {
    let _ = scale;
    let mut suppkey = Vec::with_capacity(len);
    let mut nationkey = Vec::with_capacity(len);
    let mut acctbal = Vec::with_capacity(len);
    for i in start..start + len {
        let r = i as u64;
        suppkey.push((i + 1) as i64);
        nationkey.push(uniform(T_SUPPLIER, r, 2, 0, 24));
        acctbal.push(uniform_f(T_SUPPLIER, r, 3, -999.99, 9999.99));
    }
    let name = Column::from_str_writer(len, len * 18, |i, text| {
        text.push_str("Supplier#");
        push_padded(text, (start + i + 1) as u64, 9);
    });
    let comment = picks(start, len, |r| {
        (!mix(T_SUPPLIER, r, 4).is_multiple_of(50)) as u8
    });
    let comment = Column::from_str_picks(
        &["waits Customer slow Complaints", "quick deliveries"],
        &comment,
    );
    DataFrame::new(vec![
        ("s_suppkey", Column::from_i64(suppkey)),
        ("s_name", name),
        ("s_nationkey", Column::from_i64(nationkey)),
        ("s_acctbal", Column::from_f64(acctbal)),
        ("s_comment", comment),
    ])
}

/// The nations' names, one row each, coded like every few-valued column.
fn nation_names() -> Column {
    let names: Vec<&str> = NATIONS.iter().map(|(n, _)| *n).collect();
    let rows: Vec<u8> = (0..NATIONS.len() as u8).collect();
    Column::from_str_picks(&names, &rows)
}

/// Generates the full `nation` table (25 rows).
pub fn gen_nation() -> DfResult<DataFrame> {
    DataFrame::new(vec![
        ("n_nationkey", Column::from_i64((0..25).collect())),
        ("n_name", nation_names()),
        (
            "n_regionkey",
            Column::from_i64(NATIONS.iter().map(|(_, r)| *r).collect()),
        ),
    ])
}

/// Generates the full `region` table (5 rows).
pub fn gen_region() -> DfResult<DataFrame> {
    DataFrame::new(vec![
        ("r_regionkey", Column::from_i64((0..5).collect())),
        ("r_name", Column::from_str_picks(&REGIONS, &[0, 1, 2, 3, 4])),
    ])
}

/// The eight tables as chunk-generating sources, shared across engines.
#[derive(Clone)]
pub struct TpchData {
    /// Scale descriptor.
    pub scale: TpchScale,
    /// lineitem source.
    pub lineitem: DfSource,
    /// orders source.
    pub orders: DfSource,
    /// customer source.
    pub customer: DfSource,
    /// part source.
    pub part: DfSource,
    /// partsupp source.
    pub partsupp: DfSource,
    /// supplier source.
    pub supplier: DfSource,
    /// nation source.
    pub nation: DfSource,
    /// region source.
    pub region: DfSource,
}

fn source(
    label: &str,
    rows: usize,
    gen: impl Fn(usize, usize) -> DfResult<DataFrame> + Send + Sync + 'static,
) -> DfSource {
    // measure bytes/row from a small sample; if the sample itself fails,
    // fall back to a rough estimate — the error resurfaces (typed) the
    // first time the pipeline actually materialises a chunk
    let bytes_per_row = match gen(0, rows.min(256)) {
        Ok(sample) => (sample.nbytes() / sample.num_rows().max(1)).max(1),
        Err(_) => 64,
    };
    DfSource::Generator {
        rows,
        bytes_per_row,
        gen: Arc::new(move |start, len| gen(start, len).map_err(XbError::from)),
        label: label.to_string(),
    }
}

impl TpchData {
    /// Builds all table sources at a scale factor.
    pub fn new(sf: f64) -> XbResult<TpchData> {
        let scale = TpchScale::new(sf);
        Ok(TpchData {
            scale,
            lineitem: source("read_parquet(lineitem)", scale.lineitem(), move |s, l| {
                gen_lineitem(scale, s, l)
            }),
            orders: source("read_parquet(orders)", scale.orders(), move |s, l| {
                gen_orders(scale, s, l)
            }),
            customer: source("read_parquet(customer)", scale.customer(), move |s, l| {
                gen_customer(scale, s, l)
            }),
            part: source("read_parquet(part)", scale.part(), move |s, l| {
                gen_part(scale, s, l)
            }),
            partsupp: source("read_parquet(partsupp)", scale.partsupp(), move |s, l| {
                gen_partsupp(scale, s, l)
            }),
            supplier: source("read_parquet(supplier)", scale.supplier(), move |s, l| {
                gen_supplier(scale, s, l)
            }),
            nation: DfSource::materialized(gen_nation()?),
            region: DfSource::materialized(gen_region()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_dataframe::Scalar;

    #[test]
    fn deterministic_and_range_consistent() {
        let scale = TpchScale::new(1.0);
        let whole = gen_lineitem(scale, 0, 100).unwrap();
        let part1 = gen_lineitem(scale, 0, 60).unwrap();
        let part2 = gen_lineitem(scale, 60, 40).unwrap();
        let glued = DataFrame::concat(&[&part1, &part2]).unwrap();
        assert_eq!(whole, glued, "range generation must compose");
    }

    #[test]
    fn referential_integrity() {
        let scale = TpchScale::new(1.0);
        let li = gen_lineitem(scale, 0, scale.lineitem()).unwrap();
        let ok = li.column("l_orderkey").unwrap();
        let max_order = (0..li.num_rows())
            .map(|i| ok.get(i).as_i64().unwrap())
            .max()
            .unwrap();
        assert!(max_order as usize <= scale.orders());
        let pk = li.column("l_partkey").unwrap();
        for i in 0..li.num_rows() {
            let p = pk.get(i).as_i64().unwrap();
            assert!(p >= 1 && p as usize <= scale.part());
        }
        // every lineitem's (partkey, suppkey) exists in partsupp
        let ps = gen_partsupp(scale, 0, scale.partsupp()).unwrap();
        let mut pairs = std::collections::HashSet::new();
        for i in 0..ps.num_rows() {
            pairs.insert((
                ps.column("ps_partkey").unwrap().get(i).as_i64().unwrap(),
                ps.column("ps_suppkey").unwrap().get(i).as_i64().unwrap(),
            ));
        }
        let sk = li.column("l_suppkey").unwrap();
        for i in 0..li.num_rows().min(500) {
            let pair = (pk.get(i).as_i64().unwrap(), sk.get(i).as_i64().unwrap());
            assert!(
                pairs.contains(&pair),
                "lineitem {i} pair {pair:?} not in partsupp"
            );
        }
    }

    #[test]
    fn value_domains() {
        let scale = TpchScale::new(1.0);
        let li = gen_lineitem(scale, 0, 1000).unwrap();
        let disc = li.column("l_discount").unwrap().as_f64().unwrap();
        assert!(disc.values.iter().all(|&d| (0.0..=0.1).contains(&d)));
        let q = li.column("l_quantity").unwrap().as_f64().unwrap();
        assert!(q.values.iter().all(|&v| (1.0..=50.0).contains(&v)));
        // ship < receipt always
        let sd = li.column("l_shipdate").unwrap().as_date().unwrap();
        let rd = li.column("l_receiptdate").unwrap().as_date().unwrap();
        for i in 0..1000 {
            assert!(sd.values[i] < rd.values[i]);
        }
    }

    #[test]
    fn nation_region_static() {
        let n = gen_nation().unwrap();
        assert_eq!(n.num_rows(), 25);
        let r = gen_region().unwrap();
        assert_eq!(r.num_rows(), 5);
        assert_eq!(
            r.column("r_name").unwrap().get(3),
            Scalar::Str("EUROPE".into())
        );
    }

    #[test]
    fn scale_ratios() {
        let s = TpchScale::new(10.0);
        assert_eq!(s.lineitem(), 30_000);
        assert_eq!(s.orders(), 7_500);
        assert_eq!(s.customer(), 750);
        assert_eq!(s.partsupp(), s.part() * 4);
    }

    /// FNV-1a over every column's name, type and values, row by row.
    fn digest(df: &DataFrame) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for name in df.schema().names() {
            let column = df.column(name).unwrap();
            eat(name.as_bytes());
            eat(format!("{:?}", column.data_type()).as_bytes());
            for i in 0..column.len() {
                match column.get(i) {
                    Scalar::Int(v) => eat(&v.to_le_bytes()),
                    Scalar::Float(v) => eat(&v.to_bits().to_le_bytes()),
                    Scalar::Date(v) => eat(&v.to_le_bytes()),
                    Scalar::Str(s) => {
                        eat(&(s.len() as u64).to_le_bytes());
                        eat(s.as_bytes());
                    }
                    other => eat(format!("{other:?}").as_bytes()),
                }
            }
        }
        h
    }

    /// Every generated table is pinned value for value at two scale
    /// factors: a faster generator must build the same tables.
    #[test]
    fn generated_tables_are_pinned() {
        type Gen = fn(TpchScale, usize, usize) -> DfResult<DataFrame>;
        type Rows = fn(&TpchScale) -> usize;
        let tables: [(&str, Gen, Rows); 6] = [
            ("lineitem", gen_lineitem, TpchScale::lineitem),
            ("orders", gen_orders, TpchScale::orders),
            ("customer", gen_customer, TpchScale::customer),
            ("part", gen_part, TpchScale::part),
            ("partsupp", gen_partsupp, TpchScale::partsupp),
            ("supplier", gen_supplier, TpchScale::supplier),
        ];
        let mut got = Vec::new();
        for sf in [1.0, 10.0] {
            let scale = TpchScale::new(sf);
            for (name, gen, rows) in tables {
                let df = gen(scale, 0, rows(&scale)).unwrap();
                got.push(format!("sf {sf} {name} {:016x}", digest(&df)));
            }
        }
        got.push(format!("nation {:016x}", digest(&gen_nation().unwrap())));
        got.push(format!("region {:016x}", digest(&gen_region().unwrap())));
        let want = [
            "sf 1 lineitem 5c0f7134d86b4d1f",
            "sf 1 orders 039aa37497f2fc44",
            "sf 1 customer faa6278bce4eba0e",
            "sf 1 part 416859ddf9a2c33f",
            "sf 1 partsupp b2f743a743a83ebe",
            "sf 1 supplier 899eb38492645c21",
            "sf 10 lineitem a493b9df5111e7dc",
            "sf 10 orders e84e39132e547ea9",
            "sf 10 customer 695a18971051b91f",
            "sf 10 part 21767e7586d0e3d7",
            "sf 10 partsupp efe877b6ffb63cd9",
            "sf 10 supplier 0d50841715388a87",
            "nation 724d257e024bbe74",
            "region e4d2f8eaa57c4d69",
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn sources_generate_through_session_api() {
        let d = TpchData::new(0.2).expect("tpch data");
        if let DfSource::Generator { gen, rows, .. } = &d.lineitem {
            let df = gen(0, (*rows).min(100)).unwrap();
            assert!(df.schema().contains("l_shipdate"));
        } else {
            panic!("lineitem should be a generator");
        }
    }
}
