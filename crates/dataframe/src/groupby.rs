//! Hash group-by aggregation.
//!
//! Two entry points mirror the paper's execution modes:
//!
//! * [`groupby_agg`] — the whole aggregation in one pass (what a single-node
//!   pandas backend does inside one chunk task);
//! * [`groupby_map`] / [`groupby_combine`] / [`groupby_finalize`] — the
//!   *map-combine-reduce* decomposition of §III-C: `map` emits per-chunk
//!   partial states, `combine` pre-aggregates sets of partials (the stage
//!   Xorbits adds to avoid funnelling every chunk into one reducer), and
//!   `finalize` turns states into the user-visible result.
//!
//! `nunique` has non-fixed-width partial state, so it has no map stage: the
//! tiling layer (see `xorbits-core`) shuffles raw rows by key and runs the
//! single-pass path on each partition.

use crate::bitmap::Bitmap;
use crate::column::{BoolArr, Column, PrimArr, NO_ROW};
use crate::error::{DfError, DfResult};
use crate::frame::DataFrame;
use crate::hash::{FxHashMap, KeyTable};
use crate::scalar::DataType;
use std::cmp::Ordering;

/// Aggregation functions (the pandas subset the workloads need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of non-null values.
    Sum,
    /// Minimum of non-null values.
    Min,
    /// Maximum of non-null values.
    Max,
    /// Count of non-null values.
    Count,
    /// Mean of non-null values.
    Mean,
    /// First value in order.
    First,
    /// Number of distinct non-null values.
    Nunique,
}

impl AggFunc {
    /// pandas spelling, used by the API-coverage benchmark.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
            AggFunc::Mean => "mean",
            AggFunc::First => "first",
            AggFunc::Nunique => "nunique",
        }
    }
}

/// One aggregation: `output = func(column)` within each group.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Input column.
    pub column: String,
    /// Aggregation function.
    pub func: AggFunc,
    /// Output column name.
    pub output: String,
}

impl AggSpec {
    /// Creates a spec.
    pub fn new(column: impl Into<String>, func: AggFunc, output: impl Into<String>) -> Self {
        AggSpec {
            column: column.into(),
            func,
            output: output.into(),
        }
    }
}

/// Sentinel group id for rows dropped because of a null key.
const DROPPED: u32 = u32::MAX;

/// Group index: unique key rows plus, per input row, its group id.
pub(crate) struct Groups {
    /// Row index (into the input) of each group's representative row.
    pub(crate) repr_rows: Vec<usize>,
    /// Group id of row `i`, or [`DROPPED`] when a key is null.
    row_gids: Vec<u32>,
}

/// Dictionary-encoded plain `Utf8` columns shared across one `groupby_agg`
/// call (key normalization and `nunique` accumulators reuse the same
/// encode pass instead of re-hashing the strings per consumer). A coded
/// column is read through its own codes and never enters it.
pub(crate) type DictCache<'a> = FxHashMap<&'a str, PrimArr<i64>>;

/// Builds groups over `keys`: the one place where rows with equal keys are
/// found, for grouping and for distinct. Groups appear in first-occurrence
/// order. Equality is [`Column::eq_at`]'s: floats by bit pattern, and with
/// `keep_nulls` null is a key value like any other (distinct); without it a
/// row with a null key is dropped (pandas `groupby(dropna=True)`).
///
/// A plain string key is dictionary-encoded up front (taken from `dicts`,
/// else encoded here), so equality runs on `i64` codes — strings are
/// hashed once during encoding and never cloned or re-compared per
/// candidate pair; a coded key's `u32` codes are read in place. (Codes are
/// chunk-local, which is fine here: grouping only needs within-frame
/// equality.)
///
/// When every normalized key is an `Int64`, `Date` or coded string and
/// the combined key range fits 64 bits, each row's key is packed into one
/// word ([`Radix`]). A small range (dict codes always are; ints like ids
/// and buckets usually are) numbers the words in a dense direct-address
/// table — no hashing and no collision chains at all; a wide one takes
/// the [`KeyTable`] with the word as its own tag, which needs no confirm.
/// Float and boolean keys, and ranges that overflow, take the key table
/// tagged with the row hash and confirmed by `eq_at`.
pub(crate) fn build_groups(
    df: &DataFrame,
    keys: &[&str],
    dicts: &DictCache,
    keep_nulls: bool,
) -> DfResult<Groups> {
    let n = df.num_rows();
    let key_cols: Vec<Column> = keys
        .iter()
        .map(|k| {
            Ok(match df.column(k)? {
                Column::Utf8(a) if a.codes().is_none() => Column::Int64(match dicts.get(k) {
                    Some(codes) => codes.clone(), // Arc bump, not a copy
                    None => a.dict_encode(),
                }),
                other => other.clone(), // Arc bump, not a copy
            })
        })
        .collect::<DfResult<Vec<_>>>()?;

    if let Some(groups) = packed_groups(&key_cols, n, keep_nulls) {
        return Ok(groups);
    }

    let mut hashes = vec![0u64; n];
    for c in &key_cols {
        c.hash_combine(&mut hashes);
    }
    // one entry per group, confirmed against the group's first row
    let mut table = KeyTable::with_capacity(n);
    let mut repr_rows = Vec::new();
    let mut row_gids: Vec<u32> = Vec::with_capacity(n);
    crate::mem::advise_huge(row_gids.as_ptr(), n);
    for (i, &h) in hashes.iter().enumerate() {
        if !keep_nulls && key_cols.iter().any(|c| !c.is_valid(i)) {
            row_gids.push(DROPPED);
            continue;
        }
        let gid = table.find_or_insert(h, |g| {
            let g = repr_rows[g as usize];
            key_cols.iter().all(|c| c.eq_at(i, c, g))
        });
        if gid as usize == repr_rows.len() {
            repr_rows.push(i);
        }
        row_gids.push(gid);
    }
    Ok(Groups {
        repr_rows,
        row_gids,
    })
}

/// Most slots (the product of the keys' ranges, null slots included) the
/// dense direct-address grouping table accepts (slots are 4 bytes, so
/// this caps the table at 8 MiB).
const DENSE_GROUP_LIMIT: u64 = 1 << 21;

/// Most dense-table slots per grouped row: filling a wider table costs
/// more than the key table's probes would.
const DENSE_SLOTS_PER_ROW: u64 = 16;

/// The packed word of a row whose null key drops it (no packed key is
/// `u64::MAX`: [`Radix::new`] keeps the width below it).
const DROPPED_WORD: u64 = u64::MAX;

/// Grouping over packed keys ([`number_words`]). A single null-free
/// key's word is its offset, read in place; several keys are summed into
/// a word per row first. `None` when the keys don't pack.
fn packed_groups(key_cols: &[Column], n: usize, keep_nulls: bool) -> Option<Groups> {
    let keys: Vec<IntKey> = key_cols.iter().map(IntKey::of).collect::<Option<_>>()?;
    let radix = Radix::new(keys.iter().map(|k| (k.range(), k.validity().is_some())))?;
    if let [key] = keys[..] {
        fn single<T: Copy + Default + Into<i64>>(a: &PrimArr<T>, radix: &Radix) -> Option<Groups> {
            let lo = radix.keys[0].0;
            let words = a.values.iter().map(|&v| offset(v, lo));
            a.validity
                .is_none()
                .then(|| number_words(words, radix.width))
        }
        let groups = match key {
            IntKey::I64(a) => single(a, &radix),
            IntKey::I32(a) => single(a, &radix),
            IntKey::U32(a) => single(a, &radix),
        };
        if groups.is_some() {
            return groups;
        }
    }
    let mut words = vec![0u64; n];
    crate::mem::advise_huge(words.as_ptr(), n);
    for (k, key) in keys.iter().enumerate() {
        radix.add(k, *key, &mut words);
    }
    if !keep_nulls {
        for valid in keys.iter().filter_map(|k| k.validity()) {
            for (w, v) in words.iter_mut().zip(valid.iter()) {
                if !v {
                    *w = DROPPED_WORD;
                }
            }
        }
    }
    Some(number_words(words.into_iter(), radix.width))
}

/// Groups of packed words in first-occurrence order, [`DROPPED_WORD`]
/// dropping its row: a dense table for a small `width`, else the key
/// table with each word as its own tag, sized for a group per row.
fn number_words(words: impl ExactSizeIterator<Item = u64>, width: u64) -> Groups {
    /// `gid(word, row, repr_rows)` returns the word's group id, adding
    /// `row` to `repr_rows` for a word not seen before.
    fn number(
        words: impl ExactSizeIterator<Item = u64>,
        mut gid: impl FnMut(u64, usize, &mut Vec<usize>) -> u32,
    ) -> Groups {
        let mut repr_rows = Vec::new();
        let mut row_gids: Vec<u32> = Vec::with_capacity(words.len());
        crate::mem::advise_huge(row_gids.as_ptr(), words.len());
        for (i, w) in words.enumerate() {
            row_gids.push(match w {
                DROPPED_WORD => DROPPED,
                w => gid(w, i, &mut repr_rows),
            });
        }
        Groups {
            repr_rows,
            row_gids,
        }
    }
    if width <= DENSE_GROUP_LIMIT.min(DENSE_SLOTS_PER_ROW * words.len() as u64) {
        let mut table: Vec<u32> = vec![u32::MAX; width as usize];
        crate::mem::advise_huge(table.as_ptr(), table.len());
        number(words, |w, row, repr_rows| {
            let slot = &mut table[w as usize];
            if *slot == u32::MAX {
                *slot = repr_rows.len() as u32;
                repr_rows.push(row);
            }
            *slot
        })
    } else {
        let mut table = KeyTable::with_capacity(words.len());
        number(words, |w, row, repr_rows| {
            let g = table.find_or_insert(w, |_| true);
            if g as usize == repr_rows.len() {
                repr_rows.push(row);
            }
            g
        })
    }
}

/// A value's offset from its key's smallest `lo`, in 64 bits.
#[inline]
fn offset<T: Into<i64>>(v: T, lo: i64) -> u64 {
    (v.into() as u64).wrapping_sub(lo as u64)
}

/// A key column read in place as integers: an `Int64`, a `Date`, or a
/// coded string's `u32` codes (no widening copy).
#[derive(Clone, Copy)]
pub(crate) enum IntKey<'a> {
    I64(&'a PrimArr<i64>),
    I32(&'a PrimArr<i32>),
    U32(&'a PrimArr<u32>),
}

impl<'a> IntKey<'a> {
    /// The view of `col`; `None` for floats, booleans and plain strings.
    pub(crate) fn of(col: &'a Column) -> Option<IntKey<'a>> {
        match col {
            Column::Int64(a) => Some(IntKey::I64(a)),
            Column::Date(a) => Some(IntKey::I32(a)),
            Column::Utf8(a) => a.codes().map(IntKey::U32),
            Column::Float64(_) | Column::Bool(_) => None,
        }
    }

    pub(crate) fn len(self) -> usize {
        match self {
            IntKey::I64(a) => a.len(),
            IntKey::I32(a) => a.len(),
            IntKey::U32(a) => a.len(),
        }
    }

    fn validity(self) -> Option<&'a Bitmap> {
        match self {
            IntKey::I64(a) => a.validity.as_ref(),
            IntKey::I32(a) => a.validity.as_ref(),
            IntKey::U32(a) => a.validity.as_ref(),
        }
    }

    /// The smallest and the largest valid value; `None` when no row is
    /// valid.
    pub(crate) fn range(self) -> Option<(i64, i64)> {
        fn range<T: Copy + Default + Into<i64>>(a: &PrimArr<T>) -> Option<(i64, i64)> {
            let (mut lo, mut hi) = (i64::MAX, i64::MIN);
            let vals = a.values.as_slice();
            match &a.validity {
                None => vals.iter().for_each(|&v| {
                    lo = lo.min(v.into());
                    hi = hi.max(v.into());
                }),
                Some(valid) => vals.iter().zip(valid.iter()).for_each(|(&v, ok)| {
                    if ok {
                        lo = lo.min(v.into());
                        hi = hi.max(v.into());
                    }
                }),
            }
            (lo <= hi).then_some((lo, hi))
        }
        match self {
            IntKey::I64(a) => range(a),
            IntKey::I32(a) => range(a),
            IntKey::U32(a) => range(a),
        }
    }
}

/// A key tuple packed into one word: mixed-radix, row-major over each
/// column's slots (its values from the smallest to the largest, plus one
/// for null when the column has a validity bitmap). The grouping table
/// and the join probe take the word as the key's own tag.
pub(crate) struct Radix {
    /// Per key: its smallest value, its null slot (one past its values)
    /// and its stride.
    keys: Vec<(i64, u64, u64)>,
    /// The number of distinct words, below `u64::MAX`.
    pub(crate) width: u64,
}

impl Radix {
    /// The radix over each key's `(range, nullable)` ([`IntKey::range`]);
    /// `None` when the product of the slots does not stay below
    /// `u64::MAX`.
    pub(crate) fn new(keys: impl IntoIterator<Item = (Option<(i64, i64)>, bool)>) -> Option<Radix> {
        let mut slots: Vec<(i64, u64, u64)> = Vec::new();
        for (range, nullable) in keys {
            let (lo, values) = range.map_or((0, 0), |(lo, hi)| (lo, hi.abs_diff(lo) as u128 + 1));
            let values = u64::try_from(values).ok()?;
            slots.push((lo, values, values.checked_add(nullable as u64)?));
        }
        // row-major strides, from the last key
        let mut width: u64 = 1;
        let mut keys = vec![(0, 0, 0); slots.len()];
        for (k, &(lo, null, count)) in slots.iter().enumerate().rev() {
            keys[k] = (lo, null, width);
            width = width.checked_mul(count).filter(|&w| w < u64::MAX)?;
        }
        Some(Radix { keys, width })
    }

    /// Adds key `k`'s part of each row's word to `words`: its value's
    /// offset from the key's smallest, or the null slot, times its stride.
    pub(crate) fn add(&self, k: usize, key: IntKey, words: &mut [u64]) {
        fn add<T: Copy + Default + Into<i64>>(
            a: &PrimArr<T>,
            (lo, null, stride): (i64, u64, u64),
            words: &mut [u64],
        ) {
            let vals = a.values.as_slice();
            match &a.validity {
                None => words
                    .iter_mut()
                    .zip(vals)
                    .for_each(|(w, &v)| *w += offset(v, lo) * stride),
                Some(valid) => words
                    .iter_mut()
                    .zip(vals)
                    .zip(valid.iter())
                    .for_each(|((w, &v), ok)| *w += if ok { offset(v, lo) } else { null } * stride),
            }
        }
        match key {
            IntKey::I64(a) => add(a, self.keys[k], words),
            IntKey::I32(a) => add(a, self.keys[k], words),
            IntKey::U32(a) => add(a, self.keys[k], words),
        }
    }
}

/// Typed read-only numeric view over a column. Reads go straight to the
/// underlying buffers — no `Scalar` per row.
enum NumView<'a> {
    I(&'a PrimArr<i64>),
    F(&'a PrimArr<f64>),
    D(&'a PrimArr<i32>),
    B(&'a BoolArr),
    /// A coded string's codes (only `nunique` reads strings).
    C(&'a PrimArr<u32>),
}

impl NumView<'_> {
    fn new(col: &Column) -> Option<NumView<'_>> {
        match col {
            Column::Int64(a) => Some(NumView::I(a)),
            Column::Float64(a) => Some(NumView::F(a)),
            Column::Date(a) => Some(NumView::D(a)),
            Column::Bool(a) => Some(NumView::B(a)),
            Column::Utf8(_) => None,
        }
    }

    /// Calls `f(gid, value)` for every row with a group and a valid value,
    /// read through `int` (ints, dates, and bools as 0/1) or `float`. The
    /// view's type and, for null-free columns, the validity check are
    /// matched once per column rather than per row.
    fn walk<T>(
        &self,
        row_gids: &[u32],
        int: impl Fn(i64) -> T,
        float: impl Fn(f64) -> T,
        mut f: impl FnMut(usize, T),
    ) {
        fn rows<V: Copy + Default, T>(
            a: &PrimArr<V>,
            row_gids: &[u32],
            read: impl Fn(V) -> T,
            f: &mut impl FnMut(usize, T),
        ) {
            let pairs = row_gids.iter().zip(a.values.as_slice()).enumerate();
            match &a.validity {
                None => pairs
                    .filter(|(_, (&gid, _))| gid != DROPPED)
                    .for_each(|(_, (&gid, &v))| f(gid as usize, read(v))),
                Some(_) => pairs
                    .filter(|&(row, (&gid, _))| gid != DROPPED && a.is_valid(row))
                    .for_each(|(_, (&gid, &v))| f(gid as usize, read(v))),
            }
        }
        match self {
            NumView::I(a) => rows(a, row_gids, int, &mut f),
            NumView::F(a) => rows(a, row_gids, float, &mut f),
            NumView::D(a) => rows(a, row_gids, |v| int(v as i64), &mut f),
            NumView::C(a) => rows(a, row_gids, |v| int(v as i64), &mut f),
            NumView::B(a) => row_gids
                .iter()
                .enumerate()
                .filter(|&(row, &gid)| gid != DROPPED && a.is_valid(row))
                .for_each(|(row, &gid)| f(gid as usize, int(a.values.get(row) as i64))),
        }
    }

    /// [`NumView::walk`] over each value's 64-bit key, the identity
    /// `nunique` counts: ints, dates and bools as they are, floats by bit
    /// pattern (so ±0.0 are two values), strings by their dictionary code
    /// (a `C` view of a coded column's codes, else an `I` view of a plain
    /// one's).
    fn walk_keys(&self, row_gids: &[u32], f: impl FnMut(usize, i64)) {
        self.walk(row_gids, |v| v, |x| x.to_bits() as i64, f);
    }

    /// The smallest key over rows with a group and the count of keys up to
    /// the largest (0 when there are none); `None` when that count
    /// overflows `usize`.
    fn key_range(&self, row_gids: &[u32]) -> Option<(i64, usize)> {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        self.walk_keys(row_gids, |_, k| {
            lo = lo.min(k);
            hi = hi.max(k);
        });
        if lo > hi {
            return Some((0, 0));
        }
        usize::try_from(hi as i128 - lo as i128 + 1)
            .ok()
            .map(|span| (lo, span))
    }
}

/// Which row an order-sensitive aggregation keeps.
#[derive(Clone, Copy, PartialEq)]
enum BestMode {
    Min,
    Max,
    First,
}

/// Columnar accumulator for one aggregation spec: one state slot per
/// group, updated by typed reads and finished into a typed column.
/// This replaces the per-(group × spec) boxed `Scalar` accumulators.
enum Accumulator<'a> {
    /// Sum over Int64/Bool, output Int64 (pandas: bool sums to int); or
    /// over Date, output Date (legacy behavior of this kernel).
    SumInt(NumView<'a>, Vec<i64>),
    /// Sum over Float64; output Float64. Empty groups sum to 0 (pandas).
    SumFloat(NumView<'a>, Vec<f64>),
    /// Min/Max/First tracked as best-row index; the output column is one
    /// gather, so empty groups ([`NO_ROW`]) come out null in the input type.
    BestRow {
        col: &'a Column,
        mode: BestMode,
        best: Vec<u32>,
    },
    /// Count of non-null rows; output Int64.
    Count(&'a Column, Vec<i64>),
    /// Mean over any numeric input; output Float64, empty groups null.
    Mean(NumView<'a>, Vec<f64>, Vec<i64>),
    /// Distinct count over each value's key ([`NumView::walk_keys`]),
    /// marked in a (group × key) bitset over the observed keys
    /// `lo..lo + span` — no hash-set probes per row.
    NuniqueBits {
        keys: NumView<'a>,
        lo: i64,
        span: usize,
        ngroups: usize,
        seen: Vec<u64>,
    },
    /// Distinct count over the same keys, for observed key ranges too
    /// wide for the bitset: the keys are counting-sorted by group, stably,
    /// and each group's run is counted on its own ([`distinct_in_run`]).
    NuniqueRuns { keys: NumView<'a>, counts: Vec<i64> },
}

/// Longest run [`distinct_in_run`] counts by a linear scan; a longer one
/// is sorted.
const SHORT_RUN: usize = 16;

/// The number of distinct keys in one group's run: each key looked up
/// among the ones before it in a short run, runs of equal keys counted
/// after sorting a long one.
fn distinct_in_run(run: &mut [i64]) -> i64 {
    if run.len() <= SHORT_RUN {
        let mut count = 0;
        for i in 0..run.len() {
            count += !run[..i].contains(&run[i]) as i64;
        }
        return count;
    }
    run.sort_unstable();
    1 + run.windows(2).filter(|w| w[0] != w[1]).count() as i64
}

/// Largest (groups × observed key range) the nunique bitset accepts (bits;
/// 1<<24 bits = 2 MiB). It also never takes more bits than its input
/// column has bytes.
const NUNIQUE_BITSET_LIMIT: usize = 1 << 24;

impl<'a> Accumulator<'a> {
    fn new(
        func: AggFunc,
        col: &'a Column,
        name: &str,
        groups: &Groups,
        dicts: &'a DictCache,
    ) -> DfResult<Accumulator<'a>> {
        let ngroups = groups.repr_rows.len();
        let view = |what: &str| {
            NumView::new(col).ok_or_else(|| {
                DfError::Unsupported(format!(
                    "{what} aggregation over {} column",
                    col.data_type()
                ))
            })
        };
        Ok(match func {
            AggFunc::Sum => match view("sum")? {
                v @ NumView::F(_) => Accumulator::SumFloat(v, vec![0.0; ngroups]),
                v => Accumulator::SumInt(v, vec![0; ngroups]),
            },
            // best rows are `u32` ids, `NO_ROW` taken, as a join side's are
            AggFunc::Min | AggFunc::Max | AggFunc::First if col.len() >= NO_ROW as usize => {
                return Err(DfError::Unsupported(format!(
                    "{func:?} over a chunk of {} rows exceeds u32 row ids",
                    col.len()
                )))
            }
            AggFunc::Min | AggFunc::Max | AggFunc::First => Accumulator::BestRow {
                col,
                mode: match func {
                    AggFunc::Min => BestMode::Min,
                    AggFunc::Max => BestMode::Max,
                    _ => BestMode::First,
                },
                best: vec![NO_ROW; ngroups],
            },
            AggFunc::Count => Accumulator::Count(col, vec![0; ngroups]),
            AggFunc::Mean => Accumulator::Mean(view("mean")?, vec![0.0; ngroups], vec![0; ngroups]),
            AggFunc::Nunique => {
                let keys = match col {
                    Column::Utf8(a) => a
                        .codes()
                        .map_or_else(|| NumView::I(&dicts[name]), NumView::C),
                    _ => view("nunique")?,
                };
                // the rule is about the observed key range, not the type; the
                // range pass is skipped when the group count alone rules out
                // the bitset
                let limit = NUNIQUE_BITSET_LIMIT.min(col.nbytes());
                let range = (ngroups <= limit)
                    .then(|| keys.key_range(&groups.row_gids))
                    .flatten()
                    .filter(|&(_, span)| ngroups.saturating_mul(span) <= limit);
                match range {
                    Some((lo, span)) => Accumulator::NuniqueBits {
                        keys,
                        lo,
                        span,
                        ngroups,
                        seen: vec![0u64; (ngroups * span).div_ceil(64)],
                    },
                    None => Accumulator::NuniqueRuns {
                        keys,
                        counts: vec![0; ngroups],
                    },
                }
            }
        })
    }

    /// One whole-column accumulation pass over the group id of every row;
    /// null values (and rows without a group) are skipped (pandas).
    fn accumulate(&mut self, row_gids: &[u32]) {
        let grouped = || {
            row_gids
                .iter()
                .enumerate()
                .filter(|(_, &gid)| gid != DROPPED)
                .map(|(row, &gid)| (row, gid as usize))
        };
        match self {
            Accumulator::SumInt(v, sums) => v.walk(
                row_gids,
                |v| v,
                |_| unreachable!("float sums are SumFloat"),
                |g, v| sums[g] = sums[g].wrapping_add(v),
            ),
            Accumulator::SumFloat(v, sums) => {
                v.walk(row_gids, |v| v as f64, |x| x, |g, x| sums[g] += x)
            }
            Accumulator::Mean(v, sums, counts) => v.walk(
                row_gids,
                |v| v as f64,
                |x| x,
                |g, x| {
                    sums[g] += x;
                    counts[g] += 1;
                },
            ),
            Accumulator::Count(col, counts) => match col.validity() {
                None => grouped().for_each(|(_, g)| counts[g] += 1),
                Some(valid) => grouped()
                    .filter(|&(row, _)| valid.get(row))
                    .for_each(|(_, g)| counts[g] += 1),
            },
            Accumulator::BestRow { col, mode, best } => {
                for (row, g) in grouped().filter(|&(row, _)| col.is_valid(row)) {
                    let b = best[g] as usize;
                    let replace = best[g] == NO_ROW
                        || match mode {
                            BestMode::First => false,
                            BestMode::Min => col.cmp_valid(row, col, b) == Ordering::Less,
                            BestMode::Max => col.cmp_valid(row, col, b) == Ordering::Greater,
                        };
                    if replace {
                        best[g] = row as u32;
                    }
                }
            }
            Accumulator::NuniqueBits {
                keys,
                lo,
                span,
                seen,
                ..
            } => keys.walk_keys(row_gids, |g, k| {
                let bit = g * *span + (k - *lo) as usize;
                seen[bit >> 6] |= 1 << (bit & 63);
            }),
            Accumulator::NuniqueRuns { keys, counts } => {
                // `next[g + 1]` counts group `g`'s keys, then (summed)
                // `next[g]` is where its run starts; placing a key moves
                // it on, so after the scatter `next[g]` is where it ends
                let ngroups = counts.len();
                let mut next = vec![0usize; ngroups + 1];
                keys.walk_keys(row_gids, |g, _| next[g + 1] += 1);
                for g in 1..=ngroups {
                    next[g] += next[g - 1];
                }
                let mut runs = vec![0i64; next[ngroups]];
                keys.walk_keys(row_gids, |g, k| {
                    runs[next[g]] = k;
                    next[g] += 1;
                });
                let mut start = 0;
                for (count, &end) in counts.iter_mut().zip(&next[..ngroups]) {
                    *count = distinct_in_run(&mut runs[start..end]);
                    start = end;
                }
            }
        }
    }

    /// Materializes the output column for all groups at once.
    fn finish(self) -> DfResult<Column> {
        Ok(match self {
            Accumulator::SumInt(NumView::D(_), sums) => {
                Column::from_date(sums.into_iter().map(|s| s as i32).collect())
            }
            Accumulator::SumInt(_, sums) => Column::from_i64(sums),
            Accumulator::SumFloat(_, sums) => Column::from_f64(sums),
            Accumulator::BestRow { col, best, .. } => Column::gather(&[col], &best)?,
            Accumulator::Count(_, counts) => Column::from_i64(counts),
            Accumulator::Mean(_, sums, counts) => Column::from_opt_f64(
                sums.into_iter()
                    .zip(counts)
                    .map(|(s, c)| if c > 0 { Some(s / c as f64) } else { None })
                    .collect(),
            ),
            Accumulator::NuniqueBits {
                span,
                ngroups,
                seen,
                ..
            } => {
                // per-group popcount over its (unaligned) bit range
                let mut out = Vec::with_capacity(ngroups);
                for g in 0..ngroups {
                    let (s, e) = (g * span, (g + 1) * span);
                    let mut c = 0u32;
                    #[allow(clippy::needless_range_loop)] // word index is arithmetic, not iteration
                    for w in (s >> 6)..e.div_ceil(64) {
                        let mut word = seen[w];
                        let base = w << 6;
                        if base < s {
                            word &= !0u64 << (s - base);
                        }
                        if base + 64 > e {
                            word &= !0u64 >> (base + 64 - e);
                        }
                        c += word.count_ones();
                    }
                    out.push(c as i64);
                }
                Column::from_i64(out)
            }
            Accumulator::NuniqueRuns { counts, .. } => Column::from_i64(counts),
        })
    }
}

/// Single-pass group-by aggregate (pandas `df.groupby(keys).agg(...)` with
/// `as_index=False`). Groups appear in first-occurrence order.
///
/// A *whole-frame* aggregate (empty `keys`) always yields exactly one row,
/// like SQL aggregates and pandas reductions: over an empty input, sums and
/// counts are zero and min/max/mean/first are null.
pub fn groupby_agg(df: &DataFrame, keys: &[&str], specs: &[AggSpec]) -> DfResult<DataFrame> {
    let out = groupby_agg_raw(df, keys, specs)?;
    pad_whole_frame_agg(out, keys, specs)
}

/// The raw aggregation: a whole-frame aggregate over an empty input yields
/// zero rows. The map/combine stages use this so empty chunks contribute
/// *no* partial state (a padded zero-row would perturb float sum order).
fn groupby_agg_raw(df: &DataFrame, keys: &[&str], specs: &[AggSpec]) -> DfResult<DataFrame> {
    // Dictionary-encode each plain Utf8 column that grouping or nunique
    // needs, once — key normalization and accumulators share the encode
    // pass.
    let mut dicts: DictCache = FxHashMap::default();
    let nunique_cols = specs
        .iter()
        .filter(|s| s.func == AggFunc::Nunique)
        .map(|s| s.column.as_str());
    for name in keys.iter().copied().chain(nunique_cols) {
        match df.column(name)? {
            Column::Utf8(a) if a.codes().is_none() => {
                dicts.entry(name).or_insert_with(|| a.dict_encode());
            }
            _ => {}
        }
    }

    let groups = build_groups(df, keys, &dicts, false)?;
    let in_cols: Vec<&Column> = specs
        .iter()
        .map(|s| df.column(&s.column))
        .collect::<DfResult<Vec<_>>>()?;

    let mut accs: Vec<Accumulator> = specs
        .iter()
        .zip(&in_cols)
        .map(|(s, c)| Accumulator::new(s.func, c, &s.column, &groups, &dicts))
        .collect::<DfResult<Vec<_>>>()?;

    // Accumulator-major: one tight pass over `row_gids` per accumulator
    // (re-reading the 4-byte gid stream is cheaper than per-row dispatch).
    for acc in &mut accs {
        acc.accumulate(&groups.row_gids);
    }

    let mut pairs: Vec<(String, Column)> = Vec::with_capacity(keys.len() + specs.len());
    for k in keys {
        pairs.push((k.to_string(), df.column(k)?.take(&groups.repr_rows)));
    }
    for (spec, acc) in specs.iter().zip(accs) {
        pairs.push((spec.output.clone(), acc.finish()?));
    }
    DataFrame::new(pairs)
}

/// Enforces whole-frame aggregate semantics on a *final* aggregate output:
/// with no group keys the result is exactly one row, so an empty result is
/// padded with the fold-over-zero-rows defaults (sum 0, count 0, otherwise
/// null), keeping each output column's dtype.
fn pad_whole_frame_agg(agged: DataFrame, keys: &[&str], specs: &[AggSpec]) -> DfResult<DataFrame> {
    if !keys.is_empty() || agged.num_rows() > 0 {
        return Ok(agged);
    }
    let mut pairs: Vec<(String, Column)> = Vec::with_capacity(specs.len());
    for s in specs {
        let dtype = agged.column(&s.output)?.data_type();
        let scalar = match s.func {
            AggFunc::Sum => match dtype {
                DataType::Float64 => crate::scalar::Scalar::Float(0.0),
                DataType::Date => crate::scalar::Scalar::Date(0),
                _ => crate::scalar::Scalar::Int(0),
            },
            AggFunc::Count | AggFunc::Nunique => crate::scalar::Scalar::Int(0),
            AggFunc::Mean | AggFunc::Min | AggFunc::Max | AggFunc::First => {
                crate::scalar::Scalar::Null
            }
        };
        pairs.push((s.output.clone(), Column::full(1, &scalar, dtype)));
    }
    DataFrame::new(pairs)
}

// ---------------------------------------------------------------------------
// map-combine-reduce decomposition
// ---------------------------------------------------------------------------

/// State-column suffixes used by the distributed decomposition.
const SUM_SUFFIX: &str = "__sum";
const COUNT_SUFFIX: &str = "__cnt";

/// Returns the specs whose partial state is expressible as fixed columns.
/// `Nunique` is not; the tiling layer aggregates it in one pass per shuffle
/// partition.
pub fn is_decomposable(specs: &[AggSpec]) -> bool {
    specs.iter().all(|s| s.func != AggFunc::Nunique)
}

/// Map stage: per-chunk partial aggregation, emitting state columns.
pub fn groupby_map(df: &DataFrame, keys: &[&str], specs: &[AggSpec]) -> DfResult<DataFrame> {
    let mut map_specs = Vec::new();
    for s in specs {
        match s.func {
            AggFunc::Sum => map_specs.push(AggSpec::new(
                &s.column,
                AggFunc::Sum,
                format!("{}{SUM_SUFFIX}", s.output),
            )),
            AggFunc::Count => map_specs.push(AggSpec::new(
                &s.column,
                AggFunc::Count,
                format!("{}{COUNT_SUFFIX}", s.output),
            )),
            AggFunc::Min => map_specs.push(AggSpec::new(&s.column, AggFunc::Min, s.output.clone())),
            AggFunc::Max => map_specs.push(AggSpec::new(&s.column, AggFunc::Max, s.output.clone())),
            AggFunc::First => {
                map_specs.push(AggSpec::new(&s.column, AggFunc::First, s.output.clone()))
            }
            AggFunc::Mean => {
                map_specs.push(AggSpec::new(
                    &s.column,
                    AggFunc::Sum,
                    format!("{}{SUM_SUFFIX}", s.output),
                ));
                map_specs.push(AggSpec::new(
                    &s.column,
                    AggFunc::Count,
                    format!("{}{COUNT_SUFFIX}", s.output),
                ));
            }
            AggFunc::Nunique => {
                return Err(DfError::Unsupported(
                    "nunique is not column-decomposable; aggregate it in one pass".into(),
                ))
            }
        }
    }
    groupby_agg_raw(df, keys, &map_specs)
}

/// Combine stage: merges concatenated partial states into one partial state.
/// Idempotent — may be applied along an arbitrary tree.
pub fn groupby_combine(
    partials: &DataFrame,
    keys: &[&str],
    specs: &[AggSpec],
) -> DfResult<DataFrame> {
    let mut combine_specs = Vec::new();
    for s in specs {
        match s.func {
            AggFunc::Sum => {
                let c = format!("{}{SUM_SUFFIX}", s.output);
                combine_specs.push(AggSpec::new(&c, AggFunc::Sum, c.clone()));
            }
            AggFunc::Count => {
                let c = format!("{}{COUNT_SUFFIX}", s.output);
                combine_specs.push(AggSpec::new(&c, AggFunc::Sum, c.clone()));
            }
            AggFunc::Min => {
                combine_specs.push(AggSpec::new(&s.output, AggFunc::Min, s.output.clone()))
            }
            AggFunc::Max => {
                combine_specs.push(AggSpec::new(&s.output, AggFunc::Max, s.output.clone()))
            }
            AggFunc::First => {
                combine_specs.push(AggSpec::new(&s.output, AggFunc::First, s.output.clone()))
            }
            AggFunc::Mean => {
                let sc = format!("{}{SUM_SUFFIX}", s.output);
                let cc = format!("{}{COUNT_SUFFIX}", s.output);
                combine_specs.push(AggSpec::new(&sc, AggFunc::Sum, sc.clone()));
                combine_specs.push(AggSpec::new(&cc, AggFunc::Sum, cc.clone()));
            }
            AggFunc::Nunique => return Err(DfError::Unsupported("nunique in combine".into())),
        }
    }
    groupby_agg_raw(partials, keys, &combine_specs)
}

/// Reduce stage: turns combined partial state into the final result.
pub fn groupby_finalize(
    partials: &DataFrame,
    keys: &[&str],
    specs: &[AggSpec],
) -> DfResult<DataFrame> {
    // One more combine pass (reduces whatever partials remain), then project.
    let combined = groupby_combine(partials, keys, specs)?;
    let mut pairs: Vec<(String, Column)> = Vec::new();
    for k in keys {
        pairs.push((k.to_string(), combined.column(k)?.clone()));
    }
    for s in specs {
        let out = match s.func {
            AggFunc::Sum => combined
                .column(&format!("{}{SUM_SUFFIX}", s.output))?
                .clone(),
            AggFunc::Count => combined
                .column(&format!("{}{COUNT_SUFFIX}", s.output))?
                .clone(),
            AggFunc::Min | AggFunc::Max | AggFunc::First => combined.column(&s.output)?.clone(),
            AggFunc::Mean => {
                let sums = combined
                    .column(&format!("{}{SUM_SUFFIX}", s.output))?
                    .cast(DataType::Float64)?;
                let counts = combined
                    .column(&format!("{}{COUNT_SUFFIX}", s.output))?
                    .cast(DataType::Float64)?;
                let sa = sums.as_f64()?;
                let ca = counts.as_f64()?;
                let vals: Vec<Option<f64>> = (0..sa.len())
                    .map(|i| match (sa.get(i), ca.get(i)) {
                        (Some(s), Some(c)) if c > 0.0 => Some(s / c),
                        _ => None,
                    })
                    .collect();
                Column::from_opt_f64(vals)
            }
            AggFunc::Nunique => return Err(DfError::Unsupported("nunique in finalize".into())),
        };
        pairs.push((s.output.clone(), out));
    }
    pad_whole_frame_agg(DataFrame::new(pairs)?, keys, specs)
}

/// `value_counts` over one column: result has the column plus `"count"`,
/// sorted descending by count (pandas semantics).
pub fn value_counts(df: &DataFrame, column: &str) -> DfResult<DataFrame> {
    let agg = groupby_agg(
        df,
        &[column],
        &[AggSpec::new(column, AggFunc::Count, "count")],
    )?;
    crate::sort::sort_by(&agg, &[("count", false)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    fn sales() -> DataFrame {
        DataFrame::new(vec![
            ("k", Column::from_str(["a", "b", "a", "a", "b"])),
            ("v", Column::from_i64(vec![1, 2, 3, 4, 5])),
            (
                "f",
                Column::from_opt_f64(vec![Some(1.0), None, Some(3.0), Some(5.0), Some(2.0)]),
            ),
        ])
        .unwrap()
    }

    fn get_group(df: &DataFrame, key: &str, col: &str) -> Scalar {
        let keys = df.column("k").unwrap();
        for i in 0..df.num_rows() {
            if keys.get(i) == Scalar::Str(key.into()) {
                return df.column(col).unwrap().get(i);
            }
        }
        panic!("group {key} not found")
    }

    #[test]
    fn basic_aggs() {
        let out = groupby_agg(
            &sales(),
            &["k"],
            &[
                AggSpec::new("v", AggFunc::Sum, "s"),
                AggSpec::new("v", AggFunc::Min, "mn"),
                AggSpec::new("v", AggFunc::Max, "mx"),
                AggSpec::new("v", AggFunc::Count, "c"),
                AggSpec::new("f", AggFunc::Mean, "m"),
                AggSpec::new("v", AggFunc::First, "fst"),
                AggSpec::new("v", AggFunc::Nunique, "nu"),
            ],
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(get_group(&out, "a", "s"), Scalar::Int(8));
        assert_eq!(get_group(&out, "a", "mn"), Scalar::Int(1));
        assert_eq!(get_group(&out, "a", "mx"), Scalar::Int(4));
        assert_eq!(get_group(&out, "a", "c"), Scalar::Int(3));
        assert_eq!(get_group(&out, "a", "m"), Scalar::Float(3.0));
        assert_eq!(get_group(&out, "b", "m"), Scalar::Float(2.0)); // null skipped
        assert_eq!(get_group(&out, "a", "fst"), Scalar::Int(1));
        assert_eq!(get_group(&out, "a", "nu"), Scalar::Int(3));
    }

    #[test]
    fn null_keys_dropped() {
        let df = DataFrame::new(vec![
            ("k", Column::from_opt_i64(vec![Some(1), None, Some(1)])),
            ("v", Column::from_i64(vec![10, 20, 30])),
        ])
        .unwrap();
        let out = groupby_agg(&df, &["k"], &[AggSpec::new("v", AggFunc::Sum, "s")]).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.column("s").unwrap().get(0), Scalar::Int(40));
    }

    #[test]
    fn multi_key_groupby() {
        let df = DataFrame::new(vec![
            ("a", Column::from_i64(vec![1, 1, 2, 1])),
            ("b", Column::from_str(["x", "y", "x", "x"])),
            ("v", Column::from_i64(vec![1, 1, 1, 1])),
        ])
        .unwrap();
        let out = groupby_agg(&df, &["a", "b"], &[AggSpec::new("v", AggFunc::Count, "c")]).unwrap();
        assert_eq!(out.num_rows(), 3);
    }

    /// The distributed decomposition must equal the single-pass result for
    /// every decomposable function, across any chunking and tree shape.
    #[test]
    fn map_combine_finalize_equals_direct() {
        let df = sales();
        let specs = vec![
            AggSpec::new("v", AggFunc::Sum, "s"),
            AggSpec::new("f", AggFunc::Mean, "m"),
            AggSpec::new("v", AggFunc::Min, "mn"),
            AggSpec::new("v", AggFunc::Count, "c"),
        ];
        let direct = groupby_agg(&df, &["k"], &specs).unwrap();

        // chunk into 2+3 rows, map each, combine in a tree, finalize
        let c1 = df.slice(0, 2);
        let c2 = df.slice(2, 3);
        let p1 = groupby_map(&c1, &["k"], &specs).unwrap();
        let p2 = groupby_map(&c2, &["k"], &specs).unwrap();
        let both = DataFrame::concat(&[&p1, &p2]).unwrap();
        let combined = groupby_combine(&both, &["k"], &specs).unwrap();
        let out = groupby_finalize(&combined, &["k"], &specs).unwrap();

        let sorted_direct = crate::sort::sort_by(&direct, &[("k", true)]).unwrap();
        let sorted_out = crate::sort::sort_by(&out, &[("k", true)]).unwrap();
        assert_eq!(sorted_direct, sorted_out);
    }

    #[test]
    fn nunique_not_decomposable() {
        let specs = vec![AggSpec::new("v", AggFunc::Nunique, "nu")];
        assert!(!is_decomposable(&specs));
        assert!(groupby_map(&sales(), &["k"], &specs).is_err());
    }

    #[test]
    fn value_counts_sorted() {
        let out = value_counts(&sales(), "k").unwrap();
        assert_eq!(out.column("k").unwrap().get(0), Scalar::Str("a".into()));
        assert_eq!(out.column("count").unwrap().get(0), Scalar::Int(3));
    }

    #[test]
    fn empty_input() {
        let df = sales().head(0);
        let out = groupby_agg(&df, &["k"], &[AggSpec::new("v", AggFunc::Sum, "s")]).unwrap();
        assert_eq!(out.num_rows(), 0);
    }
}
