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
//! `nunique` has non-fixed-width partial state, so the tiling layer lowers it
//! to `distinct` + `count` instead (see `xorbits-core`); the single-pass path
//! here supports it directly.

use crate::column::{BoolArr, Column, PrimArr, NO_ROW};
use crate::error::{DfError, DfResult};
use crate::frame::DataFrame;
use crate::hash::{FxHashMap, FxHashSet};
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
struct Groups {
    /// Row index (into the input) of each group's representative row.
    repr_rows: Vec<usize>,
    /// Group id of row `i`, or [`DROPPED`] when a key is null.
    row_gids: Vec<u32>,
}

/// Dictionary-encoded `Utf8` columns shared across one `groupby_agg` call
/// (key normalization and `nunique` accumulators reuse the same encode
/// pass instead of re-hashing the strings per consumer).
type DictCache<'a> = FxHashMap<&'a str, (PrimArr<i64>, usize)>;

/// Builds groups over `keys`, dropping rows with null keys (pandas default).
///
/// String keys are dictionary-encoded up front (via `dicts`), so equality
/// runs on dense `i64` codes — strings are hashed once during encoding and
/// never cloned or re-compared per candidate pair. (Codes are chunk-local,
/// which is fine here: grouping only needs within-frame equality.)
///
/// When every normalized key is `Int64` and the combined key range is
/// small (dict codes always are; ints like ids and buckets usually are),
/// group ids come from a dense direct-address table — no hashing and no
/// collision chains at all. Wide or non-integer keys fall back to the
/// hash table with an `eq_at` collision check.
fn build_groups(df: &DataFrame, keys: &[&str], dicts: &DictCache) -> DfResult<Groups> {
    let n = df.num_rows();
    let key_cols: Vec<Column> = keys
        .iter()
        .map(|k| {
            let c = df.column(k)?;
            Ok(match c {
                Column::Utf8(_) => {
                    Column::Int64(dicts[*k].0.clone()) // Arc bump, not a copy
                }
                other => other.clone(), // Arc bump, not a copy
            })
        })
        .collect::<DfResult<Vec<_>>>()?;

    if let Some(groups) = dense_int_groups(&key_cols, n) {
        return Ok(groups);
    }

    let mut hashes = vec![0u64; n];
    for c in &key_cols {
        c.hash_combine(&mut hashes);
    }
    let mut table: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    let mut repr_rows = Vec::new();
    let mut row_gids: Vec<u32> = Vec::with_capacity(n);
    crate::mem::advise_huge(row_gids.as_ptr(), n);
    'rows: for (i, &h) in hashes.iter().enumerate() {
        if key_cols.iter().any(|c| !c.is_valid(i)) {
            row_gids.push(DROPPED); // pandas groupby(dropna=True)
            continue;
        }
        let bucket = table.entry(h).or_default();
        for &gid in bucket.iter() {
            let j = repr_rows[gid as usize];
            if key_cols.iter().all(|c| c.eq_at(i, c, j)) {
                row_gids.push(gid);
                continue 'rows;
            }
        }
        let gid = repr_rows.len() as u32;
        repr_rows.push(i);
        bucket.push(gid);
        row_gids.push(gid);
    }
    Ok(Groups {
        repr_rows,
        row_gids,
    })
}

/// Widest combined key range the dense direct-address grouping table
/// accepts (slots are 4 bytes, so this caps the table at 8 MiB).
const DENSE_GROUP_LIMIT: u128 = 1 << 21;

/// Direct-address grouping for all-`Int64` key tuples with a small
/// combined value range. Returns `None` when the keys don't qualify.
fn dense_int_groups(key_cols: &[Column], n: usize) -> Option<Groups> {
    let arrs: Vec<&PrimArr<i64>> = key_cols
        .iter()
        .map(|c| match c {
            Column::Int64(a) => Some(a),
            _ => None,
        })
        .collect::<Option<_>>()?;

    // per-key value range over valid rows
    let mut bounds = Vec::with_capacity(arrs.len());
    for a in &arrs {
        let (mut mn, mut mx) = (i64::MAX, i64::MIN);
        match &a.validity {
            None => {
                for &v in a.values.as_slice() {
                    mn = mn.min(v);
                    mx = mx.max(v);
                }
            }
            Some(_) => {
                for i in 0..a.len() {
                    if a.is_valid(i) {
                        let v = a.values[i];
                        mn = mn.min(v);
                        mx = mx.max(v);
                    }
                }
            }
        }
        if mn > mx {
            // a key column with no valid values drops every row
            return Some(Groups {
                repr_rows: Vec::new(),
                row_gids: vec![DROPPED; n],
            });
        }
        bounds.push((mn, mx));
    }

    let mut width: u128 = 1;
    for &(mn, mx) in &bounds {
        width = width.checked_mul((mx as i128 - mn as i128 + 1) as u128)?;
        if width > DENSE_GROUP_LIMIT {
            return None;
        }
    }

    // row-major strides over the per-key ranges
    let mut strides = vec![1usize; arrs.len()];
    for k in (0..arrs.len().saturating_sub(1)).rev() {
        let (mn, mx) = bounds[k + 1];
        strides[k] = strides[k + 1] * ((mx - mn + 1) as usize);
    }

    let mut table: Vec<u32> = vec![u32::MAX; width as usize];
    crate::mem::advise_huge(table.as_ptr(), table.len());
    let mut repr_rows = Vec::new();
    let mut row_gids: Vec<u32> = Vec::with_capacity(n);
    crate::mem::advise_huge(row_gids.as_ptr(), n);
    if let [a] = arrs.as_slice() {
        if a.validity.is_none() {
            // single null-free key: the common shuffle/groupby shape
            let mn = bounds[0].0;
            for (i, &v) in a.values.as_slice().iter().enumerate() {
                let slot = &mut table[(v - mn) as usize];
                if *slot == u32::MAX {
                    *slot = repr_rows.len() as u32;
                    repr_rows.push(i);
                }
                row_gids.push(*slot);
            }
            return Some(Groups {
                repr_rows,
                row_gids,
            });
        }
    }
    'rows: for i in 0..n {
        let mut code = 0usize;
        for (k, a) in arrs.iter().enumerate() {
            if !a.is_valid(i) {
                row_gids.push(DROPPED);
                continue 'rows;
            }
            code += (a.values[i] - bounds[k].0) as usize * strides[k];
        }
        let slot = &mut table[code];
        if *slot == u32::MAX {
            *slot = repr_rows.len() as u32;
            repr_rows.push(i);
        }
        row_gids.push(*slot);
    }
    Some(Groups {
        repr_rows,
        row_gids,
    })
}

/// Typed read-only numeric view over a column, for sum/mean accumulation.
/// Reads go straight to the underlying buffers — no `Scalar` per row.
enum NumView<'a> {
    I(&'a PrimArr<i64>),
    F(&'a PrimArr<f64>),
    D(&'a PrimArr<i32>),
    B(&'a BoolArr),
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

    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        match self {
            NumView::I(a) => a.is_valid(i),
            NumView::F(a) => a.is_valid(i),
            NumView::D(a) => a.is_valid(i),
            NumView::B(a) => a.is_valid(i),
        }
    }

    /// Value of a *valid* row as f64 (bool ⇒ 0/1, matching pandas).
    #[inline]
    fn f64_at(&self, i: usize) -> f64 {
        match self {
            NumView::I(a) => a.values[i] as f64,
            NumView::F(a) => a.values[i],
            NumView::D(a) => a.values[i] as f64,
            NumView::B(a) => a.values.get(i) as u8 as f64,
        }
    }

    /// Value of a *valid* row as i64 (f64 via `to_bits` is handled by the
    /// dedicated nunique variant; this view is for i64-exact types only).
    #[inline]
    fn i64_at(&self, i: usize) -> i64 {
        match self {
            NumView::I(a) => a.values[i],
            NumView::D(a) => a.values[i] as i64,
            NumView::B(a) => a.values.get(i) as i64,
            NumView::F(_) => unreachable!("i64 view over float column"),
        }
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
    /// Sum over Int64/Bool; output Int64 (pandas: bool sums to int).
    SumInt(NumView<'a>, Vec<i64>),
    /// Sum over Float64; output Float64. Empty groups sum to 0 (pandas).
    SumFloat(&'a PrimArr<f64>, Vec<f64>),
    /// Sum over Date; output Date (legacy behavior of this kernel).
    SumDate(&'a PrimArr<i32>, Vec<i64>),
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
    /// Distinct count over i64-exact types (Int64/Date/Bool).
    NuniqueInt(NumView<'a>, Vec<FxHashSet<i64>>),
    /// Distinct count over floats (bit-pattern identity, as before).
    NuniqueFloat(&'a PrimArr<f64>, Vec<FxHashSet<u64>>),
    /// Distinct count over strings: dictionary-encode once, then mark
    /// dense codes in a (group × code) bitset — no `String` clones and no
    /// hash-set probes in the per-row loop.
    NuniqueDict {
        codes: PrimArr<i64>,
        ncodes: usize,
        ngroups: usize,
        seen: Vec<u64>,
    },
    /// Fallback for dictionaries too large for the bitset.
    NuniqueDictSet(PrimArr<i64>, Vec<FxHashSet<i64>>),
}

/// Largest (groups × dictionary size) the nunique bitset accepts (bits;
/// 1<<24 bits = 2 MiB).
const NUNIQUE_BITSET_LIMIT: usize = 1 << 24;

impl<'a> Accumulator<'a> {
    fn new(
        func: AggFunc,
        col: &'a Column,
        name: &str,
        ngroups: usize,
        dicts: &DictCache,
    ) -> DfResult<Accumulator<'a>> {
        let unsupported = |what: &str| {
            DfError::Unsupported(format!(
                "{what} aggregation over {} column",
                col.data_type()
            ))
        };
        Ok(match func {
            AggFunc::Sum => match col {
                Column::Float64(a) => Accumulator::SumFloat(a, vec![0.0; ngroups]),
                Column::Date(a) => Accumulator::SumDate(a, vec![0; ngroups]),
                Column::Int64(_) | Column::Bool(_) => Accumulator::SumInt(
                    NumView::new(col).ok_or_else(|| unsupported("sum"))?,
                    vec![0; ngroups],
                ),
                Column::Utf8(_) => return Err(unsupported("sum")),
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
            AggFunc::Mean => Accumulator::Mean(
                NumView::new(col).ok_or_else(|| unsupported("mean"))?,
                vec![0.0; ngroups],
                vec![0; ngroups],
            ),
            AggFunc::Nunique => match col {
                Column::Float64(a) => {
                    Accumulator::NuniqueFloat(a, vec![FxHashSet::default(); ngroups])
                }
                Column::Utf8(a) => {
                    let (codes, ncodes) = match dicts.get(name) {
                        Some((codes, ncodes)) => (codes.clone(), *ncodes),
                        None => a.dict_encode_full(),
                    };
                    if ngroups.saturating_mul(ncodes) <= NUNIQUE_BITSET_LIMIT {
                        Accumulator::NuniqueDict {
                            codes,
                            ncodes,
                            ngroups,
                            seen: vec![0u64; (ngroups * ncodes).div_ceil(64)],
                        }
                    } else {
                        Accumulator::NuniqueDictSet(codes, vec![FxHashSet::default(); ngroups])
                    }
                }
                _ => Accumulator::NuniqueInt(
                    NumView::new(col).ok_or_else(|| unsupported("nunique"))?,
                    vec![FxHashSet::default(); ngroups],
                ),
            },
        })
    }

    /// Folds `row` into group `gid`. Null rows are skipped (pandas).
    #[inline]
    fn update(&mut self, row: usize, gid: usize) {
        match self {
            Accumulator::SumInt(v, sums) => {
                if v.is_valid(row) {
                    sums[gid] = sums[gid].wrapping_add(v.i64_at(row));
                }
            }
            Accumulator::SumFloat(a, sums) => {
                if a.is_valid(row) {
                    sums[gid] += a.values[row];
                }
            }
            Accumulator::SumDate(a, sums) => {
                if a.is_valid(row) {
                    sums[gid] += a.values[row] as i64;
                }
            }
            Accumulator::BestRow { col, mode, best } => {
                if col.is_valid(row) {
                    let b = best[gid] as usize;
                    let replace = best[gid] == NO_ROW
                        || match mode {
                            BestMode::First => false,
                            BestMode::Min => col.cmp_valid(row, col, b) == Ordering::Less,
                            BestMode::Max => col.cmp_valid(row, col, b) == Ordering::Greater,
                        };
                    if replace {
                        best[gid] = row as u32;
                    }
                }
            }
            Accumulator::Count(col, counts) => {
                if col.is_valid(row) {
                    counts[gid] += 1;
                }
            }
            Accumulator::Mean(v, sums, counts) => {
                if v.is_valid(row) {
                    sums[gid] += v.f64_at(row);
                    counts[gid] += 1;
                }
            }
            Accumulator::NuniqueInt(v, sets) => {
                if v.is_valid(row) {
                    sets[gid].insert(v.i64_at(row));
                }
            }
            Accumulator::NuniqueFloat(a, sets) => {
                if a.is_valid(row) {
                    sets[gid].insert(a.values[row].to_bits());
                }
            }
            Accumulator::NuniqueDict {
                codes,
                ncodes,
                seen,
                ..
            } => {
                if codes.is_valid(row) {
                    let bit = gid * *ncodes + codes.values[row] as usize;
                    seen[bit >> 6] |= 1 << (bit & 63);
                }
            }
            Accumulator::NuniqueDictSet(codes, sets) => {
                if codes.is_valid(row) {
                    sets[gid].insert(codes.values[row]);
                }
            }
        }
    }

    /// One whole-column accumulation pass. `update` costs an enum dispatch
    /// per (row, accumulator), which dominates cheap kernels like sum and
    /// count at millions of rows — here the variant match (and, for null-free
    /// inputs, the validity check) is hoisted out of the per-row loop.
    fn accumulate(&mut self, row_gids: &[u32]) {
        match self {
            Accumulator::SumInt(NumView::I(a), sums) if a.validity.is_none() => {
                for (&gid, &v) in row_gids.iter().zip(a.values.as_slice()) {
                    if gid != DROPPED {
                        sums[gid as usize] = sums[gid as usize].wrapping_add(v);
                    }
                }
            }
            Accumulator::SumFloat(a, sums) if a.validity.is_none() => {
                for (&gid, &v) in row_gids.iter().zip(a.values.as_slice()) {
                    if gid != DROPPED {
                        sums[gid as usize] += v;
                    }
                }
            }
            Accumulator::Mean(NumView::I(a), sums, counts) if a.validity.is_none() => {
                for (&gid, &v) in row_gids.iter().zip(a.values.as_slice()) {
                    if gid != DROPPED {
                        sums[gid as usize] += v as f64;
                        counts[gid as usize] += 1;
                    }
                }
            }
            Accumulator::Mean(NumView::F(a), sums, counts) if a.validity.is_none() => {
                for (&gid, &v) in row_gids.iter().zip(a.values.as_slice()) {
                    if gid != DROPPED {
                        sums[gid as usize] += v;
                        counts[gid as usize] += 1;
                    }
                }
            }
            Accumulator::Count(col, counts) if col.validity().is_none() => {
                for &gid in row_gids {
                    if gid != DROPPED {
                        counts[gid as usize] += 1;
                    }
                }
            }
            _ => {
                for (row, &gid) in row_gids.iter().enumerate() {
                    if gid != DROPPED {
                        self.update(row, gid as usize);
                    }
                }
            }
        }
    }

    /// Materializes the output column for all groups at once.
    fn finish(self) -> DfResult<Column> {
        Ok(match self {
            Accumulator::SumInt(_, sums) => Column::from_i64(sums),
            Accumulator::SumFloat(_, sums) => Column::from_f64(sums),
            Accumulator::SumDate(_, sums) => {
                Column::from_date(sums.into_iter().map(|s| s as i32).collect())
            }
            Accumulator::BestRow { col, best, .. } => Column::gather(&[col], &best)?,
            Accumulator::Count(_, counts) => Column::from_i64(counts),
            Accumulator::Mean(_, sums, counts) => Column::from_opt_f64(
                sums.into_iter()
                    .zip(counts)
                    .map(|(s, c)| if c > 0 { Some(s / c as f64) } else { None })
                    .collect(),
            ),
            Accumulator::NuniqueInt(_, sets) => {
                Column::from_i64(sets.into_iter().map(|s| s.len() as i64).collect())
            }
            Accumulator::NuniqueFloat(_, sets) => {
                Column::from_i64(sets.into_iter().map(|s| s.len() as i64).collect())
            }
            Accumulator::NuniqueDict {
                ncodes,
                ngroups,
                seen,
                ..
            } => {
                // per-group popcount over its (unaligned) bit range
                let mut out = Vec::with_capacity(ngroups);
                for g in 0..ngroups {
                    let (s, e) = (g * ncodes, (g + 1) * ncodes);
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
            Accumulator::NuniqueDictSet(_, sets) => {
                Column::from_i64(sets.into_iter().map(|s| s.len() as i64).collect())
            }
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
    // Dictionary-encode each Utf8 column that grouping or nunique needs,
    // once — key normalization and accumulators share the encode pass.
    let mut dicts: DictCache = FxHashMap::default();
    let nunique_cols = specs
        .iter()
        .filter(|s| s.func == AggFunc::Nunique)
        .map(|s| s.column.as_str());
    for name in keys.iter().copied().chain(nunique_cols) {
        if let Column::Utf8(a) = df.column(name)? {
            dicts.entry(name).or_insert_with(|| a.dict_encode_full());
        }
    }

    let groups = build_groups(df, keys, &dicts)?;
    let ngroups = groups.repr_rows.len();

    let in_cols: Vec<&Column> = specs
        .iter()
        .map(|s| df.column(&s.column))
        .collect::<DfResult<Vec<_>>>()?;

    let mut accs: Vec<Accumulator> = specs
        .iter()
        .zip(&in_cols)
        .map(|(s, c)| Accumulator::new(s.func, c, &s.column, ngroups, &dicts))
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
/// `Nunique` is not; the tiling layer lowers it separately.
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
                    "nunique is not column-decomposable; lower to distinct+count".into(),
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
