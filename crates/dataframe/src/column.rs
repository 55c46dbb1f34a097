//! Columnar storage: typed arrays with optional validity bitmaps.
//!
//! All arrays sit on shared immutable [`Buffer`]s, so `slice` is an O(1)
//! view and `clone` is a pointer bump. Mutation goes through copy-on-write
//! (`Buffer::make_mut`); see the crate-level "Memory model" notes in
//! DESIGN.md for the sharing/accounting rules.

use crate::bitmap::{pack, pack2, pack_idx, Bitmap, BitmapBuilder};
use crate::buffer::Buffer;
use crate::error::{DfError, DfResult};
use crate::hash::{combine, hash_bytes, FxHashSet, KeyTable};
use crate::scalar::{DataType, Scalar};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// A gather index with no source row: the row comes out null (a left
/// join's unmatched right side, a group with no best row).
pub const NO_ROW: u32 = u32::MAX;

/// A gather index: `usize` rows always exist, `u32` rows may be [`NO_ROW`].
pub(crate) trait RowId: Copy + Ord {
    fn row(self) -> Option<usize>;
}

impl RowId for usize {
    #[inline]
    fn row(self) -> Option<usize> {
        Some(self)
    }
}

impl RowId for u32 {
    #[inline]
    fn row(self) -> Option<usize> {
        (self != NO_ROW).then_some(self as usize)
    }
}

/// Resolves the `k`-th id, row `g` of parts laid end to end, to `(part,
/// row in part)`.
trait Locate: Copy {
    fn locate(self, k: usize, g: usize) -> (usize, usize);
}

/// Ids that all fall in one part, starting at row `base`.
#[derive(Clone, Copy)]
struct InPart {
    part: usize,
    base: usize,
}

impl Locate for InPart {
    #[inline]
    fn locate(self, _: usize, g: usize) -> (usize, usize) {
        (self.part, g - self.base)
    }
}

/// Ids resolved once, the `k`-th to `(part, row)` entry `k`.
#[derive(Clone, Copy)]
struct Located<'a>(&'a [(u32, u32)]);

impl Locate for Located<'_> {
    #[inline]
    fn locate(self, k: usize, _: usize) -> (usize, usize) {
        let (part, row) = self.0[k];
        (part as usize, row as usize)
    }
}

/// One stretch of a gather's output, in output order.
enum Seg<L> {
    /// Rows picked one by one: the ids `idx[range]`, resolved by `L`.
    Pick(Range<usize>, L),
    /// `len` consecutive rows of `part` from row `row`, moved as one run.
    Run { part: usize, row: usize, len: usize },
}

/// Shortest stretch of consecutive ids moved as a [`Seg::Run`]. Runs are
/// measured to pay (DESIGN §9); 4, 16 and 64 could not be told apart.
const MIN_RUN: usize = 16;

/// A gather of ids over parts laid end to end, planned once and reused for
/// every column of those parts (a join side's columns).
pub(crate) struct GatherPlan<'a, I> {
    idx: &'a [I],
    how: Plan,
}

enum Plan {
    /// Ascending ids (a probe side's rows, any one part's rows) fall in one
    /// part after the other: a segment per part, and a stretch of at least
    /// [`MIN_RUN`] consecutive ids moves as one run.
    Ascending(Vec<Seg<InPart>>),
    /// Ids in any order over several parts (a build side's rows), each
    /// resolved to `(part, row)` once.
    Scattered(Vec<(u32, u32)>),
}

impl<'a, I: RowId> GatherPlan<'a, I> {
    /// Plans gathering `idx` from parts of `lens` rows.
    pub(crate) fn new(lens: &[usize], idx: &'a [I]) -> Self {
        let mut starts = vec![0];
        for len in lens {
            starts.push(starts[starts.len() - 1] + len);
        }
        if lens.len() > 1 && !idx.is_sorted() {
            // a branch-free search per id: the parts ending at or before
            // it (an empty part ends where it starts, so is never picked)
            let ends = &starts[1..];
            let locate = |g: usize| {
                let (mut base, mut size) = (0, ends.len());
                while size > 1 {
                    let half = size / 2;
                    let past = ends[base + half] <= g;
                    base = std::hint::select_unpredictable(past, base + half, base);
                    size -= half;
                }
                let part = base + usize::from(ends[base] <= g);
                (part as u32, (g - starts[part]) as u32)
            };
            let located = idx.iter().map(|g| g.row().map_or((0, 0), locate)).collect();
            let how = Plan::Scattered(located);
            return GatherPlan { idx, how };
        }
        let mut segs = Vec::new();
        let mut lo = 0;
        for part in 0..lens.len() {
            // the ids below the part's end (missing rows sort last); one
            // part takes every id
            let end = starts[part + 1];
            let hi = match lens.len() {
                1 => idx.len(),
                _ => idx[lo..].partition_point(|g| g.row().is_some_and(|g| g < end)) + lo,
            };
            let at = InPart {
                part,
                base: starts[part],
            };
            // runs are looked for a block of `MIN_RUN` ids at a time, and
            // one found grows past its block as far as it goes
            let run_len = |k: usize, g: usize| {
                let ids = idx[k..hi].iter().zip(g..);
                ids.take_while(|&(h, g)| h.row() == Some(g)).count()
            };
            let (mut pick, mut k) = (lo, lo);
            while k + MIN_RUN <= hi {
                match idx[k].row().map(|g| (g, run_len(k, g))) {
                    Some((g, len)) if len >= MIN_RUN => {
                        segs.push(Seg::Pick(pick..k, at));
                        let row = g - at.base;
                        segs.push(Seg::Run { part, row, len });
                        k += len;
                        pick = k;
                    }
                    _ => k += MIN_RUN,
                }
            }
            segs.push(Seg::Pick(pick..hi, at));
            lo = hi;
        }
        segs.push(Seg::Pick(lo..idx.len(), InPart { part: 0, base: 0 }));
        let how = Plan::Ascending(segs);
        GatherPlan { idx, how }
    }
}

/// The validity of a gather under construction: built from the first row
/// when a source part carries nulls, else from the first missing row
/// (every row before it was valid), else never.
struct Validity {
    bits: Option<BitmapBuilder>,
    capacity: usize,
}

impl Validity {
    fn new(tracked: bool, capacity: usize) -> Validity {
        Validity {
            bits: tracked.then(|| BitmapBuilder::with_capacity(capacity)),
            capacity,
        }
    }

    /// Records a source row, whose validity `valid` reads.
    #[inline]
    fn push(&mut self, valid: impl FnOnce() -> bool) {
        if let Some(bits) = &mut self.bits {
            bits.push(valid());
        }
    }

    /// Records `len` source rows of `src` from `row`.
    fn push_run(&mut self, src: Option<&Bitmap>, row: usize, len: usize) {
        if let Some(bits) = &mut self.bits {
            for r in row..row + len {
                bits.push(src.is_none_or(|v| v.get(r)));
            }
        }
    }

    /// Records a missing row, the `row`-th of the output.
    fn miss(&mut self, row: usize) {
        let capacity = self.capacity;
        self.bits
            .get_or_insert_with(|| BitmapBuilder::with_set(row, capacity))
            .push(false);
    }

    /// Whatever was built, all-set or not.
    fn finish(self) -> Option<Bitmap> {
        self.bits.map(BitmapBuilder::finish)
    }

    /// What was built, if some row came out null.
    fn finish_if_null(self) -> Option<Bitmap> {
        self.bits.and_then(BitmapBuilder::finish_validity)
    }
}

/// Copies `src[s..e]` to `dst`: a span of at most 8 bytes as one
/// unaligned 8-byte load and store when `wide` allows writing 8 bytes at
/// `dst` and 8 bytes exist at `s`, any other span as one memcpy.
///
/// # Safety
/// `dst` must be valid for `e - s` bytes, and for 8 when `wide`, and must
/// not overlap `src`.
#[inline]
unsafe fn copy_span(src: &[u8], s: usize, e: usize, dst: *mut u8, wide: bool) {
    let len = e - s;
    if len <= 8 && wide && s + 8 <= src.len() {
        let w = src.as_ptr().add(s).cast::<[u8; 8]>().read_unaligned();
        dst.cast::<[u8; 8]>().write_unaligned(w);
    } else {
        std::ptr::copy_nonoverlapping(src.as_ptr().add(s), dst, len);
    }
}

/// A string gather's output under construction: a byte buffer sized to
/// the `total` bytes the rows hold (plus 8 bytes of slack for the short
/// copy's wide store), filled through a cursor, with offsets and validity.
struct StrOut {
    data: Vec<u8>,
    total: usize,
    offsets: Vec<u32>,
    validity: Validity,
}

impl StrOut {
    fn new(total: usize, rows: usize, tracked: bool) -> StrOut {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        StrOut {
            data: Vec::with_capacity(total + 8),
            total,
            offsets,
            validity: Validity::new(tracked, rows),
        }
    }

    /// Bytes written so far.
    fn pos(&self) -> usize {
        self.offsets[self.offsets.len() - 1] as usize
    }

    /// Appends one row: the bytes `src[s..e]`, or null.
    #[inline]
    fn row(&mut self, bytes: Option<(&[u8], usize, usize)>) {
        let pos = self.pos();
        let end = match bytes {
            Some((src, s, e)) => {
                assert!(
                    pos + e - s <= self.total,
                    "gather spans outgrew their sizing pass"
                );
                // SAFETY: `pos + 8 <= total + 8`, the capacity, and
                // `src` is another allocation.
                unsafe { copy_span(src, s, e, self.data.as_mut_ptr().add(pos), true) };
                self.validity.push(|| true);
                pos + e - s
            }
            None => {
                self.validity.push(|| false);
                pos
            }
        };
        self.offsets.push(end as u32);
    }

    /// Appends a missing row: null.
    fn missing(&mut self) {
        self.validity.miss(self.offsets.len() - 1);
        self.offsets.push(self.pos() as u32);
    }

    /// Appends `len` valid rows of a part at once: its bytes from row
    /// `row` on are one copy, its offsets one shift.
    fn run(&mut self, src: &[u8], offs: &[u32], row: usize, len: usize) {
        let (pos, first) = (self.pos(), offs[row]);
        let bytes = &src[first as usize..offs[row + len] as usize];
        assert!(
            pos + bytes.len() <= self.total,
            "gather spans outgrew their sizing pass"
        );
        // SAFETY: in bounds of the capacity (checked above), and `src` is
        // another allocation.
        unsafe {
            let dst = self.data.as_mut_ptr().add(pos);
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, bytes.len());
        }
        let shift = |o: u32| (o - first) + pos as u32;
        self.offsets
            .extend(offs[row + 1..=row + len].iter().map(|&o| shift(o)));
        self.validity.push_run(None, row, len);
    }

    fn finish(mut self) -> Plain {
        assert_eq!(
            self.pos(),
            self.total,
            "gather spans changed between passes"
        );
        // SAFETY: bytes `0..total` were written.
        unsafe { self.data.set_len(self.total) };
        Plain::new(self.data, self.offsets, self.validity.finish_if_null())
    }
}

/// A primitive array: contiguous values plus an optional null bitmap
/// (absent bitmap ⇒ all values valid).
#[derive(Debug, Clone, PartialEq)]
pub struct PrimArr<T> {
    /// The value buffer. Slots for null rows hold an unspecified value.
    pub values: Buffer<T>,
    /// Validity bitmap; `None` means no nulls.
    pub validity: Option<Bitmap>,
}

impl<T: Copy + Default> PrimArr<T> {
    /// All-valid array from values.
    pub fn new(values: Vec<T>) -> Self {
        PrimArr {
            values: Buffer::from_vec(values),
            validity: None,
        }
    }

    /// Array from optional values; `None` becomes null.
    pub fn from_options(values: Vec<Option<T>>) -> Self {
        let validity = Bitmap::from_iter(values.iter().map(|v| v.is_some()));
        let values = values.into_iter().map(|v| v.unwrap_or_default()).collect();
        if validity.count_set() == validity.len() {
            PrimArr {
                values,
                validity: None,
            }
        } else {
            PrimArr {
                values,
                validity: Some(validity),
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Validity of row `i`.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Value at row `i` (`None` when null).
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        if self.is_valid(i) {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// Rows `idx` of `parts` laid end to end (see [`Column::gather`]). A
    /// null slot's value is copied like any other; a missing row holds
    /// `T::default()`.
    fn gather<I: RowId, L: Locate>(parts: &[&Self], idx: &[I], segs: &[Seg<L>]) -> Self {
        let vals: Vec<&[T]> = parts.iter().map(|p| p.values.as_slice()).collect();
        let mut validity = Validity::new(parts.iter().any(|p| p.validity.is_some()), idx.len());
        let mut values = Vec::with_capacity(idx.len());
        for seg in segs {
            match *seg {
                Seg::Pick(ref ids, loc) => {
                    let first = ids.start;
                    values.extend(idx[ids.clone()].iter().enumerate().map(
                        |(k, &g)| match g.row() {
                            Some(g) => {
                                let (p, r) = loc.locate(first + k, g);
                                validity.push(|| parts[p].is_valid(r));
                                vals[p][r]
                            }
                            None => {
                                validity.miss(first + k);
                                T::default()
                            }
                        },
                    ));
                }
                Seg::Run { part, row, len } => {
                    values.extend_from_slice(&vals[part][row..row + len]);
                    validity.push_run(parts[part].validity.as_ref(), row, len);
                }
            }
        }
        PrimArr {
            values: Buffer::from_vec(values),
            validity: validity.finish(),
        }
    }

    /// Scatter into `counts.len()` partitions: row `i` goes to partition
    /// `pids[i]`. Single pass over the input, writing straight into one
    /// contiguous arena laid out partition-by-partition; each output is a
    /// zero-copy [`Buffer`] slice of it. One allocation total (instead of
    /// one per partition) keeps first-touch fault cost and allocator
    /// traffic proportional to data size, not partition count.
    fn scatter(&self, pids: &[u32], counts: &[usize]) -> Vec<Self> {
        let vals = self.values.as_slice();
        let n = vals.len();
        let mut starts: Vec<usize> = Vec::with_capacity(counts.len() + 1);
        starts.push(0);
        for &c in counts {
            starts.push(starts.last().unwrap() + c);
        }
        let mut arena: Vec<T> = Vec::with_capacity(n);
        crate::mem::advise_huge(arena.as_ptr(), n);
        // Raw write cursors into each partition's arena region. The caller
        // contract (`counts[p]` = number of `i` with `pids[i] == p`) means
        // each cursor advances exactly `counts[p]` slots, so the writes
        // stay inside the region and `set_len` exposes only initialized
        // memory.
        let base = arena.as_mut_ptr();
        // SAFETY: `starts[p] <= n` by construction.
        let mut curs: Vec<*mut T> = starts[..counts.len()]
            .iter()
            .map(|&s| unsafe { base.add(s) })
            .collect();
        let mut vbs: Option<Vec<BitmapBuilder>> = self.validity.as_ref().map(|_| {
            counts
                .iter()
                .map(|&c| BitmapBuilder::with_capacity(c))
                .collect()
        });
        match &self.validity {
            None => {
                for (&p, &v) in pids.iter().zip(vals) {
                    // SAFETY: `p < counts.len()` and per-partition writes
                    // are bounded by `counts[p]` (see above).
                    unsafe {
                        let c = curs.get_unchecked_mut(p as usize);
                        c.write(v);
                        *c = c.add(1);
                    }
                }
            }
            Some(valid) => {
                let vbs = vbs.as_mut().expect("builders exist when validity does");
                for (i, (&p, &v)) in pids.iter().zip(vals).enumerate() {
                    // SAFETY: same bounds argument as the null-free arm.
                    unsafe {
                        let c = curs.get_unchecked_mut(p as usize);
                        c.write(v);
                        *c = c.add(1);
                    }
                    vbs[p as usize].push(valid.get(i));
                }
            }
        }
        // SAFETY: every row was written exactly once (counts sum to n).
        unsafe { arena.set_len(n) };
        let arena = Buffer::from_vec(arena);
        let mut vbs = vbs.map(|v| v.into_iter());
        counts
            .iter()
            .enumerate()
            .map(|(p, &c)| PrimArr {
                values: arena.slice(starts[p], c),
                validity: vbs.as_mut().and_then(|it| {
                    it.next()
                        .expect("one builder per partition")
                        .finish_validity()
                }),
            })
            .collect()
    }

    /// Compaction a mask word at a time into an exactly sized buffer: an
    /// all-set word copies its 64 values as one run, an empty one is
    /// skipped, any other walks its set bits.
    fn filter(&self, mask: &Bitmap) -> Self {
        let vals = self.values.as_slice();
        let mut values = Vec::with_capacity(mask.count_set());
        for wi in 0..mask.num_words() {
            let base = wi * 64;
            match mask.word(wi) {
                0 => {}
                u64::MAX => values.extend_from_slice(&vals[base..base + 64]),
                mut m => {
                    while m != 0 {
                        values.push(vals[base + m.trailing_zeros() as usize]);
                        m &= m - 1;
                    }
                }
            }
        }
        let validity = self.validity.as_ref().map(|v| v.filter(mask));
        PrimArr {
            values: Buffer::from_vec(values),
            validity,
        }
    }

    /// O(1): both the value buffer and the validity bitmap are views.
    fn slice(&self, offset: usize, len: usize) -> Self {
        PrimArr {
            values: self.values.slice(offset, len),
            validity: self.validity.as_ref().map(|v| v.slice(offset, len)),
        }
    }

    /// Replaces null slots with `fill`, dropping the validity bitmap.
    /// Copy-on-write: an all-valid array is returned as a cheap clone.
    fn fillna(&self, fill: T) -> Self {
        match &self.validity {
            None => self.clone(),
            Some(validity) => {
                let mut values = self.values.clone();
                let vs = values.make_mut();
                for i in validity.not().set_indices() {
                    vs[i] = fill;
                }
                PrimArr {
                    values,
                    validity: None,
                }
            }
        }
    }

    /// Drops an all-set validity bitmap.
    fn nulls_only(mut self) -> Self {
        self.validity = if_null(self.validity);
        self
    }

    /// Copies any buffer that retains more than `slack ×` its view.
    fn compact(&mut self, slack: f64) -> bool {
        let mut changed = self.values.compact(slack);
        if let Some(v) = &mut self.validity {
            changed |= v.compact(slack);
        }
        changed
    }

    /// Vertical concatenation; a validity bitmap when some part has one.
    fn concat(arrs: &[&Self]) -> Self {
        let total: usize = arrs.iter().map(|a| a.len()).sum();
        let mut values = Vec::with_capacity(total);
        for a in arrs {
            values.extend_from_slice(&a.values);
        }
        PrimArr {
            values: Buffer::from_vec(values),
            validity: concat_validity(arrs.iter().map(|a| (a.validity.as_ref(), a.len()))),
        }
    }
}

/// A UTF-8 string array, in one of two forms that read alike:
///
/// * **plain** — contiguous byte storage with Arrow-style offsets;
/// * **coded** — a `u32` code per row into a shared dictionary of distinct
///   values. [`StrArr::from_picks`] builds it. Row operations keep it when
///   their parts share a dictionary (the same one, or equal values in the
///   same order) and fall back to the plain form otherwise; predicates,
///   transforms, hashing and [`StrArr::dict_encode`] run once per
///   dictionary value instead of once per row.
///
/// No result outside this crate depends on the form: values,
/// [`Column::nbytes`] and the chunk codec's sizes and bytes are those of
/// the plain twin.
#[derive(Debug, Clone)]
pub struct StrArr(Form);

#[derive(Debug, Clone)]
enum Form {
    Plain(Plain),
    Coded(Coded),
}

/// The plain form. Offsets are *absolute* positions into the (always
/// full-view) byte buffer, so slicing only narrows the offsets view — both
/// buffers stay shared and the slice is O(1).
#[derive(Debug, Clone)]
struct Plain {
    data: Buffer<u8>,
    /// `len + 1` absolute offsets into `data`.
    offsets: Buffer<u32>,
    validity: Option<Bitmap>,
}

/// The coded form: the codes move through the primitive kernels, and the
/// dictionary is shared, never copied.
#[derive(Debug, Clone)]
struct Coded {
    /// Row `i` holds entry `codes[i]` of `dict`; the codes carry the rows'
    /// validity. A null row's code is unspecified: a gather's missing row
    /// holds 0, which an empty dictionary does not have.
    codes: PrimArr<u32>,
    /// Distinct values, plain and all valid.
    dict: Arc<StrArr>,
    /// Bytes of the valid rows' values before each 64-row block of the
    /// array the codes were first built as, so a slice's logical size
    /// (which every published chunk is asked for) costs at most two
    /// partial blocks, as a plain slice's costs two offsets.
    sums: Arc<[usize]>,
    /// The view's first row in the rows `sums` counts.
    base: usize,
}

/// `validity` when some row is null: the normal form every string result
/// takes.
fn if_null(validity: Option<Bitmap>) -> Option<Bitmap> {
    validity.filter(|v| v.count_set() < v.len())
}

impl Plain {
    fn new(data: Vec<u8>, offsets: Vec<u32>, validity: Option<Bitmap>) -> Plain {
        Plain {
            data: Buffer::from_vec(data),
            offsets: Buffer::from_vec(offsets),
            validity,
        }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Row `i`'s bytes as a string, ignoring validity.
    #[inline]
    fn value(&self, i: usize) -> &str {
        let (start, end) = self.byte_range(i);
        // SAFETY: `data` only ever holds concatenated UTF-8 strings and
        // `offsets` only ever points at their boundaries.
        unsafe { std::str::from_utf8_unchecked(&self.data.as_slice()[start..end]) }
    }

    /// Byte range of row `i` in `data`.
    #[inline]
    fn byte_range(&self, i: usize) -> (usize, usize) {
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    /// Rows `idx` of `parts` laid end to end (see [`Column::gather`]) into
    /// a fresh array. A first pass sums the kept bytes, so the byte buffer
    /// is sized exactly; the second copies each span straight out of its
    /// part's shared buffer, a short one as one 8-byte store into the
    /// buffer's 8 bytes of tail slack. A null or missing row keeps no
    /// bytes, and an all-valid result carries no validity bitmap.
    fn gather<I: RowId, L: Locate>(parts: &[&Self], idx: &[I], segs: &[Seg<L>]) -> Self {
        // every part's bytes, offsets and validity, borrowed once
        let views: Vec<(&[u8], &[u32], Option<&Bitmap>)> = parts
            .iter()
            .map(|p| (p.data.as_slice(), p.offsets.as_slice(), p.validity.as_ref()))
            .collect();
        // the byte span of row `r` of part `p`, none when the row is null
        let span = |p: usize, r: usize| {
            let (_, offs, valid) = views[p];
            let valid = valid.is_none_or(|v| v.get(r));
            valid.then(|| (offs[r] as usize, offs[r + 1] as usize))
        };
        let bytes = |(s, e): (usize, usize)| e - s;
        let total: usize = segs
            .iter()
            .map(|seg| match *seg {
                Seg::Pick(ref ids, loc) => {
                    let spans = idx[ids.clone()].iter().enumerate().filter_map(|(k, &g)| {
                        let (p, r) = loc.locate(ids.start + k, g.row()?);
                        span(p, r)
                    });
                    spans.map(bytes).sum()
                }
                Seg::Run { part, row, len } => match views[part] {
                    (_, offs, None) => (offs[row + len] - offs[row]) as usize,
                    _ => (row..row + len)
                        .filter_map(|r| span(part, r))
                        .map(bytes)
                        .sum(),
                },
            })
            .sum();
        let mut out = StrOut::new(total, idx.len(), parts.iter().any(|p| p.validity.is_some()));
        for seg in segs {
            match *seg {
                Seg::Pick(ref ids, loc) => {
                    for (k, &g) in idx[ids.clone()].iter().enumerate() {
                        match g.row() {
                            Some(g) => {
                                let (p, r) = loc.locate(ids.start + k, g);
                                out.row(span(p, r).map(|(s, e)| (views[p].0, s, e)));
                            }
                            None => out.missing(),
                        }
                    }
                }
                Seg::Run { part, row, len } => match views[part] {
                    (src, offs, None) => out.run(src, offs, row, len),
                    (src, ..) => {
                        for r in row..row + len {
                            out.row(span(part, r).map(|(s, e)| (src, s, e)));
                        }
                    }
                },
            }
        }
        out.finish()
    }

    /// Compaction a mask word at a time into buffers sized from the kept
    /// row count and the mean row width. Where the mask word and the
    /// validity word are both all-set, the 64 rows' bytes move as one copy
    /// and their offsets shift by one delta; elsewhere rows are copied one
    /// by one, and a null row keeps no bytes (as in `take`).
    fn filter(&self, mask: &Bitmap) -> Self {
        let kept = mask.count_set();
        let src = self.data.as_slice();
        let offs = self.offsets.as_slice();
        let mut data = Vec::with_capacity(self.viewed_bytes() * kept / self.len().max(1));
        let mut offsets = Vec::with_capacity(kept + 1);
        offsets.push(0u32);
        for wi in 0..mask.num_words() {
            let base = wi * 64;
            let mut m = mask.word(wi);
            let valid = self.validity.as_ref().map_or(u64::MAX, |v| v.word(wi));
            if m == u64::MAX && valid == u64::MAX {
                let (first, last) = (offs[base], offs[base + 64]);
                let shift = data.len() as u32;
                data.extend_from_slice(&src[first as usize..last as usize]);
                offsets.extend(
                    offs[base + 1..=base + 64]
                        .iter()
                        .map(|&o| o - first + shift),
                );
                continue;
            }
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                if (valid >> b) & 1 == 1 {
                    let i = base + b;
                    data.extend_from_slice(&src[offs[i] as usize..offs[i + 1] as usize]);
                }
                offsets.push(data.len() as u32);
                m &= m - 1;
            }
        }
        let validity = self.validity.as_ref().map(|v| v.filter(mask));
        Plain::new(data, offsets, if_null(validity))
    }

    /// Scatter into `counts.len()` partitions (see [`Column::scatter`]):
    /// per-partition byte/offset builders filled in one input pass.
    fn scatter(&self, pids: &[u32], counts: &[usize]) -> Vec<Self> {
        let src = self.data.as_slice();
        let nparts = counts.len();
        // Pass 1: exact byte budget per partition, so pass 2 can write
        // through raw cursors with no reallocation or capacity checks.
        let mut nbytes = vec![0usize; nparts];
        for (i, &p) in pids.iter().enumerate() {
            if self.is_valid(i) {
                let (s, e) = self.byte_range(i);
                nbytes[p as usize] += e - s;
            }
        }
        // All partitions share one byte arena (laid out partition by
        // partition) and one offsets arena; each output is a zero-copy
        // view, exactly like `slice`. The 8 bytes of tail slack let short
        // strings (the common case for key-ish columns) be copied as one
        // unaligned 8-byte store instead of a variable-length memcpy call.
        let total: usize = nbytes.iter().sum();
        let mut bstarts: Vec<usize> = Vec::with_capacity(nparts + 1);
        bstarts.push(0);
        for &b in &nbytes {
            bstarts.push(bstarts.last().unwrap() + b);
        }
        let mut data: Vec<u8> = Vec::with_capacity(total + 8);
        crate::mem::advise_huge(data.as_ptr(), total);
        let nrows = pids.len();
        let mut offsets: Vec<u32> = Vec::with_capacity(nrows + nparts);
        crate::mem::advise_huge(offsets.as_ptr(), nrows + nparts);
        let dbase = data.as_mut_ptr();
        let obase = offsets.as_mut_ptr();
        // Per-partition write cursors: bytes advance by row length within
        // `[bstarts[p], bstarts[p+1])`; offsets regions hold `counts[p]+1`
        // absolute positions into the shared arena, seeded with the
        // region's start. The wide 8-byte store must stay inside its own
        // partition's region (`wlims`) — partitions are written interleaved
        // in row order, so spilling into a neighbor region would clobber
        // bytes already written there. Only the final region may run into
        // the arena's tail slack.
        let mut dcurs: Vec<usize> = bstarts[..nparts].to_vec();
        let wlims: Vec<usize> = (1..=nparts)
            .map(|p| if p == nparts { total + 8 } else { bstarts[p] })
            .collect();
        let mut ocurs: Vec<*mut u32> = Vec::with_capacity(nparts);
        let mut ostarts: Vec<usize> = Vec::with_capacity(nparts);
        {
            let mut acc = 0usize;
            for p in 0..nparts {
                ostarts.push(acc);
                // SAFETY: offsets regions total `nrows + nparts`, the
                // arena's capacity.
                unsafe {
                    let c = obase.add(acc);
                    c.write(bstarts[p] as u32);
                    ocurs.push(c.add(1));
                }
                acc += counts[p] + 1;
            }
        }
        let mut vbs: Option<Vec<BitmapBuilder>> = self.validity.as_ref().map(|_| {
            counts
                .iter()
                .map(|&c| BitmapBuilder::with_capacity(c))
                .collect()
        });
        for (i, &p) in pids.iter().enumerate() {
            let p = p as usize;
            if self.is_valid(i) {
                let (s, e) = self.byte_range(i);
                // SAFETY: pass 1 sized partition `p`'s byte region to the
                // total length of the valid rows routed to it (+8 arena
                // tail slack for the wide store), so the cursor stays
                // in-bounds; source and destination buffers are disjoint.
                unsafe {
                    let wide = dcurs[p] + 8 <= wlims[p];
                    copy_span(src, s, e, dbase.add(dcurs[p]), wide);
                }
                dcurs[p] += e - s;
            }
            // SAFETY: each offsets region takes exactly `counts[p]` pushes
            // after its seeded start.
            unsafe {
                let c = ocurs.get_unchecked_mut(p);
                c.write(dcurs[p] as u32);
                *c = c.add(1);
            }
            if let Some(vbs) = &mut vbs {
                vbs[p].push(self.is_valid(i));
            }
        }
        // SAFETY: every byte region and offsets region was filled exactly.
        unsafe {
            data.set_len(total);
            offsets.set_len(nrows + nparts);
        }
        let data = Buffer::from_vec(data);
        let offsets = Buffer::from_vec(offsets);
        let mut vbs = vbs.map(|v| v.into_iter());
        counts
            .iter()
            .enumerate()
            .map(|(p, &c)| Plain {
                data: data.clone(),
                offsets: offsets.slice(ostarts[p], c + 1),
                validity: vbs.as_mut().and_then(|it| {
                    it.next()
                        .expect("one builder per partition")
                        .finish_validity()
                }),
            })
            .collect()
    }

    /// See [`StrArr::intern`]. Whether a row is skipped as null is decided
    /// once for the array, not per row.
    fn intern<C: From<u32>>(
        &self,
        keep_nulls: bool,
        table: &mut KeyTable,
        spans: &mut Vec<(u32, u32)>,
        codes: &mut Vec<C>,
    ) {
        let data = self.data.as_slice();
        let offs = self.offsets.as_slice();
        table.reset();
        spans.clear();
        codes.clear();
        let mut code_of = |s: u32, e: u32| {
            let bytes = &data[s as usize..e as usize];
            let code = table.find_or_insert(hash_bytes(data, s as usize, e as usize), |c| {
                let (s, e) = spans[c as usize];
                &data[s as usize..e as usize] == bytes
            });
            if code as usize == spans.len() {
                spans.push((s, e));
            }
            C::from(code)
        };
        match self.validity.as_ref().filter(|_| !keep_nulls) {
            None => codes.extend(offs.windows(2).map(|w| code_of(w[0], w[1]))),
            Some(valid) => codes.extend(offs.windows(2).enumerate().map(|(i, w)| {
                if valid.get(i) {
                    code_of(w[0], w[1])
                } else {
                    C::from(0)
                }
            })),
        }
    }

    /// Packs whether each row's bytes equal one of `probes`. With at most
    /// [`STR_SAME_LEN`] probes of any one length, a row is compared only
    /// with the probes of its length: their first 8 bytes as one word, and
    /// the bytes after them only when that agrees — so most rows are
    /// settled without a byte comparison or a hash. More probes of one
    /// length go through a hash set.
    fn member(&self, probes: &[&[u8]]) -> Vec<u64> {
        let (data, offs) = (self.data.as_slice(), self.offsets.as_slice());
        let longest = probes.iter().map(|p| p.len()).max().unwrap_or(0);
        let mut by_len: Vec<Vec<(u64, &[u8])>> = vec![Vec::new(); longest + 1];
        for p in probes {
            by_len[p.len()].push((head(p, 0, p.len()), &p[p.len().min(8)..]));
        }
        if by_len.iter().any(|ps| ps.len() > STR_SAME_LEN) {
            let set: FxHashSet<&[u8]> = probes.iter().copied().collect();
            return pack_idx(self.len(), |i| set.contains(self.value(i).as_bytes()));
        }
        pack_idx(self.len(), |i| {
            let (start, end) = (offs[i] as usize, offs[i + 1] as usize);
            let len = end - start;
            match by_len.get(len) {
                Some(ps) if !ps.is_empty() => {
                    let row_head = head(data, start, len);
                    ps.iter().any(|&(ph, tail)| {
                        ph == row_head && (len <= 8 || data[start + 8..end] == *tail)
                    })
                }
                _ => false,
            }
        })
    }

    /// O(1): narrows the offsets view; the byte buffer stays shared.
    fn slice(&self, offset: usize, len: usize) -> Self {
        Plain {
            data: self.data.clone(),
            offsets: self.offsets.slice(offset, len + 1),
            validity: self.validity.as_ref().map(|v| v.slice(offset, len)),
        }
    }

    /// Bytes referenced by the viewed rows (excludes unreferenced parts
    /// of a shared byte buffer).
    fn viewed_bytes(&self) -> usize {
        (self.offsets[self.len()] - self.offsets[0]) as usize
    }

    fn retained_nbytes(&self) -> usize {
        self.data.retained_nbytes()
            + self.offsets.retained_nbytes()
            + self.validity.as_ref().map_or(0, |v| v.retained_nbytes())
    }

    fn push_allocs(&self, out: &mut Vec<(usize, usize)>) {
        out.push((self.data.alloc_id(), self.data.retained_nbytes()));
        out.push((self.offsets.alloc_id(), self.offsets.retained_nbytes()));
        if let Some(v) = &self.validity {
            out.push((v.alloc_id(), v.retained_nbytes()));
        }
    }

    fn compact(&mut self, slack: f64) -> bool {
        let slack = slack.max(1.0);
        let mut changed = self.offsets.compact(slack);
        if let Some(v) = &mut self.validity {
            changed |= v.compact(slack);
        }
        let first = self.offsets[0] as usize;
        let last = self.offsets[self.len()] as usize;
        let viewed = last - first;
        if (self.data.retained_nbytes() as f64) > (viewed.max(1) as f64) * slack {
            let bytes = self.data.as_slice()[first..last].to_vec();
            self.data = Buffer::from_vec(bytes);
            if first != 0 {
                let rebased: Vec<u32> = self.offsets.iter().map(|&o| o - first as u32).collect();
                self.offsets = Buffer::from_vec(rebased);
            }
            changed = true;
        }
        changed
    }

    /// Bulk concatenation: referenced byte ranges appended, offsets rebased
    /// (parts may be views with non-zero base offsets).
    fn concat(parts: &[&Plain]) -> Plain {
        let total_rows: usize = parts.iter().map(|p| p.len()).sum();
        let total_bytes: usize = parts.iter().map(|p| p.viewed_bytes()).sum();
        let mut data = Vec::with_capacity(total_bytes);
        let mut offsets = Vec::with_capacity(total_rows + 1);
        offsets.push(0u32);
        for p in parts {
            let first = p.offsets[0];
            let last = p.offsets[p.len()];
            let base = data.len() as u32;
            data.extend_from_slice(&p.data.as_slice()[first as usize..last as usize]);
            offsets.extend(p.offsets[1..].iter().map(|o| o - first + base));
        }
        let validity = concat_validity(parts.iter().map(|p| (p.validity.as_ref(), p.len())));
        Plain::new(data, offsets, validity)
    }
}

/// The most probes of one byte length [`Plain::member`] compares a row
/// with. A row is compared with every probe of its length, so past some
/// count a hash set is cheaper. On 76k-row columns (Xeon, 2 vCPU) the hash
/// set costs 14–22 ns/row at any probe count; comparing costs 4–7 ns/row
/// for up to 4 two-byte probes of one length, and 17 ns/row for 4 probes
/// of one length that share their first 8 bytes, the worst case. Probes of
/// distinct lengths stay under 5 ns/row at any count.
const STR_SAME_LEN: usize = 4;

/// The first `min(len, 8)` bytes of `data[start..]` as a little-endian
/// word, zero above them: one unaligned load where 8 bytes exist.
#[inline(always)]
fn head(data: &[u8], start: usize, len: usize) -> u64 {
    match data.get(start..start + 8) {
        Some(w) => {
            let w = u64::from_le_bytes(w.try_into().expect("8 bytes"));
            if len >= 8 {
                w
            } else {
                w & ((1u64 << (len * 8)) - 1)
            }
        }
        None => {
            let mut w = [0u8; 8];
            let n = len.min(8);
            w[..n].copy_from_slice(&data[start..start + n]);
            u64::from_le_bytes(w)
        }
    }
}

/// The validity of parts laid end to end, given as `(validity, rows)`:
/// one word-level [`Bitmap::concat`] when some part has a bitmap, so an
/// all-set one carries over as it does in every other kernel.
fn concat_validity<'a>(
    parts: impl Iterator<Item = (Option<&'a Bitmap>, usize)> + Clone,
) -> Option<Bitmap> {
    if parts.clone().all(|(v, _)| v.is_none()) {
        return None;
    }
    let maps: Vec<Bitmap> = parts
        .map(|(v, len)| v.cloned().unwrap_or_else(|| Bitmap::new_set(len, true)))
        .collect();
    let refs: Vec<&Bitmap> = maps.iter().collect();
    Some(Bitmap::concat(&refs))
}

/// A dictionary's plain form.
fn plain_dict(dict: &StrArr) -> &Plain {
    match &dict.0 {
        Form::Plain(p) => p,
        Form::Coded(_) => unreachable!("a dictionary is plain"),
    }
}

impl Coded {
    /// Codes into `dict`, their block sums counted in one pass.
    fn new(codes: PrimArr<u32>, dict: Arc<StrArr>) -> Coded {
        let d = plain_dict(&dict);
        // a missing row's code 0 reads the 0 past an empty dictionary
        let lens: Vec<usize> = (0..d.len()).map(|c| d.value(c).len()).chain([0]).collect();
        let mut acc = 0;
        let blocks = codes.values.chunks(64).enumerate().map(|(b, block)| {
            acc += match codes.validity.as_ref().map_or(u64::MAX, |v| v.word(b)) {
                u64::MAX => block.iter().map(|&c| lens[c as usize]).sum::<usize>(),
                valid => (0..block.len())
                    .filter(|&k| (valid >> k) & 1 == 1)
                    .map(|k| lens[block[k] as usize])
                    .sum(),
            };
            acc
        });
        let sums = std::iter::once(0).chain(blocks).collect();
        Coded {
            codes,
            dict,
            sums,
            base: 0,
        }
    }

    /// The dictionary's plain form.
    fn dict(&self) -> &Plain {
        plain_dict(&self.dict)
    }

    #[inline]
    fn value(&self, i: usize) -> &str {
        if self.codes.is_valid(i) {
            self.dict().value(self.codes.values[i] as usize)
        } else {
            ""
        }
    }

    /// Packs, per row, the bit of `words` (a predicate packed over the
    /// dictionary) at the row's code: one table read per row.
    fn map_words(&self, mut words: Vec<u64>) -> Vec<u64> {
        // a missing row's code 0 reads a word an empty dictionary lacks
        words.push(0);
        pack(&self.codes.values, |c| {
            (words[c as usize >> 6] >> (c & 63)) & 1 == 1
        })
    }

    /// Bytes the valid rows' values hold: the whole blocks' from `sums`,
    /// the rows around them one by one.
    fn value_bytes(&self) -> usize {
        let (lo, hi) = (self.base, self.base + self.codes.len());
        let (first, last) = (lo.div_ceil(64), hi / 64);
        let bytes = |rows: Range<usize>| -> usize { rows.map(|i| self.value(i).len()).sum() };
        if first >= last {
            return bytes(0..hi - lo);
        }
        bytes(0..first * 64 - lo)
            + (self.sums[last] - self.sums[first])
            + bytes(last * 64 - lo..hi - lo)
    }

    /// [`StrArr::write_plain`] of the codes, in one pass over a region made
    /// at once: each row as one `W`-byte store of its value padded (every
    /// value fits `W`), or as its exact bytes when `W` is 0. A padded
    /// store's tail is overwritten by the next row; the region's last `W`
    /// bytes are the slack it needs, cut off at the end.
    fn write_plain<const W: usize>(&self, out: &mut Vec<u8>) {
        let d = self.dict();
        // per dictionary value its length and its bytes padded; a null
        // row's key is the empty entry past every value
        let (mut lens, mut padded) = ([0u32; MAX_DICT + 1], [[0u8; W]; MAX_DICT + 1]);
        for k in 0..d.len() {
            let v = d.value(k).as_bytes();
            lens[k] = v.len() as u32;
            if W > 0 {
                padded[k][..v.len()].copy_from_slice(v);
            }
        }
        let (n, total) = (self.codes.len(), self.value_bytes());
        let (start, bytes_at) = (out.len(), 4 * (n + 1) + 8);
        out.resize(start + bytes_at + total + W, 0);
        let region = &mut out[start..];
        region[4 * (n + 1)..bytes_at].copy_from_slice(&(total as u64).to_le_bytes());
        let (mut end, valid) = (0, self.codes.validity.as_ref());
        for (i, &k) in self.codes.values.iter().enumerate() {
            let k = match valid {
                Some(v) if !v.get(i) => MAX_DICT,
                _ => k as usize,
            };
            let at = bytes_at + end as usize;
            if W > 0 {
                region[at..at + W].copy_from_slice(&padded[k]);
            } else if k < d.len() {
                region[at..at + lens[k] as usize].copy_from_slice(d.value(k).as_bytes());
            }
            end += lens[k];
            region[4 * (i + 1)..4 * (i + 2)].copy_from_slice(&end.to_le_bytes());
        }
        assert_eq!(end as usize, total, "string bytes changed between passes");
        out.truncate(start + bytes_at + total);
    }

    /// Rows `offset..offset + len`, the dictionary and block sums shared.
    fn slice(&self, offset: usize, len: usize) -> Coded {
        Coded {
            codes: self.codes.slice(offset, len),
            dict: self.dict.clone(),
            sums: self.sums.clone(),
            base: self.base + offset,
        }
    }

    /// The plain twin: each valid row's value, a null row's none, and the
    /// codes' validity as it is.
    fn decode(&self) -> Plain {
        let n = self.codes.len();
        let mut data = Vec::with_capacity(self.value_bytes());
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for i in 0..n {
            data.extend_from_slice(self.value(i).as_bytes());
            offsets.push(data.len() as u32);
        }
        Plain::new(data, offsets, self.codes.validity.clone())
    }

    /// See [`StrArr::intern`]: a code's first occurrence numbers it, in an
    /// array on the stack, and a null row interned as a value is `""`'s.
    fn intern<C: From<u32>>(
        &self,
        keep_nulls: bool,
        spans: &mut Vec<(u32, u32)>,
        codes: &mut Vec<C>,
    ) {
        let d = self.dict();
        spans.clear();
        codes.clear();
        // `""`'s code, else one past the dictionary, whose span is empty
        let empty = (0..d.len())
            .find(|&c| d.value(c).is_empty())
            .unwrap_or(d.len());
        let span = |c: u32| match c as usize {
            c if c < d.len() => (d.offsets[c], d.offsets[c + 1]),
            _ => (0, 0),
        };
        let mut ids = [u32::MAX; MAX_DICT + 1];
        let mut id_of = |c: u32| {
            let id = &mut ids[c as usize];
            if *id == u32::MAX {
                *id = spans.len() as u32;
                spans.push(span(c));
            }
            C::from(*id)
        };
        let vals = self.codes.values.as_slice();
        match &self.codes.validity {
            None => codes.extend(vals.iter().map(|&c| id_of(c))),
            Some(valid) => codes.extend(vals.iter().zip(valid.iter()).map(|(&c, v)| match v {
                true => id_of(c),
                false if keep_nulls => id_of(empty as u32),
                false => C::from(0),
            })),
        }
    }
}

/// The most values a dictionary holds: [`StrArr::from_picks`] picks with
/// a `u8`, and a transform never adds values.
const MAX_DICT: usize = 256;

impl StrArr {
    fn plain(p: Plain) -> StrArr {
        StrArr(Form::Plain(p))
    }

    fn coded(codes: PrimArr<u32>, dict: Arc<StrArr>) -> StrArr {
        StrArr(Form::Coded(Coded::new(codes, dict)))
    }

    /// Builds from string slices, all valid.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<S: AsRef<str>, I: IntoIterator<Item = S>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut data = Vec::new();
        let mut offsets = Vec::with_capacity(iter.size_hint().0 + 1);
        offsets.push(0u32);
        for s in iter {
            data.extend_from_slice(s.as_ref().as_bytes());
            offsets.push(data.len() as u32);
        }
        StrArr::plain(Plain::new(data, offsets, None))
    }

    /// Builds from optional string slices.
    pub fn from_options<S: AsRef<str>, I: IntoIterator<Item = Option<S>>>(iter: I) -> Self {
        let mut data = Vec::new();
        let mut offsets = vec![0u32];
        let mut validity = BitmapBuilder::with_capacity(0);
        for s in iter {
            match s {
                Some(s) => {
                    data.extend_from_slice(s.as_ref().as_bytes());
                    validity.push(true);
                }
                None => validity.push(false),
            }
            offsets.push(data.len() as u32);
        }
        StrArr::plain(Plain::new(data, offsets, validity.finish_validity()))
    }

    /// Builds `rows` all-valid strings written in place: `write(i, text)`
    /// appends row `i`'s string to `text`, one buffer for the whole column
    /// reserved at `bytes`, so no row allocates a string of its own.
    pub fn from_writer(
        rows: usize,
        bytes: usize,
        mut write: impl FnMut(usize, &mut String),
    ) -> Self {
        let mut text = String::with_capacity(bytes);
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0u32);
        for i in 0..rows {
            write(i, &mut text);
            offsets.push(text.len() as u32);
        }
        StrArr::plain(Plain::new(text.into_bytes(), offsets, None))
    }

    /// All-valid strings each one of a few `options`: row `i` is
    /// `options[picks[i]]`. Built coded: the distinct options are the
    /// dictionary, and each row's code is written, not its bytes. A `u8`
    /// pick reaches only the first 256 options.
    pub fn from_picks(options: &[&str], picks: &[u8]) -> Self {
        let options = &options[..options.len().min(MAX_DICT)];
        let mut dict: Vec<&str> = Vec::with_capacity(options.len());
        let code_of: Vec<u32> = options
            .iter()
            .map(|o| {
                let c = dict.iter().position(|d| d == o).unwrap_or_else(|| {
                    dict.push(o);
                    dict.len() - 1
                });
                c as u32
            })
            .collect();
        let codes = picks.iter().map(|&p| code_of[p as usize]).collect();
        StrArr::coded(PrimArr::new(codes), Arc::new(StrArr::from_iter(dict)))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.0 {
            Form::Plain(p) => p.len(),
            Form::Coded(c) => c.codes.len(),
        }
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The validity bitmap; `None` means no nulls.
    pub fn validity(&self) -> Option<&Bitmap> {
        match &self.0 {
            Form::Plain(p) => p.validity.as_ref(),
            Form::Coded(c) => c.codes.validity.as_ref(),
        }
    }

    /// Validity of row `i`.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity().is_none_or(|v| v.get(i))
    }

    /// String at row `i` ignoring validity (null rows yield `""`).
    #[inline]
    pub fn value(&self, i: usize) -> &str {
        match &self.0 {
            Form::Plain(p) => p.value(i),
            Form::Coded(c) => c.value(i),
        }
    }

    /// String at row `i`, `None` when null.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        if self.is_valid(i) {
            Some(self.value(i))
        } else {
            None
        }
    }

    /// Iterator over all values (null ⇒ `None`).
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Appends the viewed rows' plain value region as the chunk codec lays
    /// it out: `len + 1` offsets rebased to 0, as little-endian `u32`s,
    /// the byte count as a little-endian `u64`, then the bytes, a null
    /// row's as [`Self::value`] reads them. A coded array takes each
    /// value's length from a table and copies a row as one fixed-width
    /// store of its value padded to the dictionary's longest (up to 64
    /// bytes).
    pub fn write_plain(&self, out: &mut Vec<u8>) {
        let c = match &self.0 {
            Form::Coded(c) => c,
            Form::Plain(p) => {
                let offs = p.offsets.as_slice();
                let (first, last) = (offs[0], offs[offs.len() - 1]);
                let at = out.len();
                out.resize(at + 4 * offs.len(), 0);
                for (dst, &o) in out[at..].chunks_exact_mut(4).zip(offs) {
                    dst.copy_from_slice(&(o - first).to_le_bytes());
                }
                out.extend_from_slice(&u64::from(last - first).to_le_bytes());
                let bytes = &p.data.as_slice()[first as usize..last as usize];
                return out.extend_from_slice(bytes);
            }
        };
        let d = c.dict();
        match (0..d.len()).map(|k| d.value(k).len()).max().unwrap_or(0) {
            0..=8 => c.write_plain::<8>(out),
            9..=16 => c.write_plain::<16>(out),
            17..=32 => c.write_plain::<32>(out),
            33..=64 => c.write_plain::<64>(out),
            _ => c.write_plain::<0>(out),
        }
    }

    /// Whether the array is in the coded form (for tests of the two forms).
    pub fn is_coded(&self) -> bool {
        matches!(self.0, Form::Coded(_))
    }

    /// The plain form: borrowed, or a coded array's decoded twin.
    fn to_plain(&self) -> Cow<'_, Plain> {
        match &self.0 {
            Form::Plain(p) => Cow::Borrowed(p),
            Form::Coded(c) => Cow::Owned(c.decode()),
        }
    }

    /// A coded array's codes, read in place (key packing); `None` for
    /// the plain form.
    pub(crate) fn codes(&self) -> Option<&PrimArr<u32>> {
        match &self.0 {
            Form::Coded(c) => Some(&c.codes),
            Form::Plain(_) => None,
        }
    }

    /// The dictionary every non-empty part is coded with (the same one,
    /// or equal values in the same order), if there is one.
    pub(crate) fn shared_dict<'a>(parts: &[&'a StrArr]) -> Option<&'a Arc<StrArr>> {
        let mut dict: Option<&Arc<StrArr>> = None;
        for p in parts.iter().filter(|p| !p.is_empty()) {
            let Form::Coded(c) = &p.0 else { return None };
            match dict {
                Some(d) if !Arc::ptr_eq(d, &c.dict) && **d != *c.dict => return None,
                Some(_) => {}
                None => dict = Some(&c.dict),
            }
        }
        dict
    }

    /// Every part's codes, an empty part of another form's as none (its
    /// validity kept).
    fn codes_of(parts: &[&StrArr]) -> Vec<PrimArr<u32>> {
        parts
            .iter()
            .map(|p| match &p.0 {
                Form::Coded(c) => c.codes.clone(),
                Form::Plain(p) => PrimArr {
                    values: Buffer::empty(),
                    validity: p.validity.clone(),
                },
            })
            .collect()
    }

    /// Every part's plain form.
    fn plains<'a>(parts: &[&'a StrArr]) -> Vec<Cow<'a, Plain>> {
        parts.iter().map(|p| p.to_plain()).collect()
    }

    /// Rows `idx` of `parts` laid end to end (see [`Column::gather`]): the
    /// codes' gather when the parts share a dictionary, else the plain one.
    fn gather<I: RowId, L: Locate>(parts: &[&Self], idx: &[I], segs: &[Seg<L>]) -> Self {
        if let Some(dict) = StrArr::shared_dict(parts) {
            let codes = StrArr::codes_of(parts);
            let codes: Vec<&PrimArr<u32>> = codes.iter().collect();
            let gathered = PrimArr::gather(&codes, idx, segs).nulls_only();
            return StrArr::coded(gathered, dict.clone());
        }
        let plains = StrArr::plains(parts);
        let plains: Vec<&Plain> = plains.iter().map(|p| p.as_ref()).collect();
        StrArr::plain(Plain::gather(&plains, idx, segs))
    }

    fn filter(&self, mask: &Bitmap) -> Self {
        match &self.0 {
            Form::Plain(p) => StrArr::plain(p.filter(mask)),
            Form::Coded(c) => StrArr::coded(c.codes.filter(mask).nulls_only(), c.dict.clone()),
        }
    }

    fn scatter(&self, pids: &[u32], counts: &[usize]) -> Vec<Self> {
        match &self.0 {
            Form::Plain(p) => p
                .scatter(pids, counts)
                .into_iter()
                .map(StrArr::plain)
                .collect(),
            Form::Coded(c) => c
                .codes
                .scatter(pids, counts)
                .into_iter()
                .map(|codes| StrArr::coded(codes, c.dict.clone()))
                .collect(),
        }
    }

    /// Dictionary-encodes the array: equal strings share an `i64` code and
    /// nulls stay null. Grouping and distinct-tracking run on the codes,
    /// so strings are never cloned or re-compared afterwards. A coded
    /// array's codes are its own (dictionary order, as sparse as the rows
    /// use them); a plain array is interned, dense in first-occurrence
    /// order.
    pub fn dict_encode(&self) -> PrimArr<i64> {
        match &self.0 {
            Form::Coded(c) => PrimArr {
                values: c.codes.values.iter().map(|&v| i64::from(v)).collect(),
                validity: c.codes.validity.clone(),
            },
            Form::Plain(p) => {
                let mut codes = Vec::with_capacity(p.len());
                crate::mem::advise_huge(codes.as_ptr(), p.len());
                p.intern(false, &mut KeyTable::default(), &mut Vec::new(), &mut codes);
                PrimArr {
                    values: Buffer::from_vec(codes),
                    validity: p.validity.clone(),
                }
            }
        }
    }

    /// The one string interner, for [`Self::dict_encode`] and the chunk
    /// codec: fills `codes` with a code per row, dense in first-occurrence
    /// order, and `spans` with each code's byte span in
    /// [`Self::data_buffer`]. With `keep_nulls` a null row is interned by
    /// its bytes like any other (the codec), a coded array's as `""`;
    /// without it, it gets code 0 and takes no code. `table` is reset and
    /// kept, so a warmed one interns without allocating. A coded array
    /// numbers its codes instead, without `table` or a hash.
    pub fn intern<C: From<u32>>(
        &self,
        keep_nulls: bool,
        table: &mut KeyTable,
        spans: &mut Vec<(u32, u32)>,
        codes: &mut Vec<C>,
    ) {
        match &self.0 {
            Form::Plain(p) => p.intern(keep_nulls, table, spans, codes),
            Form::Coded(c) => c.intern(keep_nulls, spans, codes),
        }
    }

    /// The byte buffer: the plain form's, or a coded array's dictionary's
    /// (the bytes [`Self::intern`]'s spans index; for the chunk codec).
    pub fn data_buffer(&self) -> &Buffer<u8> {
        match &self.0 {
            Form::Plain(p) => &p.data,
            Form::Coded(c) => &c.dict().data,
        }
    }

    /// Bytes the viewed rows' values hold in the plain form.
    pub fn value_bytes(&self) -> usize {
        match &self.0 {
            Form::Plain(p) => p.viewed_bytes(),
            Form::Coded(c) => c.value_bytes(),
        }
    }

    /// Reassembles an array from raw parts, validating every invariant the
    /// unsafe accessors rely on: at least one offset, offsets monotonically
    /// non-decreasing and in-bounds for `data`, and every span boundary a
    /// UTF-8 character boundary. This is the strict decode path of the
    /// chunk codec — `data` may be a zero-copy window into the read buffer.
    pub fn from_raw(
        data: Buffer<u8>,
        offsets: Buffer<u32>,
        validity: Option<Bitmap>,
    ) -> DfResult<StrArr> {
        let offs = offsets.as_slice();
        let Some((&first, &last)) = offs.first().zip(offs.last()) else {
            return Err(DfError::Unsupported(
                "string array needs at least one offset".into(),
            ));
        };
        if offs.windows(2).any(|w| w[0] > w[1]) {
            return Err(DfError::Unsupported(
                "string offsets must be non-decreasing".into(),
            ));
        }
        if last as usize > data.len() {
            return Err(DfError::Unsupported(format!(
                "string offset {last} exceeds byte buffer of {}",
                data.len()
            )));
        }
        let region = std::str::from_utf8(&data.as_slice()[first as usize..last as usize])
            .map_err(|e| DfError::Unsupported(format!("string bytes not UTF-8: {e}")))?;
        if offs
            .iter()
            .any(|&o| !region.is_char_boundary((o - first) as usize))
        {
            return Err(DfError::Unsupported(
                "string offset splits a UTF-8 character".into(),
            ));
        }
        let rows = offs.len() - 1;
        if let Some(v) = &validity {
            if v.len() != rows {
                return Err(DfError::LengthMismatch {
                    expected: rows,
                    found: v.len(),
                });
            }
        }
        Ok(StrArr::plain(Plain {
            data,
            offsets,
            validity,
        }))
    }

    /// O(1): narrows the offsets or codes view; the bytes or dictionary
    /// stay shared.
    fn slice(&self, offset: usize, len: usize) -> Self {
        match &self.0 {
            Form::Plain(p) => StrArr::plain(p.slice(offset, len)),
            Form::Coded(c) => StrArr(Form::Coded(c.slice(offset, len))),
        }
    }

    /// The plain form's logical size, whichever form holds the rows.
    fn nbytes(&self) -> usize {
        self.value_bytes() + (self.len() + 1) * 4 + self.validity().map_or(0, |v| v.nbytes())
    }

    /// What is physically held; a coded array counts its dictionary once.
    fn retained_nbytes(&self) -> usize {
        match &self.0 {
            Form::Plain(p) => p.retained_nbytes(),
            Form::Coded(c) => {
                c.codes.values.retained_nbytes()
                    + c.codes.validity.as_ref().map_or(0, |v| v.retained_nbytes())
                    + std::mem::size_of_val(&*c.sums)
                    + c.dict.retained_nbytes()
            }
        }
    }

    fn push_allocs(&self, out: &mut Vec<(usize, usize)>) {
        match &self.0 {
            Form::Plain(p) => p.push_allocs(out),
            Form::Coded(c) => {
                out.push((c.codes.values.alloc_id(), c.codes.values.retained_nbytes()));
                if let Some(v) = &c.codes.validity {
                    out.push((v.alloc_id(), v.retained_nbytes()));
                }
                out.push((c.sums.as_ptr() as usize, std::mem::size_of_val(&*c.sums)));
                c.dict.push_allocs(out);
            }
        }
    }

    /// A coded array compacts its codes; the shared dictionary stays.
    fn compact(&mut self, slack: f64) -> bool {
        match &mut self.0 {
            Form::Plain(p) => p.compact(slack),
            Form::Coded(c) => c.codes.compact(slack),
        }
    }

    /// Bulk concatenation: the codes' when the parts share a dictionary,
    /// else referenced byte ranges appended and offsets rebased (parts may
    /// be views with non-zero base offsets).
    pub fn concat(parts: &[&StrArr]) -> StrArr {
        if let Some(dict) = StrArr::shared_dict(parts) {
            let codes = StrArr::codes_of(parts);
            let codes: Vec<&PrimArr<u32>> = codes.iter().collect();
            return StrArr::coded(PrimArr::concat(&codes), dict.clone());
        }
        let plains = StrArr::plains(parts);
        let plains: Vec<&Plain> = plains.iter().map(|p| p.as_ref()).collect();
        StrArr::plain(Plain::concat(&plains))
    }

    /// Folds each row's value hash into `hashes[row]`, `null_h` for a null
    /// row. A coded array hashes each dictionary value once.
    fn hash_combine(&self, hashes: &mut [u64], null_h: u64) {
        let (data, offs) = match &self.0 {
            Form::Plain(p) => (p.data.as_slice(), p.offsets.as_slice()),
            Form::Coded(c) => {
                let d = c.dict();
                let dict_hashes: Vec<u64> = (0..d.len())
                    .map(|k| {
                        let (s, e) = d.byte_range(k);
                        hash_bytes(d.data.as_slice(), s, e)
                    })
                    .collect();
                let by_code = |&k: &u32| dict_hashes[k as usize];
                let codes = c.codes.values.as_slice();
                match &c.codes.validity {
                    None => {
                        for (h, k) in hashes.iter_mut().zip(codes) {
                            *h = combine(*h, by_code(k));
                        }
                    }
                    Some(valid) => {
                        for ((h, k), v) in hashes.iter_mut().zip(codes).zip(valid.iter()) {
                            *h = combine(*h, if v { by_code(k) } else { null_h });
                        }
                    }
                }
                return;
            }
        };
        match self.validity() {
            None => {
                for (h, w) in hashes.iter_mut().zip(offs.windows(2)) {
                    *h = combine(*h, hash_bytes(data, w[0] as usize, w[1] as usize));
                }
            }
            Some(valid) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    let vh = if valid.get(i) {
                        hash_bytes(data, offs[i] as usize, offs[i + 1] as usize)
                    } else {
                        null_h
                    };
                    *h = combine(*h, vh);
                }
            }
        }
    }

    /// Row equality, null equal to null; codes of one dictionary compare
    /// as the values do.
    fn eq_at(&self, i: usize, other: &StrArr, j: usize) -> bool {
        match (&self.0, &other.0) {
            (Form::Coded(a), Form::Coded(b)) if Arc::ptr_eq(&a.dict, &b.dict) => {
                a.codes.get(i) == b.codes.get(j)
            }
            _ => self.get(i) == other.get(j),
        }
    }

    /// Packs `bit` of every row's value, 64 rows a word; a null row's bit
    /// is unspecified. A coded array runs `bit` once per dictionary value.
    pub(crate) fn pack_values(&self, mut bit: impl FnMut(&str) -> bool) -> Vec<u64> {
        match &self.0 {
            Form::Plain(p) => pack_idx(p.len(), |i| bit(p.value(i))),
            Form::Coded(c) => c.map_words(c.dict.pack_values(bit)),
        }
    }

    /// Packs whether each row's value is one of `probes`; a null row's bit
    /// is unspecified. A coded array compares each dictionary value once.
    pub(crate) fn pack_member(&self, probes: &[&[u8]]) -> Vec<u64> {
        match &self.0 {
            Form::Plain(p) => p.member(probes),
            Form::Coded(c) => c.map_words(c.dict.pack_member(probes)),
        }
    }

    /// Packs whether row `i` orders `want` against row `i` of `other`; a
    /// null row's bit is unspecified. Codes of one dictionary test
    /// equality as the values do.
    pub(crate) fn pack_cmp(&self, other: &StrArr, want: Ordering) -> Vec<u64> {
        match (&self.0, &other.0) {
            (Form::Coded(a), Form::Coded(b))
                if want == Ordering::Equal && Arc::ptr_eq(&a.dict, &b.dict) =>
            {
                pack2(&a.codes.values, &b.codes.values, |x, y| x == y)
            }
            _ => pack_idx(self.len(), |i| self.value(i).cmp(other.value(i)) == want),
        }
    }

    /// Each valid row's value through `f`, which appends its result to the
    /// text it is given; null rows stay null. Plain rows are written into
    /// one buffer. A coded array maps each dictionary value once and
    /// re-interns the results, so values that map to one share a code.
    pub(crate) fn map_str(&self, mut f: impl FnMut(&str, &mut String)) -> StrArr {
        let c = match &self.0 {
            Form::Coded(c) => c,
            Form::Plain(p) => {
                let mut text = String::with_capacity(p.viewed_bytes());
                let mut offsets = Vec::with_capacity(p.len() + 1);
                offsets.push(0u32);
                for i in 0..p.len() {
                    if p.is_valid(i) {
                        f(p.value(i), &mut text);
                    }
                    offsets.push(text.len() as u32);
                }
                let validity = if_null(p.validity.clone());
                return StrArr::plain(Plain::new(text.into_bytes(), offsets, validity));
            }
        };
        let mapped = c.dict.map_str(f);
        let mut remap: Vec<u32> = Vec::with_capacity(mapped.len() + 1);
        mapped.intern(false, &mut KeyTable::default(), &mut Vec::new(), &mut remap);
        let mut firsts = Vec::new();
        for (row, &code) in remap.iter().enumerate() {
            if code as usize == firsts.len() {
                firsts.push(row);
            }
        }
        let dict = StrArr::from_iter(firsts.iter().map(|&row| mapped.value(row)));
        // a missing row's code 0 reads an entry an empty dictionary lacks
        remap.push(0);
        let codes = PrimArr {
            values: c.codes.values.iter().map(|&k| remap[k as usize]).collect(),
            validity: c.codes.validity.clone(),
        };
        StrArr::coded(codes.nulls_only(), Arc::new(dict))
    }

    /// `f` of each valid row's value, `T::default()` on a null row, with
    /// the rows' validity. A coded array runs `f` once per dictionary
    /// value.
    pub(crate) fn map_values<T: Copy + Default>(&self, mut f: impl FnMut(&str) -> T) -> PrimArr<T> {
        let values: Vec<T> = match &self.0 {
            Form::Plain(p) => (0..p.len())
                .map(|i| match p.is_valid(i) {
                    true => f(p.value(i)),
                    false => T::default(),
                })
                .collect(),
            Form::Coded(c) => {
                let d = c.dict();
                let table: Vec<T> = (0..d.len()).map(|k| f(d.value(k))).collect();
                (0..c.codes.len())
                    .map(|i| match c.codes.is_valid(i) {
                        true => table[c.codes.values[i] as usize],
                        false => T::default(),
                    })
                    .collect()
            }
        };
        PrimArr {
            values: Buffer::from_vec(values),
            validity: if_null(self.validity().cloned()),
        }
    }
}

/// Logical equality: views with different base offsets, and the two forms,
/// compare by content.
impl PartialEq for StrArr {
    fn eq(&self, other: &StrArr) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.get(i) == other.get(i))
    }
}

/// A boolean array backed by two bitmaps (values + validity).
#[derive(Debug, Clone, PartialEq)]
pub struct BoolArr {
    /// Packed boolean values.
    pub values: Bitmap,
    /// Validity bitmap; `None` means no nulls.
    pub validity: Option<Bitmap>,
}

impl BoolArr {
    /// All-valid boolean array.
    pub fn new(values: Bitmap) -> Self {
        BoolArr {
            values,
            validity: None,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Validity of row `i`.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Value at row `i`, `None` when null.
    #[inline]
    pub fn get(&self, i: usize) -> Option<bool> {
        if self.is_valid(i) {
            Some(self.values.get(i))
        } else {
            None
        }
    }

    /// Collapses to a selection mask: null counts as `false`
    /// (pandas boolean-indexing semantics).
    pub fn to_mask(&self) -> Bitmap {
        match &self.validity {
            None => self.values.clone(),
            Some(v) => self.values.and(v),
        }
    }

    /// Rows `idx` of `parts` laid end to end (see [`Column::gather`]); a
    /// missing row is a null `false`.
    fn gather<I: RowId, L: Locate>(parts: &[&Self], idx: &[I], segs: &[Seg<L>]) -> Self {
        let mut values = BitmapBuilder::with_capacity(idx.len());
        let mut validity = Validity::new(parts.iter().any(|p| p.validity.is_some()), idx.len());
        let put = |p: usize, r: usize, values: &mut BitmapBuilder, validity: &mut Validity| {
            values.push(parts[p].values.get(r));
            validity.push(|| parts[p].is_valid(r));
        };
        for seg in segs {
            match *seg {
                Seg::Pick(ref ids, loc) => {
                    for (row, &g) in idx[ids.clone()].iter().enumerate() {
                        match g.row() {
                            Some(g) => {
                                let (p, r) = loc.locate(ids.start + row, g);
                                put(p, r, &mut values, &mut validity);
                            }
                            None => {
                                validity.miss(ids.start + row);
                                values.push(false);
                            }
                        }
                    }
                }
                Seg::Run { part, row, len } => {
                    (row..row + len).for_each(|r| put(part, r, &mut values, &mut validity))
                }
            }
        }
        BoolArr {
            values: values.finish(),
            validity: validity.finish(),
        }
    }
}

/// A typed column of a dataframe.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64(PrimArr<i64>),
    /// 64-bit floats.
    Float64(PrimArr<f64>),
    /// Booleans.
    Bool(BoolArr),
    /// UTF-8 strings.
    Utf8(StrArr),
    /// Dates (days since epoch).
    Date(PrimArr<i32>),
}

impl Column {
    // ---- constructors -----------------------------------------------------

    /// All-valid Int64 column.
    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::Int64(PrimArr::new(values))
    }

    /// Int64 column with nulls.
    pub fn from_opt_i64(values: Vec<Option<i64>>) -> Self {
        Column::Int64(PrimArr::from_options(values))
    }

    /// All-valid Float64 column.
    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::Float64(PrimArr::new(values))
    }

    /// Float64 column with nulls.
    pub fn from_opt_f64(values: Vec<Option<f64>>) -> Self {
        Column::Float64(PrimArr::from_options(values))
    }

    /// All-valid Bool column.
    pub fn from_bool(values: Vec<bool>) -> Self {
        Column::Bool(BoolArr::new(Bitmap::from_iter(values)))
    }

    /// All-valid Utf8 column.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str<S: AsRef<str>, I: IntoIterator<Item = S>>(values: I) -> Self {
        Column::Utf8(StrArr::from_iter(values))
    }

    /// All-valid Utf8 column written in place ([`StrArr::from_writer`]).
    pub fn from_str_writer(
        rows: usize,
        bytes: usize,
        write: impl FnMut(usize, &mut String),
    ) -> Self {
        Column::Utf8(StrArr::from_writer(rows, bytes, write))
    }

    /// All-valid Utf8 column of `options[picks[i]]` ([`StrArr::from_picks`]).
    pub fn from_str_picks(options: &[&str], picks: &[u8]) -> Self {
        Column::Utf8(StrArr::from_picks(options, picks))
    }

    /// Utf8 column with nulls.
    pub fn from_opt_str<S: AsRef<str>, I: IntoIterator<Item = Option<S>>>(values: I) -> Self {
        Column::Utf8(StrArr::from_options(values))
    }

    /// All-valid Date column (days since epoch).
    pub fn from_date(values: Vec<i32>) -> Self {
        Column::Date(PrimArr::new(values))
    }

    /// Column of `len` copies of `scalar`, with the given type when null.
    pub fn full(len: usize, scalar: &Scalar, dtype: DataType) -> Self {
        match (scalar, dtype) {
            (Scalar::Null, DataType::Int64) => Column::from_opt_i64(vec![None; len]),
            (Scalar::Null, DataType::Float64) => Column::from_opt_f64(vec![None; len]),
            (Scalar::Null, DataType::Utf8) => {
                Column::from_opt_str::<&str, _>((0..len).map(|_| None))
            }
            (Scalar::Null, DataType::Date) => Column::Date(PrimArr::from_options(vec![None; len])),
            (Scalar::Null, DataType::Bool) => Column::Bool(BoolArr {
                values: Bitmap::new_set(len, false),
                validity: Some(Bitmap::new_set(len, false)),
            }),
            (Scalar::Int(v), _) => Column::from_i64(vec![*v; len]),
            (Scalar::Float(v), _) => Column::from_f64(vec![*v; len]),
            (Scalar::Bool(v), _) => Column::from_bool(vec![*v; len]),
            (Scalar::Str(v), _) => Column::from_str((0..len).map(|_| v.as_str())),
            (Scalar::Date(v), _) => Column::from_date(vec![*v; len]),
        }
    }

    /// Builds a column of the given type from scalars.
    pub fn from_scalars(scalars: &[Scalar], dtype: DataType) -> DfResult<Self> {
        Ok(match dtype {
            DataType::Int64 => Column::from_opt_i64(scalars.iter().map(|s| s.as_i64()).collect()),
            DataType::Float64 => Column::from_opt_f64(scalars.iter().map(|s| s.as_f64()).collect()),
            DataType::Date => Column::Date(PrimArr::from_options(
                scalars
                    .iter()
                    .map(|s| s.as_i64().map(|v| v as i32))
                    .collect(),
            )),
            DataType::Utf8 => Column::from_opt_str(scalars.iter().map(|s| s.as_str())),
            DataType::Bool => {
                let values =
                    Bitmap::from_iter(scalars.iter().map(|s| matches!(s, Scalar::Bool(true))));
                let validity = Bitmap::from_iter(scalars.iter().map(|s| !s.is_null()));
                Column::Bool(BoolArr {
                    values,
                    validity: if validity.count_set() == validity.len() {
                        None
                    } else {
                        Some(validity)
                    },
                })
            }
        })
    }

    // ---- inspection -------------------------------------------------------

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(a) => a.len(),
            Column::Float64(a) => a.len(),
            Column::Bool(a) => a.len(),
            Column::Utf8(a) => a.len(),
            Column::Date(a) => a.len(),
        }
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Bool(_) => DataType::Bool,
            Column::Utf8(_) => DataType::Utf8,
            Column::Date(_) => DataType::Date,
        }
    }

    /// Value at row `i` as a scalar.
    pub fn get(&self, i: usize) -> Scalar {
        match self {
            Column::Int64(a) => a.get(i).map_or(Scalar::Null, Scalar::Int),
            Column::Float64(a) => a.get(i).map_or(Scalar::Null, Scalar::Float),
            Column::Bool(a) => a.get(i).map_or(Scalar::Null, Scalar::Bool),
            Column::Utf8(a) => a
                .get(i)
                .map_or(Scalar::Null, |s| Scalar::Str(s.to_string())),
            Column::Date(a) => a.get(i).map_or(Scalar::Null, Scalar::Date),
        }
    }

    /// Validity of row `i`.
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Column::Int64(a) => a.is_valid(i),
            Column::Float64(a) => a.is_valid(i),
            Column::Bool(a) => a.is_valid(i),
            Column::Utf8(a) => a.is_valid(i),
            Column::Date(a) => a.is_valid(i),
        }
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.validity().map_or(0, |v| v.len() - v.count_set())
    }

    /// Approximate *logical* heap bytes of the viewed rows (the runtime's
    /// transfer-cost unit; see [`Column::retained_nbytes`] for what a
    /// column actually pins in memory).
    pub fn nbytes(&self) -> usize {
        match self {
            Column::Int64(a) => a.values.nbytes() + a.validity.as_ref().map_or(0, |v| v.nbytes()),
            Column::Float64(a) => a.values.nbytes() + a.validity.as_ref().map_or(0, |v| v.nbytes()),
            Column::Bool(a) => a.values.nbytes() + a.validity.as_ref().map_or(0, |v| v.nbytes()),
            Column::Utf8(a) => a.nbytes(),
            Column::Date(a) => a.values.nbytes() + a.validity.as_ref().map_or(0, |v| v.nbytes()),
        }
    }

    /// Bytes of all allocations this column keeps alive. For a sliced view
    /// this can far exceed [`Column::nbytes`]; shared allocations are
    /// counted once per column (deduplication across columns is the
    /// storage service's job, via [`Column::push_allocs`]).
    pub fn retained_nbytes(&self) -> usize {
        match self {
            Column::Int64(a) => {
                a.values.retained_nbytes() + a.validity.as_ref().map_or(0, |v| v.retained_nbytes())
            }
            Column::Float64(a) => {
                a.values.retained_nbytes() + a.validity.as_ref().map_or(0, |v| v.retained_nbytes())
            }
            Column::Bool(a) => {
                a.values.retained_nbytes() + a.validity.as_ref().map_or(0, |v| v.retained_nbytes())
            }
            Column::Utf8(a) => a.retained_nbytes(),
            Column::Date(a) => {
                a.values.retained_nbytes() + a.validity.as_ref().map_or(0, |v| v.retained_nbytes())
            }
        }
    }

    /// Appends `(alloc_id, retained_bytes)` for every buffer backing this
    /// column. The storage service dedups by id to charge each shared
    /// allocation once.
    pub fn push_allocs(&self, out: &mut Vec<(usize, usize)>) {
        match self {
            Column::Int64(a) => {
                out.push((a.values.alloc_id(), a.values.retained_nbytes()));
                if let Some(v) = &a.validity {
                    out.push((v.alloc_id(), v.retained_nbytes()));
                }
            }
            Column::Float64(a) => {
                out.push((a.values.alloc_id(), a.values.retained_nbytes()));
                if let Some(v) = &a.validity {
                    out.push((v.alloc_id(), v.retained_nbytes()));
                }
            }
            Column::Bool(a) => {
                out.push((a.values.alloc_id(), a.values.retained_nbytes()));
                if let Some(v) = &a.validity {
                    out.push((v.alloc_id(), v.retained_nbytes()));
                }
            }
            Column::Utf8(a) => a.push_allocs(out),
            Column::Date(a) => {
                out.push((a.values.alloc_id(), a.values.retained_nbytes()));
                if let Some(v) = &a.validity {
                    out.push((v.alloc_id(), v.retained_nbytes()));
                }
            }
        }
    }

    /// Materializes any buffer whose retained allocation exceeds `slack ×`
    /// its logical size, so a small view stops pinning a large parent.
    /// Returns true if any buffer was copied.
    pub fn compact(&mut self, slack: f64) -> bool {
        match self {
            Column::Int64(a) => a.compact(slack),
            Column::Float64(a) => a.compact(slack),
            Column::Date(a) => a.compact(slack),
            Column::Bool(a) => {
                let mut changed = a.values.compact(slack);
                if let Some(v) = &mut a.validity {
                    changed |= v.compact(slack);
                }
                changed
            }
            Column::Utf8(a) => a.compact(slack),
        }
    }

    // ---- reshaping --------------------------------------------------------

    /// Rows at `indices`, in order (may repeat).
    pub fn take(&self, indices: &[usize]) -> Column {
        Column::gather_with(&[self], &GatherPlan::new(&[self.len()], indices))
    }

    /// Rows `idx` of `parts` read as one column, part after part: id `g`
    /// is row `g - start` of the part whose rows start at `start`, and
    /// [`NO_ROW`] is a null row. The parts must share a type. Each row is
    /// copied once, straight out of its part — the parts are never
    /// concatenated first. A part's validity bitmap carries over (all-set
    /// or not, as [`Column::take`] keeps it), and a missing row starts one;
    /// a string result carries one only when a row is null.
    pub fn gather(parts: &[&Column], idx: &[u32]) -> DfResult<Column> {
        let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        Column::gather_planned(parts, &GatherPlan::new(&lens, idx))
    }

    /// [`Column::gather`] by a plan made once for all columns of `parts`.
    pub(crate) fn gather_planned<I: RowId>(
        parts: &[&Column],
        plan: &GatherPlan<'_, I>,
    ) -> DfResult<Column> {
        let first = parts
            .first()
            .ok_or_else(|| DfError::Unsupported("gather from zero columns".to_string()))?;
        if let Some(p) = parts.iter().find(|p| p.data_type() != first.data_type()) {
            return Err(DfError::TypeMismatch {
                expected: first.data_type().to_string(),
                found: p.data_type().to_string(),
            });
        }
        Ok(Column::gather_with(parts, plan))
    }

    /// [`Column::gather_planned`] over parts known to share a type.
    fn gather_with<I: RowId>(parts: &[&Column], plan: &GatherPlan<'_, I>) -> Column {
        let idx = plan.idx;
        match &plan.how {
            Plan::Ascending(segs) => Column::gather_segs(parts, idx, segs),
            Plan::Scattered(located) => {
                let all = [Seg::Pick(0..idx.len(), Located(located))];
                Column::gather_segs(parts, idx, &all)
            }
        }
    }

    fn gather_segs<I: RowId, L: Locate>(parts: &[&Column], idx: &[I], segs: &[Seg<L>]) -> Column {
        macro_rules! typed {
            ($variant:ident) => {
                parts
                    .iter()
                    .map(|c| match c {
                        Column::$variant(a) => a,
                        _ => unreachable!("gather parts share a type"),
                    })
                    .collect::<Vec<_>>()
            };
        }
        match parts[0] {
            Column::Int64(_) => Column::Int64(PrimArr::gather(&typed!(Int64), idx, segs)),
            Column::Float64(_) => Column::Float64(PrimArr::gather(&typed!(Float64), idx, segs)),
            Column::Date(_) => Column::Date(PrimArr::gather(&typed!(Date), idx, segs)),
            Column::Utf8(_) => Column::Utf8(StrArr::gather(&typed!(Utf8), idx, segs)),
            Column::Bool(_) => Column::Bool(BoolArr::gather(&typed!(Bool), idx, segs)),
        }
    }

    /// Rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> Column {
        match self {
            Column::Int64(a) => Column::Int64(a.filter(mask)),
            Column::Float64(a) => Column::Float64(a.filter(mask)),
            Column::Bool(a) => Column::Bool(BoolArr {
                values: a.values.filter(mask),
                validity: a.validity.as_ref().map(|v| v.filter(mask)),
            }),
            Column::Utf8(a) => Column::Utf8(a.filter(mask)),
            Column::Date(a) => Column::Date(a.filter(mask)),
        }
    }

    /// Scatter into `counts.len()` partitions: row `i` goes to partition
    /// `pids[i]`, where `counts[p]` rows carry partition id `p`. One pass
    /// over the input writing into pre-sized typed builders — the shuffle
    /// kernel behind `hash_partition` (no index buckets, no N× `take`).
    pub fn scatter(&self, pids: &[u32], counts: &[usize]) -> Vec<Column> {
        assert_eq!(pids.len(), self.len());
        match self {
            Column::Int64(a) => a
                .scatter(pids, counts)
                .into_iter()
                .map(Column::Int64)
                .collect(),
            Column::Float64(a) => a
                .scatter(pids, counts)
                .into_iter()
                .map(Column::Float64)
                .collect(),
            Column::Date(a) => a
                .scatter(pids, counts)
                .into_iter()
                .map(Column::Date)
                .collect(),
            Column::Utf8(a) => a
                .scatter(pids, counts)
                .into_iter()
                .map(Column::Utf8)
                .collect(),
            Column::Bool(a) => {
                let mut vals: Vec<BitmapBuilder> = counts
                    .iter()
                    .map(|&c| BitmapBuilder::with_capacity(c))
                    .collect();
                let mut vbs: Option<Vec<BitmapBuilder>> = a.validity.as_ref().map(|_| {
                    counts
                        .iter()
                        .map(|&c| BitmapBuilder::with_capacity(c))
                        .collect()
                });
                for (i, &p) in pids.iter().enumerate() {
                    vals[p as usize].push(a.values.get(i));
                    if let Some(vbs) = &mut vbs {
                        vbs[p as usize].push(a.is_valid(i));
                    }
                }
                let mut vbs = vbs.map(|v| v.into_iter());
                vals.into_iter()
                    .map(|vb| {
                        Column::Bool(BoolArr {
                            values: vb.finish(),
                            validity: vbs.as_mut().and_then(|it| {
                                it.next()
                                    .expect("one builder per partition")
                                    .finish_validity()
                            }),
                        })
                    })
                    .collect()
            }
        }
    }

    /// The validity bitmap, if the column carries nulls.
    pub fn validity(&self) -> Option<&Bitmap> {
        match self {
            Column::Int64(a) => a.validity.as_ref(),
            Column::Float64(a) => a.validity.as_ref(),
            Column::Bool(a) => a.validity.as_ref(),
            Column::Utf8(a) => a.validity(),
            Column::Date(a) => a.validity.as_ref(),
        }
    }

    /// Typed comparison of two *valid* rows (callers handle nulls via
    /// [`Column::is_valid`] first — the sort comparator's null-last rule
    /// lives there). No [`Scalar`] materialization; floats use `total_cmp`.
    ///
    /// # Panics
    /// Debug-asserts both rows are valid and both columns share the type.
    pub fn cmp_valid(&self, i: usize, other: &Column, j: usize) -> Ordering {
        debug_assert!(self.is_valid(i) && other.is_valid(j));
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.values[i].cmp(&b.values[j]),
            (Column::Float64(a), Column::Float64(b)) => a.values[i].total_cmp(&b.values[j]),
            (Column::Date(a), Column::Date(b)) => a.values[i].cmp(&b.values[j]),
            (Column::Bool(a), Column::Bool(b)) => a.values.get(i).cmp(&b.values.get(j)),
            (Column::Utf8(a), Column::Utf8(b)) => a.value(i).cmp(b.value(j)),
            // mixed numeric types fall back to f64 (matches Scalar::total_cmp)
            _ => {
                let x = self.get(i).as_f64().unwrap_or(f64::NAN);
                let y = other.get(j).as_f64().unwrap_or(f64::NAN);
                x.total_cmp(&y)
            }
        }
    }

    /// Contiguous rows `[offset, offset + len)` — O(1), shares buffers
    /// with `self`.
    pub fn slice(&self, offset: usize, len: usize) -> Column {
        match self {
            Column::Int64(a) => Column::Int64(a.slice(offset, len)),
            Column::Float64(a) => Column::Float64(a.slice(offset, len)),
            Column::Bool(a) => Column::Bool(BoolArr {
                values: a.values.slice(offset, len),
                validity: a.validity.as_ref().map(|v| v.slice(offset, len)),
            }),
            Column::Utf8(a) => Column::Utf8(a.slice(offset, len)),
            Column::Date(a) => Column::Date(a.slice(offset, len)),
        }
    }

    /// Replaces nulls with `value` (coerced to the column's type; a value
    /// that doesn't coerce leaves nulls in place, matching
    /// [`Column::from_scalars`] semantics). Copy-on-write: an all-valid
    /// column comes back as a cheap clone.
    pub fn fillna(&self, value: &Scalar) -> Column {
        match self {
            Column::Int64(a) => match value.as_i64() {
                Some(v) => Column::Int64(a.fillna(v)),
                None => self.clone(),
            },
            Column::Float64(a) => match value.as_f64() {
                Some(v) => Column::Float64(a.fillna(v)),
                None => self.clone(),
            },
            Column::Date(a) => match value.as_i64() {
                Some(v) => Column::Date(a.fillna(v as i32)),
                None => self.clone(),
            },
            Column::Bool(a) => match &a.validity {
                None => self.clone(),
                Some(validity) => {
                    if value.is_null() {
                        return self.clone();
                    }
                    let fill = matches!(value, Scalar::Bool(true));
                    let mut values = a.values.clone();
                    for i in validity.not().set_indices() {
                        values.set(i, fill);
                    }
                    Column::Bool(BoolArr {
                        values,
                        validity: None,
                    })
                }
            },
            Column::Utf8(a) => match value.as_str() {
                Some(s) => {
                    if a.validity().is_none() {
                        return self.clone();
                    }
                    Column::Utf8(StrArr::from_iter(
                        (0..a.len()).map(|i| a.get(i).unwrap_or(s)),
                    ))
                }
                None => self.clone(),
            },
        }
    }

    /// Vertical concatenation. All parts must share the type.
    pub fn concat(parts: &[&Column]) -> DfResult<Column> {
        let first = parts
            .first()
            .ok_or_else(|| DfError::Unsupported("concat of zero columns".to_string()))?;
        let dtype = first.data_type();
        for p in parts {
            if p.data_type() != dtype {
                return Err(DfError::TypeMismatch {
                    expected: dtype.to_string(),
                    found: p.data_type().to_string(),
                });
            }
        }
        Ok(match dtype {
            DataType::Int64 => Column::Int64(PrimArr::concat(
                &parts
                    .iter()
                    .map(|p| match p {
                        Column::Int64(a) => a,
                        _ => unreachable!(),
                    })
                    .collect::<Vec<_>>(),
            )),
            DataType::Float64 => Column::Float64(PrimArr::concat(
                &parts
                    .iter()
                    .map(|p| match p {
                        Column::Float64(a) => a,
                        _ => unreachable!(),
                    })
                    .collect::<Vec<_>>(),
            )),
            DataType::Date => Column::Date(PrimArr::concat(
                &parts
                    .iter()
                    .map(|p| match p {
                        Column::Date(a) => a,
                        _ => unreachable!(),
                    })
                    .collect::<Vec<_>>(),
            )),
            DataType::Bool => {
                let arrs: Vec<&BoolArr> = parts
                    .iter()
                    .map(|p| match p {
                        Column::Bool(a) => a,
                        _ => unreachable!(),
                    })
                    .collect();
                let value_parts: Vec<&Bitmap> = arrs.iter().map(|a| &a.values).collect();
                let values = Bitmap::concat(&value_parts);
                let validity = concat_validity(arrs.iter().map(|a| (a.validity.as_ref(), a.len())));
                Column::Bool(BoolArr { values, validity })
            }
            DataType::Utf8 => {
                // bulk byte-level concatenation of the string buffers
                let arrs: Vec<&StrArr> = parts
                    .iter()
                    .map(|p| match p {
                        Column::Utf8(a) => a,
                        _ => unreachable!(),
                    })
                    .collect();
                Column::Utf8(StrArr::concat(&arrs))
            }
        })
    }

    // ---- casting ----------------------------------------------------------

    /// Casts to another type; numeric↔numeric and anything→Utf8 supported.
    pub fn cast(&self, to: DataType) -> DfResult<Column> {
        if self.data_type() == to {
            return Ok(self.clone());
        }
        /// Typed per-value cast; `f` returning `None` introduces a null
        /// (e.g. fractional float → int, matching `Scalar::as_i64`).
        fn prim_cast<T: Copy + Default, U: Copy + Default>(
            a: &PrimArr<T>,
            f: impl Fn(T) -> Option<U>,
        ) -> PrimArr<U> {
            let mut values = Vec::with_capacity(a.len());
            let mut vb = BitmapBuilder::with_capacity(a.len());
            for i in 0..a.len() {
                match a.get(i).and_then(&f) {
                    Some(u) => {
                        values.push(u);
                        vb.push(true);
                    }
                    None => {
                        values.push(U::default());
                        vb.push(false);
                    }
                }
            }
            PrimArr {
                values: Buffer::from_vec(values),
                validity: vb.finish_validity(),
            }
        }
        // numeric fast paths: no per-row Scalar round-trip
        match (self, to) {
            (Column::Int64(a), DataType::Float64) => {
                return Ok(Column::Float64(prim_cast(a, |v| Some(v as f64))))
            }
            (Column::Date(a), DataType::Float64) => {
                return Ok(Column::Float64(prim_cast(a, |v| Some(v as f64))))
            }
            (Column::Float64(a), DataType::Int64) => {
                // fractional values become null, matching `Scalar::as_i64`
                return Ok(Column::Int64(prim_cast(a, |v| {
                    (v.fract() == 0.0).then_some(v as i64)
                })));
            }
            (Column::Date(a), DataType::Int64) => {
                return Ok(Column::Int64(prim_cast(a, |v| Some(v as i64))))
            }
            _ => {}
        }
        let n = self.len();
        Ok(match to {
            DataType::Float64 => {
                Column::from_opt_f64((0..n).map(|i| self.get(i).as_f64()).collect())
            }
            DataType::Int64 => Column::from_opt_i64((0..n).map(|i| self.get(i).as_i64()).collect()),
            DataType::Utf8 => Column::from_opt_str(
                (0..n)
                    .map(|i| {
                        let s = self.get(i);
                        if s.is_null() {
                            None
                        } else {
                            Some(s.to_string())
                        }
                    })
                    .collect::<Vec<_>>(),
            ),
            other => {
                return Err(DfError::Unsupported(format!(
                    "cast {} -> {}",
                    self.data_type(),
                    other
                )))
            }
        })
    }

    // ---- hashing & equality (for groupby/join keys) -------------------------

    /// Folds each row's value hash into `hashes[row]`. Null hashes to a
    /// fixed sentinel so grouping can still bucket nulls together.
    pub fn hash_combine(&self, hashes: &mut [u64]) {
        const NULL_H: u64 = 0x9e37_79b9_7f4a_7c15;
        assert_eq!(hashes.len(), self.len());
        // Null-free columns take a branchless slice walk; only columns
        // that actually carry a validity bitmap pay the per-row check.
        match self {
            Column::Int64(a) => match &a.validity {
                None => {
                    for (h, &v) in hashes.iter_mut().zip(a.values.as_slice()) {
                        *h = combine(*h, v as u64);
                    }
                }
                Some(_) => {
                    for (i, h) in hashes.iter_mut().enumerate() {
                        *h = combine(*h, a.get(i).map_or(NULL_H, |v| v as u64));
                    }
                }
            },
            Column::Date(a) => match &a.validity {
                None => {
                    for (h, &v) in hashes.iter_mut().zip(a.values.as_slice()) {
                        *h = combine(*h, v as u64);
                    }
                }
                Some(_) => {
                    for (i, h) in hashes.iter_mut().enumerate() {
                        *h = combine(*h, a.get(i).map_or(NULL_H, |v| v as u64));
                    }
                }
            },
            Column::Float64(a) => match &a.validity {
                None => {
                    for (h, &v) in hashes.iter_mut().zip(a.values.as_slice()) {
                        *h = combine(*h, v.to_bits());
                    }
                }
                Some(_) => {
                    for (i, h) in hashes.iter_mut().enumerate() {
                        *h = combine(*h, a.get(i).map_or(NULL_H, |v| v.to_bits()));
                    }
                }
            },
            Column::Bool(a) => {
                for (i, h) in hashes.iter_mut().enumerate() {
                    *h = combine(*h, a.get(i).map_or(NULL_H, |v| v as u64));
                }
            }
            Column::Utf8(a) => a.hash_combine(hashes, NULL_H),
        }
    }

    /// Row-level equality between two columns (for hash-collision checks).
    /// Nulls compare equal to nulls here; callers that need SQL semantics
    /// filter nulls beforehand.
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        match (self, other) {
            (Column::Int64(a), Column::Int64(b)) => a.get(i) == b.get(j),
            (Column::Float64(a), Column::Float64(b)) => match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                (None, None) => true,
                _ => false,
            },
            (Column::Date(a), Column::Date(b)) => a.get(i) == b.get(j),
            (Column::Bool(a), Column::Bool(b)) => a.get(i) == b.get(j),
            (Column::Utf8(a), Column::Utf8(b)) => a.eq_at(i, b, j),
            _ => false,
        }
    }

    // ---- typed views ------------------------------------------------------

    /// Int64 view.
    pub fn as_i64(&self) -> DfResult<&PrimArr<i64>> {
        match self {
            Column::Int64(a) => Ok(a),
            other => Err(DfError::TypeMismatch {
                expected: "int64".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Float64 view.
    pub fn as_f64(&self) -> DfResult<&PrimArr<f64>> {
        match self {
            Column::Float64(a) => Ok(a),
            other => Err(DfError::TypeMismatch {
                expected: "float64".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Bool view.
    pub fn as_bool(&self) -> DfResult<&BoolArr> {
        match self {
            Column::Bool(a) => Ok(a),
            other => Err(DfError::TypeMismatch {
                expected: "bool".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Utf8 view.
    pub fn as_utf8(&self) -> DfResult<&StrArr> {
        match self {
            Column::Utf8(a) => Ok(a),
            other => Err(DfError::TypeMismatch {
                expected: "utf8".into(),
                found: other.data_type().to_string(),
            }),
        }
    }

    /// Date view.
    pub fn as_date(&self) -> DfResult<&PrimArr<i32>> {
        match self {
            Column::Date(a) => Ok(a),
            other => Err(DfError::TypeMismatch {
                expected: "date".into(),
                found: other.data_type().to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_roundtrip() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(0), Scalar::Int(1));
        assert_eq!(c.get(1), Scalar::Null);
    }

    #[test]
    fn str_arr() {
        let c = Column::from_opt_str(vec![Some("ab"), None, Some("c")]);
        let s = c.as_utf8().unwrap();
        assert_eq!(s.get(0), Some("ab"));
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(2), Some("c"));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn take_filter_slice() {
        let c = Column::from_i64(vec![10, 20, 30, 40]);
        assert_eq!(c.take(&[3, 0]), Column::from_i64(vec![40, 10]));
        let mask = Bitmap::from_iter([true, false, true, false]);
        assert_eq!(c.filter(&mask), Column::from_i64(vec![10, 30]));
        assert_eq!(c.slice(1, 2), Column::from_i64(vec![20, 30]));
    }

    #[test]
    fn slice_is_zero_copy() {
        let c = Column::from_i64((0..1000).collect());
        let s = c.slice(100, 200);
        let (a, b) = match (&c, &s) {
            (Column::Int64(a), Column::Int64(b)) => (a, b),
            _ => unreachable!(),
        };
        assert_eq!(b.values.alloc_id(), a.values.alloc_id());
        assert_eq!(s.nbytes(), 200 * 8);
        assert_eq!(s.retained_nbytes(), 1000 * 8);
    }

    #[test]
    fn str_slice_is_zero_copy_and_concats() {
        let c = Column::from_str((0..100).map(|i| format!("s{i}")));
        let s = c.slice(10, 5);
        let sa = s.as_utf8().unwrap();
        assert_eq!(sa.get(0), Some("s10"));
        assert_eq!(sa.get(4), Some("s14"));
        assert!(s.retained_nbytes() > s.nbytes());
        // concat of offset views rebases correctly
        let t = c.slice(50, 3);
        let joined = Column::concat(&[&s, &t]).unwrap();
        let ja = joined.as_utf8().unwrap();
        assert_eq!(ja.get(4), Some("s14"));
        assert_eq!(ja.get(5), Some("s50"));
        assert_eq!(ja.len(), 8);
    }

    #[test]
    fn compact_releases_parent() {
        let c = Column::from_i64((0..10_000).collect());
        let mut s = c.slice(0, 10);
        assert!(s.compact(2.0));
        assert_eq!(s.retained_nbytes(), 10 * 8);
        assert_eq!(s, Column::from_i64((0..10).collect()));
    }

    #[test]
    fn fillna_typed() {
        let c = Column::from_opt_i64(vec![Some(1), None, Some(3)]);
        assert_eq!(c.fillna(&Scalar::Int(9)), Column::from_i64(vec![1, 9, 3]));
        // non-coercible fill value leaves nulls in place
        assert_eq!(c.fillna(&Scalar::Float(2.5)).null_count(), 1);
        let s = Column::from_opt_str(vec![Some("a"), None]);
        assert_eq!(
            s.fillna(&Scalar::Str("x".into())),
            Column::from_str(["a", "x"])
        );
        // fillna on a shared slice must not corrupt the parent
        let parent = Column::from_opt_f64(vec![Some(1.0), None, Some(3.0), None]);
        let child = parent.slice(1, 2).fillna(&Scalar::Float(0.0));
        assert_eq!(child, Column::from_f64(vec![0.0, 3.0]));
        assert_eq!(parent.null_count(), 2);
    }

    #[test]
    fn concat_mixed_nulls() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_opt_i64(vec![None, Some(2)]);
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.get(2), Scalar::Int(2));
    }

    #[test]
    fn concat_type_mismatch() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_f64(vec![1.0]);
        assert!(Column::concat(&[&a, &b]).is_err());
    }

    #[test]
    fn cast_int_to_float() {
        let c = Column::from_opt_i64(vec![Some(1), None]);
        let f = c.cast(DataType::Float64).unwrap();
        assert_eq!(f.get(0), Scalar::Float(1.0));
        assert!(f.get(1).is_null());
    }

    #[test]
    fn hash_same_values_same_hash() {
        let a = Column::from_str(["x", "y", "x"]);
        let mut h = vec![0u64; 3];
        a.hash_combine(&mut h);
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn eq_at_cross_rows() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_i64(vec![2, 1]);
        assert!(a.eq_at(0, &b, 1));
        assert!(!a.eq_at(0, &b, 0));
    }

    #[test]
    fn bool_to_mask_nulls_false() {
        let b = BoolArr {
            values: Bitmap::from_iter([true, true, false]),
            validity: Some(Bitmap::from_iter([true, false, true])),
        };
        assert_eq!(b.to_mask(), Bitmap::from_iter([true, false, false]));
    }

    #[test]
    fn full_scalar() {
        let c = Column::full(3, &Scalar::Str("k".into()), DataType::Utf8);
        assert_eq!(c.get(2), Scalar::Str("k".into()));
        let n = Column::full(2, &Scalar::Null, DataType::Float64);
        assert_eq!(n.null_count(), 2);
    }
}
