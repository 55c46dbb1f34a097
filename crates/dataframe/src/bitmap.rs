//! A packed validity/selection bitmap over a shared word buffer.
//!
//! Columns use a [`Bitmap`] both as a null mask (bit set ⇒ value is valid)
//! and as a filter selection vector (bit set ⇒ row is kept). Bits are stored
//! LSB-first in `u64` words, matching the Arrow convention.
//!
//! Like [`crate::buffer::Buffer`], a bitmap is a *view*: an `Arc`'d word
//! vector plus a bit offset and length, so [`Bitmap::slice`] is O(1) and
//! clones share the allocation. Mutation (`set`/`push`) is copy-on-write:
//! a shared or offset view is first normalized into a fresh owned buffer.

use std::sync::Arc;

/// A fixed-length packed bitmap view.
#[derive(Clone)]
pub struct Bitmap {
    words: Arc<Vec<u64>>,
    /// Bit offset of the view start within `words`.
    offset: usize,
    len: usize,
}

impl Bitmap {
    /// Creates a bitmap of `len` bits, all set to `value`.
    pub fn new_set(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut words = vec![fill; nwords];
        mask_tail(&mut words, len);
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len,
        }
    }

    /// Builds a bitmap from an iterator of booleans.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut words = Vec::new();
        let mut len = 0usize;
        let mut cur = 0u64;
        for b in iter {
            if b {
                cur |= 1u64 << (len % 64);
            }
            len += 1;
            if len.is_multiple_of(64) {
                words.push(cur);
                cur = 0;
            }
        }
        if !len.is_multiple_of(64) {
            words.push(cur);
        }
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap holds no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let bit = self.offset + i;
        (self.words[bit / 64] >> (bit % 64)) & 1 == 1
    }

    /// Number of 64-bit windows covering the view.
    #[inline]
    pub(crate) fn num_words(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Bits `[wi*64, wi*64+64)` of the view, packed LSB-first with any bits
    /// past `len` zeroed — the uniform unit all word-level ops run on.
    #[inline]
    pub(crate) fn word(&self, wi: usize) -> u64 {
        let start = self.offset + wi * 64;
        let base = start / 64;
        let shift = start % 64;
        let mut w = self.words[base] >> shift;
        if shift != 0 && base + 1 < self.words.len() {
            w |= self.words[base + 1] << (64 - shift);
        }
        let remaining = self.len - wi * 64;
        if remaining < 64 {
            w &= (1u64 << remaining) - 1;
        }
        w
    }

    /// Copy-on-write access to the backing words, normalized to offset 0
    /// with all bits past `len` zeroed.
    fn make_mut_words(&mut self) -> &mut Vec<u64> {
        if self.offset != 0
            || Arc::strong_count(&self.words) != 1
            || self.words.len() != self.num_words()
        {
            let owned: Vec<u64> = (0..self.num_words()).map(|wi| self.word(wi)).collect();
            self.words = Arc::new(owned);
            self.offset = 0;
        }
        Arc::get_mut(&mut self.words).expect("bitmap uniquely owned after normalize")
    }

    /// Sets bit `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let words = self.make_mut_words();
        let w = &mut words[i / 64];
        let mask = 1u64 << (i % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Appends a bit.
    pub fn push(&mut self, value: bool) {
        let i = self.len;
        let words = self.make_mut_words();
        if i.is_multiple_of(64) {
            words.push(0);
        }
        if value {
            words[i / 64] |= 1u64 << (i % 64);
        }
        self.len = i + 1;
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        (0..self.num_words())
            .map(|wi| self.word(wi).count_ones() as usize)
            .sum()
    }

    /// Iterator over all bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Iterator over the indices of set bits (word-at-a-time).
    pub fn set_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_words()).flat_map(move |wi| {
            let mut w = self.word(wi);
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Bitwise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words: Vec<u64> = (0..self.num_words())
            .map(|wi| self.word(wi) & other.word(wi))
            .collect();
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len: self.len,
        }
    }

    /// Bitwise OR of two equal-length bitmaps.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words: Vec<u64> = (0..self.num_words())
            .map(|wi| self.word(wi) | other.word(wi))
            .collect();
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len: self.len,
        }
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bitmap {
        let mut words: Vec<u64> = (0..self.num_words()).map(|wi| !self.word(wi)).collect();
        mask_tail(&mut words, self.len);
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len: self.len,
        }
    }

    /// New bitmap keeping only positions where `mask` is set. Runs
    /// word-at-a-time: an all-set mask word splices 64 bits in one op, a
    /// sparse word walks only its set bits.
    pub fn filter(&self, mask: &Bitmap) -> Bitmap {
        assert_eq!(self.len, mask.len, "bitmap length mismatch");
        let out_len = mask.count_set();
        let mut words = vec![0u64; out_len.div_ceil(64)];
        let mut pos = 0usize;
        for wi in 0..self.num_words() {
            let mut m = mask.word(wi);
            let s = self.word(wi);
            if m == u64::MAX {
                splice_bits(&mut words, pos, s, 64);
                pos += 64;
            } else {
                while m != 0 {
                    let b = m.trailing_zeros() as usize;
                    if (s >> b) & 1 == 1 {
                        words[pos / 64] |= 1u64 << (pos % 64);
                    }
                    pos += 1;
                    m &= m - 1;
                }
            }
        }
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len: out_len,
        }
    }

    /// Contiguous sub-bitmap `[offset, offset + len)` — O(1), shares the
    /// word buffer.
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(offset + len <= self.len, "slice out of bounds");
        Bitmap {
            words: Arc::clone(&self.words),
            offset: self.offset + offset,
            len,
        }
    }

    /// Concatenates several bitmaps (word-at-a-time).
    pub fn concat(parts: &[&Bitmap]) -> Bitmap {
        let total: usize = parts.iter().map(|p| p.len).sum();
        let mut words = vec![0u64; total.div_ceil(64)];
        let mut pos = 0usize;
        for p in parts {
            for wi in 0..p.num_words() {
                let nbits = (p.len - wi * 64).min(64);
                splice_bits(&mut words, pos, p.word(wi), nbits);
                pos += nbits;
            }
        }
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len: total,
        }
    }

    /// Logical heap bytes of the viewed bits.
    pub fn nbytes(&self) -> usize {
        self.num_words() * 8
    }

    /// Bytes of the whole word allocation this view keeps alive.
    pub fn retained_nbytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Identity of the underlying allocation (see `Buffer::alloc_id`).
    pub fn alloc_id(&self) -> usize {
        Arc::as_ptr(&self.words) as usize
    }

    /// The viewed bits as normalized LSB-first words (offset 0, bits past
    /// `len` zeroed) — the serialization unit of the chunk codec, streamed
    /// so the encoder serializes a bitmap with zero heap allocation.
    pub fn words_iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.num_words()).map(|wi| self.word(wi))
    }

    /// Rebuilds a bitmap of `len` bits from LSB-first words, the inverse of
    /// [`Bitmap::words_iter`]. Bits past `len` in the last word are masked
    /// off, so a corrupted tail cannot leak into later word-level ops.
    ///
    /// # Panics
    /// If `words` is not exactly `len.div_ceil(64)` words long (callers
    /// validate region sizes before reconstructing).
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Bitmap {
        assert_eq!(words.len(), len.div_ceil(64), "bitmap word count mismatch");
        mask_tail(&mut words, len);
        Bitmap {
            words: Arc::new(words),
            offset: 0,
            len,
        }
    }

    /// Materializes the view when the retained allocation exceeds
    /// `slack ×` the logical size. Returns true if a copy happened.
    pub fn compact(&mut self, slack: f64) -> bool {
        if (self.words.len() as f64) <= (self.num_words().max(1) as f64) * slack.max(1.0) {
            return false;
        }
        let owned: Vec<u64> = (0..self.num_words()).map(|wi| self.word(wi)).collect();
        self.words = Arc::new(owned);
        self.offset = 0;
        true
    }
}

/// ORs the low `nbits` of `value` into `words` starting at bit `pos`.
/// `value` must have all bits above `nbits` zeroed (as [`Bitmap::word`]
/// guarantees); the destination bits must still be zero.
#[inline]
fn splice_bits(words: &mut [u64], pos: usize, value: u64, nbits: usize) {
    let slot = pos / 64;
    let sh = pos % 64;
    words[slot] |= value << sh;
    if sh != 0 && sh + nbits > 64 {
        words[slot + 1] |= value >> (64 - sh);
    }
}

/// An append-only bitmap under construction: plain owned words with no
/// copy-on-write bookkeeping, so `push` is branch + shift (unlike
/// [`Bitmap::push`], which re-checks sharing on every call). The unit all
/// vectorized kernels emit validity through.
pub struct BitmapBuilder {
    words: Vec<u64>,
    len: usize,
    set: usize,
}

impl BitmapBuilder {
    /// A builder with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        BitmapBuilder {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
            set: 0,
        }
    }

    /// A builder already holding `len` set bits, with room for `bits`.
    pub(crate) fn with_set(len: usize, bits: usize) -> Self {
        let mut words = Vec::with_capacity(bits.max(len).div_ceil(64));
        words.resize(len / 64, u64::MAX);
        if !len.is_multiple_of(64) {
            words.push((1u64 << (len % 64)) - 1);
        }
        BitmapBuilder {
            words,
            len,
            set: len,
        }
    }

    /// Appends one bit.
    #[inline]
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if value {
            self.words[self.len / 64] |= 1u64 << (self.len % 64);
            self.set += 1;
        }
        self.len += 1;
    }

    /// Number of bits appended so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finishes into an owned bitmap.
    pub fn finish(self) -> Bitmap {
        Bitmap {
            words: Arc::new(self.words),
            offset: 0,
            len: self.len,
        }
    }

    /// Finishes into a *validity* bitmap: `None` when every bit is set
    /// (the all-valid normalization every array constructor applies).
    pub fn finish_validity(self) -> Option<Bitmap> {
        if self.set == self.len {
            None
        } else {
            Some(self.finish())
        }
    }
}

/// Packs `bit(v)` of every value into LSB-first words, 64 rows a word: a
/// fixed-length inner loop with no bounds check or branch, which the
/// compiler vectorizes.
pub(crate) fn pack<T: Copy>(vals: &[T], bit: impl Fn(T) -> bool) -> Vec<u64> {
    let full = vals.len() / 64 * 64;
    let mut words = Vec::with_capacity(vals.len().div_ceil(64));
    for c in vals[..full].chunks_exact(64) {
        let c: &[T; 64] = c.try_into().expect("a 64-value chunk");
        words.push(word(c.iter().map(|&v| bit(v))));
    }
    if full < vals.len() {
        words.push(word(vals[full..].iter().map(|&v| bit(v))));
    }
    words
}

/// [`pack`] over two slices of equal length.
pub(crate) fn pack2<A: Copy, B: Copy>(a: &[A], b: &[B], bit: impl Fn(A, B) -> bool) -> Vec<u64> {
    let full = a.len() / 64 * 64;
    let mut words = Vec::with_capacity(a.len().div_ceil(64));
    for (x, y) in a[..full].chunks_exact(64).zip(b[..full].chunks_exact(64)) {
        let x: &[A; 64] = x.try_into().expect("a 64-value chunk");
        let y: &[B; 64] = y.try_into().expect("a 64-value chunk");
        words.push(word(x.iter().zip(y).map(|(&p, &q)| bit(p, q))));
    }
    if full < a.len() {
        let tail = a[full..].iter().zip(&b[full..]);
        words.push(word(tail.map(|(&p, &q)| bit(p, q))));
    }
    words
}

/// [`pack`] over row indices, for rows that are not fixed-width values.
pub(crate) fn pack_idx(n: usize, mut bit: impl FnMut(usize) -> bool) -> Vec<u64> {
    (0..n)
        .step_by(64)
        .map(|base| word((base..n.min(base + 64)).map(&mut bit)))
        .collect()
}

#[inline(always)]
fn word(bits: impl Iterator<Item = bool>) -> u64 {
    bits.enumerate()
        .fold(0, |w, (j, b)| w | (u64::from(b) << j))
}

/// Clears any bits beyond `len` in the last word.
fn mask_tail(words: &mut [u64], len: usize) {
    let rem = len % 64;
    if rem != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << rem) - 1;
        }
    }
}

impl PartialEq for Bitmap {
    fn eq(&self, other: &Bitmap) -> bool {
        self.len == other.len && (0..self.num_words()).all(|wi| self.word(wi) == other.word(wi))
    }
}

impl Eq for Bitmap {}

impl std::fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bitmap[")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_set_and_get() {
        let bm = Bitmap::new_set(70, true);
        assert_eq!(bm.len(), 70);
        assert_eq!(bm.count_set(), 70);
        assert!(bm.get(0) && bm.get(69));
        let bm = Bitmap::new_set(70, false);
        assert_eq!(bm.count_set(), 0);
    }

    #[test]
    fn set_and_push() {
        let mut bm = Bitmap::new_set(3, false);
        bm.set(1, true);
        assert!(!bm.get(0) && bm.get(1) && !bm.get(2));
        bm.push(true);
        assert_eq!(bm.len(), 4);
        assert!(bm.get(3));
    }

    #[test]
    fn logical_ops() {
        let a = Bitmap::from_iter([true, true, false, false]);
        let b = Bitmap::from_iter([true, false, true, false]);
        assert_eq!(a.and(&b), Bitmap::from_iter([true, false, false, false]));
        assert_eq!(a.or(&b), Bitmap::from_iter([true, true, true, false]));
        assert_eq!(a.not(), Bitmap::from_iter([false, false, true, true]));
        // NOT must not set bits past `len` (would corrupt count_set).
        assert_eq!(a.not().count_set(), 2);
    }

    #[test]
    fn filter_slice_concat() {
        let a = Bitmap::from_iter([true, false, true, false, true]);
        let mask = Bitmap::from_iter([true, true, false, false, true]);
        assert_eq!(a.filter(&mask), Bitmap::from_iter([true, false, true]));
        assert_eq!(a.slice(1, 3), Bitmap::from_iter([false, true, false]));
        let c = Bitmap::concat(&[&a, &a]);
        assert_eq!(c.len(), 10);
        assert_eq!(c.count_set(), 6);
    }

    #[test]
    fn filter_word_ops_match_per_bit_reference() {
        // dense + sparse patterns, at a non-zero bit offset, spanning words
        let big = Bitmap::from_iter((0..300).map(|i| i % 3 != 1));
        let view = big.slice(7, 271);
        let mask = Bitmap::from_iter((0..view.len()).map(|i| i % 7 != 2 || i < 80));
        let reference = Bitmap::from_iter(mask.set_indices().map(|i| view.get(i)));
        assert_eq!(view.filter(&mask), reference);
        // all-set mask exercises the whole-word splice fast path
        let all = Bitmap::new_set(view.len(), true);
        assert_eq!(view.filter(&all), Bitmap::from_iter(view.iter()));
    }

    #[test]
    fn builder_matches_from_iter() {
        let bits: Vec<bool> = (0..200).map(|i| i % 5 == 0).collect();
        let mut b = BitmapBuilder::with_capacity(bits.len());
        for &v in &bits {
            b.push(v);
        }
        assert_eq!(b.finish(), Bitmap::from_iter(bits.iter().copied()));
        let mut all = BitmapBuilder::with_capacity(3);
        for _ in 0..3 {
            all.push(true);
        }
        assert!(
            all.finish_validity().is_none(),
            "all-valid normalizes to None"
        );
        let mut some = BitmapBuilder::with_capacity(2);
        some.push(true);
        some.push(false);
        assert_eq!(some.finish_validity().unwrap().count_set(), 1);
    }

    #[test]
    fn set_indices_spans_words() {
        let mut bm = Bitmap::new_set(130, false);
        bm.set(0, true);
        bm.set(64, true);
        bm.set(129, true);
        let idx: Vec<_> = bm.set_indices().collect();
        assert_eq!(idx, vec![0, 64, 129]);
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let mut bm = Bitmap::new_set(200, false);
        for i in (0..200).step_by(3) {
            bm.set(i, true);
        }
        let s = bm.slice(65, 70);
        assert_eq!(s.alloc_id(), bm.alloc_id(), "slice must share words");
        for i in 0..70 {
            assert_eq!(s.get(i), bm.get(65 + i));
        }
        assert_eq!(s.count_set(), (65..135).filter(|i| i % 3 == 0).count());
        // ops on offset views still match eager reconstruction
        let eager = Bitmap::from_iter(s.iter());
        assert_eq!(s, eager);
        assert_eq!(s.not(), eager.not());
        let idx_view: Vec<_> = s.set_indices().collect();
        let idx_eager: Vec<_> = eager.set_indices().collect();
        assert_eq!(idx_view, idx_eager);
    }

    #[test]
    fn cow_set_leaves_parent_untouched() {
        let parent = Bitmap::new_set(100, false);
        let mut child = parent.slice(10, 50);
        child.set(0, true);
        assert!(child.get(0));
        assert!(!parent.get(10), "copy-on-write must not touch the parent");
        assert_ne!(child.alloc_id(), parent.alloc_id());
    }

    #[test]
    fn concat_offset_views() {
        let a = Bitmap::from_iter((0..150).map(|i| i % 2 == 0));
        let s1 = a.slice(3, 70);
        let s2 = a.slice(90, 45);
        let c = Bitmap::concat(&[&s1, &s2]);
        let eager = Bitmap::from_iter(s1.iter().chain(s2.iter()));
        assert_eq!(c, eager);
    }

    #[test]
    fn compact_materializes_small_view() {
        let a = Bitmap::new_set(64 * 100, true);
        let mut s = a.slice(64, 64);
        assert!(s.retained_nbytes() > s.nbytes());
        assert!(s.compact(2.0));
        assert_eq!(s.retained_nbytes(), 8);
        assert_eq!(s.count_set(), 64);
    }
}
