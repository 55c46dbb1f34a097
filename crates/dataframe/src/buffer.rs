//! Shared immutable value buffers with O(1) slicing and copy-on-write.
//!
//! A [`Buffer<T>`] is an `Arc<Vec<T>>` plus an `(offset, len)` window — the
//! Arrow-style storage unit every array in this crate is built on. Cloning
//! and slicing are pointer bumps; the underlying allocation is shared until
//! a writer asks for exclusive access ([`Buffer::make_mut`]), at which point
//! exactly the viewed range is materialized into a fresh allocation.
//!
//! Because views share allocations, two byte sizes exist per buffer:
//! the *logical* size (`len * size_of::<T>()`, what the data is worth) and
//! the *retained* size (the whole parent allocation a view keeps alive).
//! The runtime's storage service accounts retained bytes, deduplicated by
//! [`Buffer::alloc_id`], and [`Buffer::compact`] re-materializes views whose
//! retained size exceeds a slack factor of their logical size.

use std::sync::Arc;

/// A shared immutable buffer: a reference-counted allocation plus a
/// contiguous `(offset, len)` view into it.
pub struct Buffer<T> {
    data: Arc<Vec<T>>,
    offset: usize,
    len: usize,
}

impl<T> Buffer<T> {
    /// An empty buffer.
    pub fn empty() -> Buffer<T> {
        Buffer {
            data: Arc::new(Vec::new()),
            offset: 0,
            len: 0,
        }
    }

    /// Takes ownership of a vector without copying.
    pub fn from_vec(values: Vec<T>) -> Buffer<T> {
        let len = values.len();
        Buffer {
            data: Arc::new(values),
            offset: 0,
            len,
        }
    }

    /// A view `[offset, offset + len)` over an allocation that is already
    /// shared. This is the zero-copy decode path of the chunk codec: the
    /// whole read buffer is wrapped in one `Arc` and every variable-length
    /// region becomes a window into it, so decoding moves no bytes.
    ///
    /// # Panics
    /// If the window exceeds the allocation.
    pub fn from_shared(data: Arc<Vec<T>>, offset: usize, len: usize) -> Buffer<T> {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= data.len()),
            "shared buffer window out of bounds"
        );
        Buffer { data, offset, len }
    }

    /// Number of viewed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed elements.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data[self.offset..self.offset + self.len]
    }

    /// O(1) sub-view `[offset, offset + len)` sharing the same allocation.
    pub fn slice(&self, offset: usize, len: usize) -> Buffer<T> {
        assert!(offset + len <= self.len, "buffer slice out of bounds");
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset + offset,
            len,
        }
    }

    /// Bytes of the whole allocation this view keeps alive.
    pub fn retained_nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Bytes of the viewed range only.
    pub fn nbytes(&self) -> usize {
        self.len * std::mem::size_of::<T>()
    }

    /// Identity of the underlying allocation — stable across clones and
    /// slices, distinct across separate allocations. The storage service
    /// uses it to charge each shared allocation once.
    pub fn alloc_id(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    /// True when the view covers the entire allocation.
    pub fn is_full_view(&self) -> bool {
        self.offset == 0 && self.len == self.data.len()
    }
}

impl<T: Clone> Buffer<T> {
    /// Exclusive mutable access to the viewed elements (copy-on-write):
    /// a unique full view is mutated in place, anything else materializes
    /// the viewed range into a fresh owned allocation first.
    pub fn make_mut(&mut self) -> &mut Vec<T> {
        if !self.is_full_view() || Arc::strong_count(&self.data) != 1 {
            let owned: Vec<T> = self.as_slice().to_vec();
            self.data = Arc::new(owned);
            self.offset = 0;
        }
        self.len = self.data.len();
        // strong_count == 1 is guaranteed by the branch above
        Arc::get_mut(&mut self.data).expect("buffer uniquely owned after materialize")
    }

    /// Materializes the view into its own allocation when the retained
    /// allocation exceeds `slack ×` the logical size. Returns true if a
    /// copy happened. `slack >= 1.0`; a full view never compacts.
    pub fn compact(&mut self, slack: f64) -> bool {
        if self.is_full_view() {
            return false;
        }
        if (self.data.len() as f64) <= (self.len as f64) * slack.max(1.0) {
            return false;
        }
        let owned: Vec<T> = self.as_slice().to_vec();
        self.data = Arc::new(owned);
        self.offset = 0;
        true
    }
}

impl<T> std::ops::Deref for Buffer<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T> IntoIterator for &'a Buffer<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Buffer<T> {
        Buffer {
            data: Arc::clone(&self.data),
            offset: self.offset,
            len: self.len,
        }
    }
}

impl<T> From<Vec<T>> for Buffer<T> {
    fn from(values: Vec<T>) -> Buffer<T> {
        Buffer::from_vec(values)
    }
}

impl<T> FromIterator<T> for Buffer<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Buffer<T> {
        Buffer::from_vec(iter.into_iter().collect())
    }
}

impl<T: PartialEq> PartialEq for Buffer<T> {
    fn eq(&self, other: &Buffer<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_allocation() {
        let b = Buffer::from_vec((0..100i64).collect());
        let s = b.slice(10, 20);
        assert_eq!(s.len(), 20);
        assert_eq!(s[0], 10);
        assert_eq!(s.alloc_id(), b.alloc_id());
        assert_eq!(s.retained_nbytes(), 100 * 8);
        assert_eq!(s.nbytes(), 20 * 8);
    }

    #[test]
    fn make_mut_copies_shared_view_only() {
        let b = Buffer::from_vec(vec![1, 2, 3, 4]);
        let mut s = b.slice(1, 2);
        s.make_mut()[0] = 9;
        // the parent is untouched
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(s.as_slice(), &[9, 3]);
        assert_ne!(s.alloc_id(), b.alloc_id());
    }

    #[test]
    fn make_mut_in_place_when_unique() {
        let mut b = Buffer::from_vec(vec![1, 2, 3]);
        let id = b.alloc_id();
        b.make_mut()[1] = 7;
        assert_eq!(b.alloc_id(), id, "unique full view must not reallocate");
        assert_eq!(b.as_slice(), &[1, 7, 3]);
    }

    #[test]
    fn compact_respects_slack() {
        let b = Buffer::from_vec((0..1000i64).collect());
        let mut s = b.slice(0, 10);
        assert!(!s.clone().compact(200.0), "within slack: no copy");
        assert!(s.compact(2.0), "beyond slack: copy");
        assert_eq!(s.retained_nbytes(), 10 * 8);
        assert_eq!(s.as_slice(), b.slice(0, 10).as_slice());
    }

    #[test]
    fn empty_and_eq() {
        let e: Buffer<i64> = Buffer::empty();
        assert!(e.is_empty());
        let a = Buffer::from_vec(vec![1, 2]);
        let b = Buffer::from_vec(vec![0, 1, 2, 3]).slice(1, 2);
        assert_eq!(a, b);
    }
}
