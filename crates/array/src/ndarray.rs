//! The dense n-dimensional array type.

use crate::error::{ArrError, ArrResult};
use std::sync::Arc;

/// A dense, row-major, contiguous `f64` n-dimensional array — the NumPy
/// `ndarray` stand-in. The distributed Tensor in `xorbits-core` holds one of
/// these per chunk.
///
/// Storage is a shared immutable buffer (`Arc<Vec<f64>>` plus a window):
/// `clone`, `reshape`, and `slice_rows` are O(1) views; mutation goes
/// through copy-on-write in [`NdArray::data_mut`].
#[derive(Clone)]
pub struct NdArray {
    data: Arc<Vec<f64>>,
    /// Element offset of the view start within `data`.
    start: usize,
    /// Number of viewed elements (`shape.iter().product()`).
    len: usize,
    shape: Vec<usize>,
}

impl NdArray {
    fn from_owned(data: Vec<f64>, shape: Vec<usize>) -> NdArray {
        let len = data.len();
        NdArray {
            data: Arc::new(data),
            start: 0,
            len,
            shape,
        }
    }

    /// Builds from raw data and shape; the product of `shape` must equal
    /// `data.len()`.
    pub fn from_vec(data: Vec<f64>, shape: Vec<usize>) -> ArrResult<NdArray> {
        let expected: usize = shape.iter().product();
        if expected != data.len() {
            return Err(ArrError::ShapeMismatch {
                expected: shape.clone(),
                found: vec![data.len()],
            });
        }
        Ok(NdArray::from_owned(data, shape))
    }

    /// All-zero array.
    pub fn zeros(shape: &[usize]) -> NdArray {
        NdArray::from_owned(vec![0.0; shape.iter().product()], shape.to_vec())
    }

    /// All-one array.
    pub fn ones(shape: &[usize]) -> NdArray {
        NdArray::from_owned(vec![1.0; shape.iter().product()], shape.to_vec())
    }

    /// Constant array.
    pub fn full(shape: &[usize], value: f64) -> NdArray {
        NdArray::from_owned(vec![value; shape.iter().product()], shape.to_vec())
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> NdArray {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        NdArray::from_owned(data, vec![n, n])
    }

    /// 1-D array from an iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> NdArray {
        let data: Vec<f64> = iter.into_iter().collect();
        let shape = vec![data.len()];
        NdArray::from_owned(data, shape)
    }

    /// `arange(n)` as f64.
    pub fn arange(n: usize) -> NdArray {
        NdArray::from_iter((0..n).map(|i| i as f64))
    }

    /// The shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical heap bytes of the viewed elements (the runtime's
    /// transfer-cost unit).
    pub fn nbytes(&self) -> usize {
        self.len * 8
    }

    /// Bytes of the whole allocation this view keeps alive.
    pub fn retained_nbytes(&self) -> usize {
        self.data.len() * 8
    }

    /// Identity of the underlying allocation — stable across clones and
    /// views; the storage service dedups on it to charge shared buffers
    /// once.
    pub fn alloc_id(&self) -> usize {
        Arc::as_ptr(&self.data) as usize
    }

    /// Materializes the view when the retained allocation exceeds
    /// `slack ×` the logical size. Returns true if a copy happened.
    pub fn compact(&mut self, slack: f64) -> bool {
        if self.start == 0 && self.len == self.data.len() {
            return false;
        }
        if (self.data.len() as f64) <= (self.len.max(1) as f64) * slack.max(1.0) {
            return false;
        }
        let owned = self.data().to_vec();
        self.data = Arc::new(owned);
        self.start = 0;
        true
    }

    /// Raw data slice (row-major).
    pub fn data(&self) -> &[f64] {
        &self.data[self.start..self.start + self.len]
    }

    /// Mutable raw data slice (copy-on-write: a shared or partial view is
    /// materialized into a fresh owned allocation first).
    pub fn data_mut(&mut self) -> &mut [f64] {
        if self.start != 0 || self.len != self.data.len() || Arc::strong_count(&self.data) != 1 {
            let owned = self.data().to_vec();
            self.data = Arc::new(owned);
            self.start = 0;
        }
        Arc::get_mut(&mut self.data)
            .expect("array uniquely owned after materialize")
            .as_mut_slice()
    }

    /// Element at a multi-index.
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data()[self.flat_offset(index)]
    }

    /// Sets element at a multi-index.
    pub fn set(&mut self, index: &[usize], value: f64) {
        let off = self.flat_offset(index);
        self.data_mut()[off] = value;
    }

    /// 2-D element accessor.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert_eq!(self.ndim(), 2);
        self.data()[i * self.shape[1] + j]
    }

    /// 2-D element setter.
    #[inline]
    pub fn set_at(&mut self, i: usize, j: usize, value: f64) {
        debug_assert_eq!(self.ndim(), 2);
        let cols = self.shape[1];
        self.data_mut()[i * cols + j] = value;
    }

    fn flat_offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.shape.len());
        let mut off = 0;
        let mut stride = 1;
        for d in (0..self.shape.len()).rev() {
            debug_assert!(index[d] < self.shape[d], "index out of bounds");
            off += index[d] * stride;
            stride *= self.shape[d];
        }
        off
    }

    /// Reshapes to another shape with the same element count — O(1), the
    /// buffer is shared.
    pub fn reshape(&self, shape: &[usize]) -> ArrResult<NdArray> {
        let expected: usize = shape.iter().product();
        if expected != self.len {
            return Err(ArrError::ShapeMismatch {
                expected: shape.to_vec(),
                found: self.shape.clone(),
            });
        }
        Ok(NdArray {
            data: Arc::clone(&self.data),
            start: self.start,
            len: self.len,
            shape: shape.to_vec(),
        })
    }

    /// 2-D transpose.
    pub fn transpose(&self) -> ArrResult<NdArray> {
        if self.ndim() != 2 {
            return Err(ArrError::Unsupported("transpose of non-2D array".into()));
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let d = self.data();
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = d[i * n + j];
            }
        }
        NdArray::from_vec(out, vec![n, m])
    }

    /// Rows `[start, end)` of a 2-D array (or elements of a 1-D array) —
    /// O(1), shares the buffer (rows are contiguous in row-major layout).
    pub fn slice_rows(&self, start: usize, end: usize) -> ArrResult<NdArray> {
        let end = end.min(self.shape[0]);
        if start > end {
            return Err(ArrError::OutOfBounds {
                index: start,
                len: self.shape[0],
            });
        }
        let row: usize = self.shape[1..].iter().product::<usize>().max(1);
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Ok(NdArray {
            data: Arc::clone(&self.data),
            start: self.start + start * row,
            len: (end - start) * row,
            shape,
        })
    }

    /// Columns `[start, end)` of a 2-D array.
    pub fn slice_cols(&self, start: usize, end: usize) -> ArrResult<NdArray> {
        if self.ndim() != 2 {
            return Err(ArrError::Unsupported("slice_cols of non-2D array".into()));
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let end = end.min(n);
        if start > end {
            return Err(ArrError::OutOfBounds {
                index: start,
                len: n,
            });
        }
        let w = end - start;
        let d = self.data();
        let mut data = Vec::with_capacity(m * w);
        for i in 0..m {
            data.extend_from_slice(&d[i * n + start..i * n + end]);
        }
        NdArray::from_vec(data, vec![m, w])
    }

    /// Vertical concatenation (axis 0). Trailing dimensions must agree.
    pub fn concat_rows(parts: &[&NdArray]) -> ArrResult<NdArray> {
        let first = parts
            .first()
            .ok_or_else(|| ArrError::Unsupported("concat of zero arrays".into()))?;
        let tail = &first.shape[1..];
        let mut rows = 0;
        for p in parts {
            if &p.shape[1..] != tail {
                return Err(ArrError::ShapeMismatch {
                    expected: first.shape.clone(),
                    found: p.shape.clone(),
                });
            }
            rows += p.shape[0];
        }
        let mut data = Vec::with_capacity(rows * tail.iter().product::<usize>().max(1));
        for p in parts {
            data.extend_from_slice(p.data());
        }
        let mut shape = first.shape.clone();
        shape[0] = rows;
        Ok(NdArray::from_owned(data, shape))
    }

    /// Applies a function elementwise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> NdArray {
        NdArray::from_owned(
            self.data().iter().map(|&v| f(v)).collect(),
            self.shape.clone(),
        )
    }

    /// Maximum absolute elementwise difference against another array
    /// (test/verification helper).
    pub fn max_abs_diff(&self, other: &NdArray) -> f64 {
        assert_eq!(self.shape, other.shape);
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Logical equality: views with different base offsets compare by content.
impl PartialEq for NdArray {
    fn eq(&self, other: &NdArray) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

impl std::fmt::Debug for NdArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NdArray")
            .field("shape", &self.shape)
            .field("data", &self.data())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let a = NdArray::from_vec(vec![1., 2., 3., 4., 5., 6.], vec![2, 3]).unwrap();
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.at(1, 2), 6.0);
        assert_eq!(a.get(&[0, 1]), 2.0);
        assert!(NdArray::from_vec(vec![1.0], vec![2, 3]).is_err());
    }

    #[test]
    fn eye_and_full() {
        let i = NdArray::eye(3);
        assert_eq!(i.at(1, 1), 1.0);
        assert_eq!(i.at(0, 1), 0.0);
        assert_eq!(NdArray::full(&[2, 2], 7.0).at(1, 1), 7.0);
    }

    #[test]
    fn transpose_2d() {
        let a = NdArray::from_vec(vec![1., 2., 3., 4., 5., 6.], vec![2, 3]).unwrap();
        let t = a.transpose().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.at(2, 1), 6.0);
    }

    #[test]
    fn slicing() {
        let a = NdArray::from_vec((0..12).map(|x| x as f64).collect(), vec![4, 3]).unwrap();
        let r = a.slice_rows(1, 3).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.at(0, 0), 3.0);
        let c = a.slice_cols(1, 3).unwrap();
        assert_eq!(c.shape(), &[4, 2]);
        assert_eq!(c.at(0, 0), 1.0);
    }

    #[test]
    fn slice_rows_is_zero_copy_and_cow() {
        let a = NdArray::from_vec((0..12).map(|x| x as f64).collect(), vec![4, 3]).unwrap();
        let mut r = a.slice_rows(1, 3).unwrap();
        assert_eq!(
            r.alloc_id(),
            a.alloc_id(),
            "row slice must share the buffer"
        );
        assert_eq!(r.retained_nbytes(), 12 * 8);
        assert_eq!(r.nbytes(), 6 * 8);
        // write triggers copy-on-write; parent untouched
        r.set_at(0, 0, 99.0);
        assert_ne!(r.alloc_id(), a.alloc_id());
        assert_eq!(a.at(1, 0), 3.0);
        // compact frees the parent allocation
        let mut s = a.slice_rows(0, 1).unwrap();
        assert!(s.compact(2.0));
        assert_eq!(s.retained_nbytes(), 3 * 8);
        assert_eq!(s.data(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn concat() {
        let a = NdArray::ones(&[2, 3]);
        let b = NdArray::zeros(&[1, 3]);
        let v = NdArray::concat_rows(&[&a, &b]).unwrap();
        assert_eq!(v.shape(), &[3, 3]);
        assert_eq!(v.at(2, 0), 0.0);
        // shape mismatch
        assert!(NdArray::concat_rows(&[&a, &NdArray::zeros(&[1, 2])]).is_err());
    }

    #[test]
    fn reshape_and_map() {
        let a = NdArray::arange(6);
        let m = a.reshape(&[2, 3]).unwrap();
        assert_eq!(m.at(1, 0), 3.0);
        assert!(a.reshape(&[4, 2]).is_err());
        let sq = a.map(|v| v * v);
        assert_eq!(sq.data()[3], 9.0);
    }
}
