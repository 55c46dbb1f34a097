//! Auto rechunk — the *static* application of the paper's Algorithm 1
//! (§V-D), run once at plan time over estimated sizes.
//!
//! Given the raw `shape`, per-dimension constraints (`dim_to_size`: the
//! chunk extent an operator requires on specific dimensions, e.g.
//! `{1: 10000}` to force tall-and-skinny chunks for QR), the element size
//! and the configured chunk byte limit, the algorithm chooses chunk extents
//! for every remaining dimension so each chunk stays under the limit.
//!
//! Since PR 9 the same algorithm is also re-applied *continuously* at run
//! time: [`crate::retile`] harvests real shuffle-partition histograms at
//! quiesce points and re-tiles skewed waves mid-run (`RetileMode::Auto`).
//! This module remains the estimate-driven first cut those refinements
//! start from.

use std::collections::BTreeMap;

/// Per-dimension chunk extents: `result[d]` lists the chunk sizes along
/// dimension `d`, summing to `shape[d]`.
pub type ChunkDims = Vec<Vec<usize>>;

/// Paper Algorithm 1. `dim_to_size` maps a dimension index to the required
/// chunk extent on that dimension; all other dimensions are split
/// automatically so that chunk bytes ≤ `max_chunk_size`.
pub fn auto_rechunk(
    shape: &[usize],
    dim_to_size: &BTreeMap<usize, usize>,
    itemsize: usize,
    max_chunk_size: usize,
) -> ChunkDims {
    let ndim = shape.len();
    // Fixed dimensions expand to repeated extents covering the dimension.
    let mut result: ChunkDims = vec![Vec::new(); ndim];
    for (&d, &size) in dim_to_size {
        let size = size.min(shape[d]).max(1);
        let mut left = shape[d];
        while left > 0 {
            let take = size.min(left);
            result[d].push(take);
            left -= take;
        }
        if result[d].is_empty() {
            result[d].push(0);
        }
    }

    // Lines 3-6: collect unconstrained dimensions.
    let mut left_dims: Vec<usize> = (0..ndim).filter(|d| !dim_to_size.contains_key(d)).collect();
    let mut left_unsplit: BTreeMap<usize, i64> =
        left_dims.iter().map(|&d| (d, shape[d] as i64)).collect();
    // Bytes of one chunk cell across all already-decided dimensions
    // ("all items in dim_to_size × itemsize", line 8); finished free
    // dimensions join this product as they complete (line 17).
    let mut decided_extent: usize = dim_to_size
        .iter()
        .map(|(&d, &s)| s.min(shape[d]).max(1))
        .product();

    // Lines 7-19: iterate until every free dimension is fully split.
    while !left_dims.is_empty() {
        let nbytes = decided_extent.max(1) * itemsize.max(1);
        let divided = (max_chunk_size / nbytes).max(1) as f64;
        let n_left = left_dims.len() as f64;
        // line 11: cur_size = max(divided^(1/left_dims), 1)
        let cur_size = divided.powf(1.0 / n_left).floor().max(1.0) as i64;

        let mut finished = Vec::new();
        for &d in &left_dims {
            let unsplit = left_unsplit[&d];
            let take = unsplit.min(cur_size).max(1);
            result[d].push(take as usize);
            let rest = unsplit - take;
            left_unsplit.insert(d, rest);
            if rest <= 0 {
                finished.push(d);
                decided_extent = decided_extent
                    .max(1)
                    .saturating_mul(result[d].iter().copied().max().unwrap_or(1));
            }
        }
        left_dims.retain(|d| !finished.contains(d));
    }

    // Zero-length dims yield a single empty chunk for consistency.
    for (d, r) in result.iter_mut().enumerate() {
        if r.is_empty() {
            r.push(shape[d]);
        }
    }
    result
}

/// Row splits for an arbitrary-dimension tensor limited by chunk bytes
/// (no constrained dimensions beyond keeping trailing dims whole).
pub fn row_splits(shape: &[usize], itemsize: usize, max_chunk_size: usize) -> Vec<usize> {
    if shape.is_empty() {
        return vec![];
    }
    let mut constraint = BTreeMap::new();
    for (d, &s) in shape.iter().enumerate().skip(1) {
        constraint.insert(d, s);
    }
    let dims = auto_rechunk(shape, &constraint, itemsize, max_chunk_size);
    dims[0].clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example: QR on a (10000, 10000) f64 matrix with
    /// `dim_to_size = {1: 10000}` and the 128 MiB default chunk limit
    /// produces row blocks (1677, 10000) × 5 and a final (1615, 10000).
    #[test]
    fn paper_example_qr_10000() {
        let mut c = BTreeMap::new();
        c.insert(1usize, 10000);
        let dims = auto_rechunk(&[10000, 10000], &c, 8, 128 << 20);
        assert_eq!(dims[1], vec![10000]);
        let rows = &dims[0];
        assert_eq!(rows.iter().sum::<usize>(), 10000);
        assert_eq!(rows[0], 1677);
        assert_eq!(*rows.last().unwrap(), 1615);
        assert_eq!(rows.len(), 6);
        // every chunk under the limit
        for &r in rows {
            assert!(r * 10000 * 8 <= 128 << 20);
        }
    }

    #[test]
    fn unconstrained_2d_splits_both_dims() {
        let dims = auto_rechunk(&[1000, 1000], &BTreeMap::new(), 8, 8 * 100 * 100);
        // each chunk must be <= 100x100 elements (= limit/itemsize)
        let max0 = dims[0].iter().copied().max().unwrap();
        let max1 = dims[1].iter().copied().max().unwrap();
        assert!(max0 * max1 * 8 <= 8 * 100 * 100 * 2, "chunk too large");
        assert_eq!(dims[0].iter().sum::<usize>(), 1000);
        assert_eq!(dims[1].iter().sum::<usize>(), 1000);
    }

    #[test]
    fn small_input_single_chunk() {
        let mut c = BTreeMap::new();
        c.insert(1usize, 4);
        let dims = auto_rechunk(&[10, 4], &c, 8, 1 << 20);
        assert_eq!(dims[0], vec![10]);
        assert_eq!(dims[1], vec![4]);
    }

    #[test]
    fn constrained_dim_larger_than_shape_clamps() {
        let mut c = BTreeMap::new();
        c.insert(1usize, 999);
        let dims = auto_rechunk(&[8, 3], &c, 8, 1 << 20);
        assert_eq!(dims[1], vec![3]);
    }

    #[test]
    fn row_splits_cover_and_respect_limit() {
        let splits = row_splits(&[1000, 16], 8, 16 * 8 * 100);
        assert_eq!(splits.iter().sum::<usize>(), 1000);
        for &s in &splits {
            assert!(s <= 100);
        }
    }

    #[test]
    fn tiny_limit_degrades_to_unit_chunks() {
        let dims = auto_rechunk(&[5], &BTreeMap::new(), 8, 1);
        assert_eq!(dims[0], vec![1, 1, 1, 1, 1]);
    }
}
