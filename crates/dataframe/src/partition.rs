//! Partitioning primitives used by the distributed layers: hash partitioning
//! for shuffles and size-based row splitting for tiling.

use crate::column::Column;
use crate::error::DfResult;
use crate::frame::DataFrame;
use crate::hash::combine;

/// Fused hash → partition-id pass for a single null-free numeric key (the
/// common shuffle shape): row hashes stay in registers instead of being
/// materialized into a `Vec<u64>` and re-read. Produces exactly the same
/// ids as the `hash_rows` path (`combine(0, value)` is the row hash of a
/// single key column). Returns false, having written nothing, when the key
/// doesn't qualify.
fn fused_pids(col: &Column, n: usize, pids: &mut [u32], counts: &mut [usize]) -> bool {
    if !n.is_power_of_two() {
        return false;
    }
    debug_assert_eq!(pids.len(), col.len());
    let mask = n as u64 - 1;
    macro_rules! fill {
        ($values:expr, $to_bits:expr) => {
            for (slot, &v) in pids.iter_mut().zip($values) {
                let p = (combine(0, $to_bits(v)) & mask) as u32;
                counts[p as usize] += 1;
                *slot = p;
            }
        };
    }
    match col {
        Column::Int64(a) if a.validity.is_none() => {
            fill!(a.values.as_slice(), |v: i64| v as u64);
        }
        Column::Date(a) if a.validity.is_none() => {
            fill!(a.values.as_slice(), |v: i32| v as u64);
        }
        Column::Float64(a) if a.validity.is_none() => {
            fill!(a.values.as_slice(), |v: f64| v.to_bits());
        }
        _ => return false,
    }
    true
}

/// Maps row hashes to partition ids, counting per partition. `% n` is a
/// mask when `n` is a power of two (it almost always is — partition counts
/// come from doubling heuristics).
fn pids_from_hashes(hashes: &[u64], n: usize, pids: &mut [u32], counts: &mut [usize]) {
    if n.is_power_of_two() {
        let mask = n as u64 - 1;
        for (slot, h) in pids.iter_mut().zip(hashes) {
            let p = (h & mask) as u32;
            counts[p as usize] += 1;
            *slot = p;
        }
    } else {
        for (slot, h) in pids.iter_mut().zip(hashes) {
            let p = (h % n as u64) as u32;
            counts[p as usize] += 1;
            *slot = p;
        }
    }
}

/// Splits `df` into `n` partitions by key hash; row `i` goes to partition
/// `hash(keys[i]) % n`. This is the kernel primitive under both Xorbits'
/// shuffle-reduce and the static baseline's up-front shuffle.
///
/// Single-pass scatter: each row's partition id is computed once, partition
/// sizes are counted, and every column writes straight into pre-sized typed
/// per-partition builders ([`crate::column::Column::scatter`]). No
/// `Vec<Vec<usize>>` index buckets and no per-partition `take` re-walk.
pub fn hash_partition(df: &DataFrame, keys: &[&str], n: usize) -> DfResult<Vec<DataFrame>> {
    assert!(n > 0, "partition count must be positive");
    let nrows = df.num_rows();
    let mut pids: Vec<u32> = vec![0; nrows];
    crate::mem::advise_huge(pids.as_ptr(), nrows);
    let mut counts = vec![0usize; n];
    let fused = match keys {
        [k] => fused_pids(df.column(k)?, n, &mut pids, &mut counts),
        _ => false,
    };
    if !fused {
        pids_from_hashes(&df.hash_rows(keys)?, n, &mut pids, &mut counts);
    }
    let mut part_cols: Vec<Vec<Column>> = (0..n)
        .map(|_| Vec::with_capacity(df.num_columns()))
        .collect();
    for col in df.columns() {
        for (p, out) in col.scatter(&pids, &counts).into_iter().zip(&mut part_cols) {
            out.push(p);
        }
    }
    Ok(part_cols
        .into_iter()
        .enumerate()
        .map(|(p, cols)| DataFrame::from_parts(df.schema().clone(), cols, counts[p]))
        .collect())
}

/// Splits rows into exactly `n` near-equal contiguous chunks
/// (the static baseline's "decide partition count up front").
pub fn split_even(df: &DataFrame, n: usize) -> Vec<DataFrame> {
    assert!(n > 0, "partition count must be positive");
    let rows = df.num_rows();
    let base = rows / n;
    let extra = rows % n;
    let mut out = Vec::with_capacity(n);
    let mut offset = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push(df.slice(offset, len));
        offset += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn df(n: usize) -> DataFrame {
        DataFrame::new(vec![("k", Column::from_i64((0..n as i64).collect()))]).unwrap()
    }

    #[test]
    fn hash_partition_covers_all_rows() {
        let d = df(100);
        let parts = hash_partition(&d, &["k"], 4).unwrap();
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.num_rows()).sum::<usize>(), 100);
        // determinism: same key always lands in same partition
        let parts2 = hash_partition(&d, &["k"], 4).unwrap();
        for (a, b) in parts.iter().zip(&parts2) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn hash_partition_colocates_equal_keys() {
        let d = DataFrame::new(vec![("k", Column::from_i64(vec![7, 7, 7, 3, 3]))]).unwrap();
        let parts = hash_partition(&d, &["k"], 3).unwrap();
        let with_7: Vec<_> = parts
            .iter()
            .filter(|p| (0..p.num_rows()).any(|i| p.column("k").unwrap().get(i) == 7i64.into()))
            .collect();
        assert_eq!(with_7.len(), 1);
        assert!(with_7[0].num_rows() >= 3);
    }

    #[test]
    fn split_even_sizes() {
        let parts = split_even(&df(10), 3);
        let sizes: Vec<_> = parts.iter().map(|p| p.num_rows()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        // more partitions than rows → empty tails
        let parts = split_even(&df(2), 4);
        assert_eq!(parts.iter().map(|p| p.num_rows()).sum::<usize>(), 2);
    }
}
