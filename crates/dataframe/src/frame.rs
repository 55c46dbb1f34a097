//! The `DataFrame`: an ordered collection of equal-length named columns.

use crate::bitmap::Bitmap;
use crate::column::Column;
use crate::error::{DfError, DfResult};
use crate::scalar::Scalar;
use crate::schema::{Field, Schema};
use std::sync::Arc;

/// An immutable, columnar dataframe. All mutating operations return a new
/// frame; column buffers are *shared* between frames (clone/slice are O(1)
/// views), with copy-on-write on mutation. The memory-accounting runtime
/// above charges [`DataFrame::retained_nbytes`], deduplicated by allocation
/// via [`DataFrame::push_allocs`].
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    num_rows: usize,
}

impl DataFrame {
    /// Builds a dataframe from `(name, column)` pairs.
    pub fn new(pairs: Vec<(impl Into<String>, Column)>) -> DfResult<DataFrame> {
        let mut fields = Vec::with_capacity(pairs.len());
        let mut columns = Vec::with_capacity(pairs.len());
        let mut num_rows = None;
        for (name, col) in pairs {
            let n = col.len();
            if *num_rows.get_or_insert(n) != n {
                return Err(DfError::LengthMismatch {
                    expected: num_rows.unwrap(),
                    found: n,
                });
            }
            fields.push(Field::new(name, col.data_type()));
            columns.push(col);
        }
        Ok(DataFrame {
            schema: Schema::new(fields)?,
            columns,
            num_rows: num_rows.unwrap_or(0),
        })
    }

    /// Assembles a frame from columns already known to match `schema`
    /// (kernel-internal: partition/join/groupby build typed outputs and
    /// skip the per-pair validation of [`DataFrame::new`]).
    pub(crate) fn from_parts(
        schema: Arc<Schema>,
        columns: Vec<Column>,
        num_rows: usize,
    ) -> DataFrame {
        debug_assert_eq!(schema.fields().len(), columns.len());
        debug_assert!(columns.iter().all(|c| c.len() == num_rows));
        DataFrame {
            schema,
            columns,
            num_rows,
        }
    }

    /// An empty frame with the given schema.
    pub fn empty(schema: Arc<Schema>) -> DataFrame {
        let columns = schema
            .fields()
            .iter()
            .map(|f| Column::from_scalars(&[], f.dtype).expect("empty column"))
            .collect();
        DataFrame {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Approximate *logical* heap bytes of all columns (viewed rows only).
    pub fn nbytes(&self) -> usize {
        self.columns.iter().map(|c| c.nbytes()).sum()
    }

    /// Bytes of all distinct allocations this frame keeps alive. Each
    /// shared allocation is counted once, even when several columns (or a
    /// column and its validity bitmap) view it.
    pub fn retained_nbytes(&self) -> usize {
        let mut allocs = Vec::new();
        self.push_allocs(&mut allocs);
        allocs.sort_unstable();
        allocs.dedup();
        allocs.iter().map(|(_, bytes)| bytes).sum()
    }

    /// Appends `(alloc_id, retained_bytes)` for every buffer backing this
    /// frame, so the storage service can charge shared allocations once.
    pub fn push_allocs(&self, out: &mut Vec<(usize, usize)>) {
        for c in &self.columns {
            c.push_allocs(out);
        }
    }

    /// Materializes any column buffer whose retained allocation exceeds
    /// `slack ×` its logical size (a small view pinning a large parent).
    /// Returns true if any buffer was copied.
    pub fn compact(&mut self, slack: f64) -> bool {
        let mut changed = false;
        for c in &mut self.columns {
            changed |= c.compact(slack);
        }
        changed
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> DfResult<&Column> {
        Ok(&self.columns[self.schema.index_of(name)?])
    }

    /// Column by position.
    pub fn column_at(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Row `i` as scalars.
    pub fn row(&self, i: usize) -> DfResult<Vec<Scalar>> {
        if i >= self.num_rows {
            return Err(DfError::OutOfBounds {
                index: i,
                len: self.num_rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.get(i)).collect())
    }

    // ---- projection --------------------------------------------------------

    /// Keeps only `names`, in the given order.
    pub fn select(&self, names: &[&str]) -> DfResult<DataFrame> {
        let pairs = names
            .iter()
            .map(|n| Ok((n.to_string(), self.column(n)?.clone())))
            .collect::<DfResult<Vec<_>>>()?;
        DataFrame::new(pairs)
    }

    /// Adds or replaces a column.
    pub fn with_column(&self, name: &str, col: Column) -> DfResult<DataFrame> {
        if !self.columns.is_empty() && col.len() != self.num_rows {
            return Err(DfError::LengthMismatch {
                expected: self.num_rows,
                found: col.len(),
            });
        }
        let mut pairs: Vec<(String, Column)> = self
            .schema
            .names()
            .iter()
            .zip(&self.columns)
            .filter(|(n, _)| **n != name)
            .map(|(n, c)| (n.to_string(), c.clone()))
            .collect();
        pairs.push((name.to_string(), col));
        DataFrame::new(pairs)
    }

    /// Renames columns via `(old, new)` pairs.
    pub fn rename(&self, renames: &[(&str, &str)]) -> DfResult<DataFrame> {
        let pairs = self
            .schema
            .names()
            .iter()
            .zip(&self.columns)
            .map(|(n, c)| {
                let new = renames
                    .iter()
                    .find(|(old, _)| old == n)
                    .map(|(_, new)| new.to_string())
                    .unwrap_or_else(|| n.to_string());
                (new, c.clone())
            })
            .collect();
        DataFrame::new(pairs)
    }

    // ---- row selection ------------------------------------------------------

    /// Rows at `indices` (may repeat / reorder).
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        DataFrame {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            num_rows: indices.len(),
        }
    }

    /// Rows where `mask` is set.
    pub fn filter(&self, mask: &Bitmap) -> DfResult<DataFrame> {
        if mask.len() != self.num_rows {
            return Err(DfError::LengthMismatch {
                expected: self.num_rows,
                found: mask.len(),
            });
        }
        Ok(DataFrame {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
            num_rows: mask.count_set(),
        })
    }

    /// Contiguous rows `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> DataFrame {
        let len = len.min(self.num_rows.saturating_sub(offset));
        DataFrame {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.slice(offset, len)).collect(),
            num_rows: len,
        }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        self.slice(0, n.min(self.num_rows))
    }

    /// Vertical concatenation; schemas must match by name and type.
    pub fn concat(parts: &[&DataFrame]) -> DfResult<DataFrame> {
        let first = one_schema(parts)?;
        let ncols = first.num_columns();
        let mut columns = Vec::with_capacity(ncols);
        for ci in 0..ncols {
            let cols: Vec<&Column> = parts.iter().map(|p| &p.columns[ci]).collect();
            columns.push(Column::concat(&cols)?);
        }
        Ok(DataFrame {
            schema: first.schema.clone(),
            columns,
            num_rows: parts.iter().map(|p| p.num_rows).sum(),
        })
    }

    /// The parts a multi-part input (the chunks of one partition) stands
    /// for: zero-row parts are dropped when some part has rows — an empty
    /// chunk may carry a divergent inferred schema — and the rest must
    /// share one schema, as in [`DataFrame::concat`].
    pub fn live_parts<'a>(parts: &[&'a DataFrame]) -> DfResult<Vec<&'a DataFrame>> {
        let mut live: Vec<&DataFrame> = parts.iter().copied().filter(|d| d.num_rows > 0).collect();
        if live.is_empty() {
            live = parts.to_vec();
        }
        one_schema(&live)?;
        Ok(live)
    }

    // ---- hashing -------------------------------------------------------------

    /// Row hashes over the given key columns.
    pub fn hash_rows(&self, keys: &[&str]) -> DfResult<Vec<u64>> {
        let mut hashes = vec![0u64; self.num_rows];
        crate::mem::advise_huge(hashes.as_ptr(), hashes.len());
        for k in keys {
            self.column(k)?.hash_combine(&mut hashes);
        }
        Ok(hashes)
    }

    /// True when rows `i` (self) and `j` (other) agree on all key columns.
    pub fn rows_eq(
        &self,
        i: usize,
        keys: &[&str],
        other: &DataFrame,
        other_keys: &[&str],
        j: usize,
    ) -> DfResult<bool> {
        for (a, b) in keys.iter().zip(other_keys) {
            if !self.column(a)?.eq_at(i, other.column(b)?, j) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ---- misc row ops ----------------------------------------------------------

    /// Replaces nulls in `name` with `value` (typed copy-on-write path;
    /// an all-valid column is shared, not copied).
    pub fn fillna(&self, name: &str, value: &Scalar) -> DfResult<DataFrame> {
        let filled = self.column(name)?.fillna(value);
        self.with_column_in_place(name, filled)
    }

    /// Drops rows containing a null in any of `subset` (or in any column
    /// when `subset` is `None`) — pandas `dropna`.
    pub fn dropna(&self, subset: Option<&[&str]>) -> DfResult<DataFrame> {
        let names: Vec<&str> = match subset {
            Some(s) => s.to_vec(),
            None => self.schema.names(),
        };
        // word-wise AND of validity bitmaps; all-valid columns contribute
        // nothing and columns without nulls skip the pass entirely
        let mut mask: Option<Bitmap> = None;
        for n in names {
            if let Some(v) = self.column(n)?.validity() {
                mask = Some(match mask {
                    None => v.clone(),
                    Some(m) => m.and(v),
                });
            }
        }
        match mask {
            None => Ok(self.clone()),
            Some(mask) => self.filter(&mask),
        }
    }

    /// Like [`with_column`](Self::with_column) but preserves the original
    /// column position when replacing.
    pub fn with_column_in_place(&self, name: &str, col: Column) -> DfResult<DataFrame> {
        if self.schema.contains(name) {
            let idx = self.schema.index_of(name)?;
            let pairs = self
                .schema
                .names()
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    if i == idx {
                        (n.to_string(), col.clone())
                    } else {
                        (n.to_string(), self.columns[i].clone())
                    }
                })
                .collect();
            DataFrame::new(pairs)
        } else {
            self.with_column(name, col)
        }
    }

    /// Deduplicates rows on `subset` keys (or all columns), keeping the
    /// first occurrence — pandas `drop_duplicates`.
    pub fn drop_duplicates(&self, subset: Option<&[&str]>) -> DfResult<DataFrame> {
        let keys: Vec<&str> = match subset {
            Some(s) => s.to_vec(),
            None => self.schema.names(),
        };
        let hashes = self.hash_rows(&keys)?;
        // resolve key columns once; the collision check compares typed rows
        // directly instead of re-resolving names per candidate pair
        let key_cols: Vec<&Column> = keys
            .iter()
            .map(|k| self.column(k))
            .collect::<DfResult<_>>()?;
        let mut seen: crate::hash::FxHashMap<u64, Vec<usize>> = crate::hash::FxHashMap::default();
        let mut keep = Vec::new();
        'rows: for (i, &h) in hashes.iter().enumerate() {
            let bucket = seen.entry(h).or_default();
            for &j in bucket.iter() {
                if key_cols.iter().all(|c| c.eq_at(i, c, j)) {
                    continue 'rows;
                }
            }
            bucket.push(i);
            keep.push(i);
        }
        Ok(self.take(&keep))
    }
}

/// The first of `parts`, once every part is known to share its schema.
fn one_schema<'a>(parts: &[&'a DataFrame]) -> DfResult<&'a DataFrame> {
    let first = parts
        .first()
        .ok_or_else(|| DfError::Unsupported("concat of zero frames".into()))?;
    if let Some(p) = parts.iter().find(|p| p.schema != first.schema) {
        return Err(DfError::Unsupported(format!(
            "concat schema mismatch: {:?} vs {:?}",
            first.schema.names(),
            p.schema.names()
        )));
    }
    Ok(first)
}

impl std::fmt::Display for DataFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const MAX_ROWS: usize = 10;
        let names = self.schema.names();
        writeln!(f, "{}", names.join("\t"))?;
        for i in 0..self.num_rows.min(MAX_ROWS) {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(i).to_string()).collect();
            writeln!(f, "{}", row.join("\t"))?;
        }
        if self.num_rows > MAX_ROWS {
            writeln!(f, "... ({} rows total)", self.num_rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::new(vec![
            ("a", Column::from_i64(vec![1, 2, 3, 4])),
            ("b", Column::from_str(["w", "x", "y", "z"])),
        ])
        .unwrap()
    }

    #[test]
    fn build_and_inspect() {
        let d = df();
        assert_eq!(d.num_rows(), 4);
        assert_eq!(d.num_columns(), 2);
        assert!(d.nbytes() > 0);
        assert_eq!(d.row(1).unwrap()[1], Scalar::Str("x".into()));
    }

    #[test]
    fn length_mismatch_rejected() {
        let r = DataFrame::new(vec![
            ("a", Column::from_i64(vec![1])),
            ("b", Column::from_i64(vec![1, 2])),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn select_rename() {
        let d = df();
        assert_eq!(d.select(&["b"]).unwrap().num_columns(), 1);
        let r = d.rename(&[("a", "A")]).unwrap();
        assert!(r.schema().contains("A"));
    }

    #[test]
    fn take_filter_slice_head() {
        let d = df();
        assert_eq!(
            d.take(&[3, 0]).column("a").unwrap(),
            &Column::from_i64(vec![4, 1])
        );
        let mask = Bitmap::from_iter([false, true, true, false]);
        assert_eq!(d.filter(&mask).unwrap().num_rows(), 2);
        assert_eq!(d.slice(1, 2).num_rows(), 2);
        assert_eq!(d.head(3).num_rows(), 3);
        // slice past the end clamps
        assert_eq!(d.slice(3, 10).num_rows(), 1);
    }

    #[test]
    fn concat_frames() {
        let d = df();
        let c = DataFrame::concat(&[&d, &d]).unwrap();
        assert_eq!(c.num_rows(), 8);
    }

    #[test]
    fn with_column_replaces_in_place() {
        let d = df();
        let d2 = d
            .with_column_in_place("a", Column::from_i64(vec![9, 9, 9, 9]))
            .unwrap();
        assert_eq!(d2.schema().names(), vec!["a", "b"]);
        assert_eq!(d2.column("a").unwrap().get(0), Scalar::Int(9));
    }

    #[test]
    fn fillna_and_dropna() {
        let d = DataFrame::new(vec![(
            "x",
            Column::from_opt_f64(vec![Some(1.0), None, Some(3.0)]),
        )])
        .unwrap();
        let filled = d.fillna("x", &Scalar::Float(0.0)).unwrap();
        assert_eq!(filled.column("x").unwrap().get(1), Scalar::Float(0.0));
        let dropped = d.dropna(None).unwrap();
        assert_eq!(dropped.num_rows(), 2);
    }

    #[test]
    fn drop_duplicates_subset() {
        let d = DataFrame::new(vec![
            ("k", Column::from_i64(vec![1, 1, 2, 2, 1])),
            ("v", Column::from_i64(vec![10, 20, 30, 40, 50])),
        ])
        .unwrap();
        let u = d.drop_duplicates(Some(&["k"])).unwrap();
        assert_eq!(u.num_rows(), 2);
        // keeps first occurrence
        assert_eq!(u.column("v").unwrap().get(0), Scalar::Int(10));
        let all = d.drop_duplicates(None).unwrap();
        assert_eq!(all.num_rows(), 5);
    }

    #[test]
    fn display_truncates() {
        let d = DataFrame::new(vec![("a", Column::from_i64((0..20).collect()))]).unwrap();
        let s = d.to_string();
        assert!(s.contains("(20 rows total)"));
    }
}
