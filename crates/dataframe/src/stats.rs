//! Summary statistics — pandas `describe()` for numeric columns.

#[cfg(test)]
use crate::column::Column;
use crate::error::DfResult;
use crate::frame::DataFrame;

/// Per-column summary: count of non-null values, mean, sample standard
/// deviation, min and max.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Column name.
    pub name: String,
    /// Non-null count.
    pub count: usize,
    /// Mean of non-null values (NaN when empty).
    pub mean: f64,
    /// Sample standard deviation (NaN when fewer than 2 values).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Summarises every numeric (Int64/Float64) column — pandas `describe()`.
pub fn describe(df: &DataFrame) -> DfResult<Vec<ColumnSummary>> {
    let mut out = Vec::new();
    for (field, col) in df.schema().fields().iter().zip(df.columns()) {
        if !field.dtype.is_numeric() {
            continue;
        }
        let mut count = 0usize;
        let mut sum = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let values: Vec<f64> = (0..col.len()).filter_map(|i| col.get(i).as_f64()).collect();
        for &v in &values {
            count += 1;
            sum += v;
            min = min.min(v);
            max = max.max(v);
        }
        let mean = if count == 0 {
            f64::NAN
        } else {
            sum / count as f64
        };
        let std = if count < 2 {
            f64::NAN
        } else {
            let var =
                values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count - 1) as f64;
            var.sqrt()
        };
        out.push(ColumnSummary {
            name: field.name.clone(),
            count,
            mean,
            std,
            min,
            max,
        });
    }
    Ok(out)
}

impl ColumnSummary {
    /// Combinable partial state for distributed describe: the map stage
    /// summarises each chunk, combine merges states, exactly like the
    /// engine's other map-combine-reduce aggregations.
    pub fn merge(&self, other: &ColumnSummary) -> ColumnSummary {
        debug_assert_eq!(self.name, other.name);
        let count = self.count + other.count;
        if other.count == 0 {
            return self.clone();
        }
        if self.count == 0 {
            return other.clone();
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let mean = (self.mean * na + other.mean * nb) / count as f64;
        // parallel variance (Chan et al.); singleton halves contribute no
        // within-group variance (their std is NaN by convention)
        let m2_of = |s: &ColumnSummary| {
            if s.count > 1 {
                s.std * s.std * (s.count as f64 - 1.0)
            } else {
                0.0
            }
        };
        let delta = other.mean - self.mean;
        let m2 = m2_of(self) + m2_of(other) + delta * delta * na * nb / count as f64;
        let std = if count < 2 {
            f64::NAN
        } else {
            (m2 / (count as f64 - 1.0)).sqrt()
        };
        ColumnSummary {
            name: self.name.clone(),
            count,
            mean,
            std,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::new(vec![
            ("x", Column::from_f64(vec![1.0, 2.0, 3.0, 4.0])),
            (
                "y",
                Column::from_opt_i64(vec![Some(2), None, Some(6), Some(8)]),
            ),
            ("s", Column::from_str(["a", "b", "c", "d"])),
        ])
        .unwrap()
    }

    #[test]
    fn describe_numeric_only() {
        let s = describe(&df()).unwrap();
        assert_eq!(s.len(), 2); // string column skipped
        assert_eq!(s[0].count, 4);
        assert!((s[0].mean - 2.5).abs() < 1e-12);
        assert_eq!(s[0].min, 1.0);
        assert_eq!(s[0].max, 4.0);
        assert_eq!(s[1].count, 3); // null skipped
    }

    #[test]
    fn std_matches_reference() {
        let s = describe(&df()).unwrap();
        // sample std of [1,2,3,4] = sqrt(5/3)
        assert!((s[0].std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_whole() {
        let d = df();
        let whole = describe(&d).unwrap();
        let a = describe(&d.slice(0, 2)).unwrap();
        let b = describe(&d.slice(2, 2)).unwrap();
        for ((w, pa), pb) in whole.iter().zip(&a).zip(&b) {
            let merged = pa.merge(pb);
            assert_eq!(merged.count, w.count);
            assert!((merged.mean - w.mean).abs() < 1e-12);
            if !w.std.is_nan() {
                assert!(
                    (merged.std - w.std).abs() < 1e-9,
                    "{} vs {}",
                    merged.std,
                    w.std
                );
            }
            assert_eq!(merged.min, w.min);
            assert_eq!(merged.max, w.max);
        }
    }
}
