//! Skew-adversarial workload family (PR 9).
//!
//! Synthetic datasets engineered so that *static* hash partitioning is
//! maximally wrong: group keys and join keys follow a Zipf distribution,
//! so one shuffle partition receives a large share of the rows while most
//! partitions stay tiny. They exercise the mid-run skew-aware re-tiling
//! path (`xorbits_core::retile`, switched on by
//! [`xorbits_runtime::ClusterSpec::with_retile`]):
//!
//! * [`run_groupby_nunique`] — a non-decomposable aggregation, so the
//!   planner shuffles raw rows by group key and the reduce partition
//!   holding the hot key dwarfs the rest. Re-tiling splits it into
//!   `DistinctLocal` runs that dedup in parallel before one cheap final
//!   `GroupbyDirect`.
//! * [`run_groupby_sum`] — the decomposable control: map-side
//!   pre-aggregation makes the partials proportional to *distinct groups*
//!   per chunk (uniform under hashing), so row skew never reaches the
//!   reduce side. Under the skew family's planner configuration the
//!   aggregated estimate is small enough that the plan tree-reduces and
//!   never shuffles; forced onto shuffle-reduce
//!   (`tree_reduce_threshold_bytes: 0`) its `GroupbyFinalize` wave is one
//!   re-tiling leaves alone by design.
//! * [`run_lopsided_join`] — a fact table with Zipf foreign keys joined to
//!   a small dimension table under a forced shuffle join (broadcast
//!   disabled). The hot head key is an orphan reference (no dimension
//!   row), so its probe partition is pure shuffle-and-probe cost: the
//!   re-tiler splits it into contiguous probe runs that each join against
//!   the shared build side.
//!
//! Every generator is seeded and chunk-stable (`DfSource::Generator`
//! closures derive each row from its absolute index), so two runs — or two
//! engines — see bit-identical inputs.

use std::sync::Arc;
use xorbits_array::prng::{mix, Xoshiro256, Zipf};
use xorbits_core::error::XbResult;
use xorbits_core::session::{Executor, Session};
use xorbits_core::tileable::DfSource;
use xorbits_dataframe::{AggFunc, AggSpec, Column, DataFrame, JoinType};

/// Number of dimension rows in the lopsided join (small enough that the
/// split's per-run build clone costs little, large enough to be a real
/// table).
pub const DIM_ROWS: usize = 400;

/// The skew family's shared dataset: one Zipf-keyed fact table and one
/// small sequential-key dimension table.
#[derive(Clone)]
pub struct SkewData {
    /// Fact table `(g: i64 zipf key, u: i64 low-cardinality tag, v: i64)`.
    pub fact: DfSource,
    /// Dimension table `(d_key: i64 in 2..=DIM_ROWS + 1, d_w: f64)` —
    /// deliberately missing the hot head key `1`.
    pub dim: DfSource,
    /// Fact row count.
    pub rows: usize,
    /// Zipf exponent the fact keys were drawn with.
    pub skew: f64,
}

/// Builds the family's dataset: `rows` fact rows whose keys follow
/// `Zipf(n_keys, skew)` (key 1 is the hot head), deterministic in `seed`.
/// Keys are drawn from `1..=n_keys.min(DIM_ROWS)`; the dimension table
/// covers keys `2..=DIM_ROWS + 1`, so the hot head key is an *orphan*
/// foreign key (the classic sentinel/unknown-reference skew pathology)
/// while every tail key matches exactly one dimension row.
pub fn skew_data(rows: usize, n_keys: usize, skew: f64, seed: u64) -> XbResult<SkewData> {
    let n_keys = n_keys.clamp(2, DIM_ROWS);
    let zipf = Zipf::new(n_keys, skew);
    let fact = DfSource::Generator {
        rows,
        bytes_per_row: 24,
        gen: Arc::new(move |start, len| {
            let mut g = Vec::with_capacity(len);
            let mut u = Vec::with_capacity(len);
            let mut v = Vec::with_capacity(len);
            for i in start..start + len {
                // one RNG per row keyed by absolute index: the draw stream
                // is independent of how the generator is chunked
                let mut rng = Xoshiro256::seed_from_u64(mix(seed ^ i as u64));
                g.push(zipf.sample(&mut rng) as i64 + 1); // ranks are 0-based, keys 1-based
                u.push((mix(seed.wrapping_add(1) ^ i as u64) % 48) as i64);
                v.push((mix(seed.wrapping_add(2) ^ i as u64) % 1000) as i64);
            }
            Ok(DataFrame::new(vec![
                ("g", Column::from_i64(g)),
                ("u", Column::from_i64(u)),
                ("v", Column::from_i64(v)),
            ])?)
        }),
        label: format!("read_csv(zipf_fact s={skew})"),
    };
    let dim = DfSource::materialized(DataFrame::new(vec![
        (
            "d_key",
            Column::from_i64((2..=DIM_ROWS as i64 + 1).collect()),
        ),
        (
            "d_w",
            Column::from_f64(
                (0..DIM_ROWS)
                    .map(|i| (mix(seed.wrapping_add(3) ^ i as u64) % 10_000) as f64 / 100.0)
                    .collect(),
            ),
        ),
    ])?);
    Ok(SkewData {
        fact,
        dim,
        rows,
        skew,
    })
}

/// Non-decomposable aggregation over the Zipf keys: `groupby(g).agg(
/// nunique(u))`. The planner's nunique path shuffles raw rows, so the
/// reduce partition holding key 1 carries ~the head's share of the table.
pub fn run_groupby_nunique<E: Executor>(s: &Session<E>, data: &SkewData) -> XbResult<DataFrame> {
    s.read_df(data.fact.clone())?
        .groupby_agg(
            vec!["g".into()],
            vec![AggSpec::new("u", AggFunc::Nunique, "nu")],
        )?
        .sort_values(vec![("g".into(), true)])?
        .fetch()
}

/// Decomposable control: `groupby(g).agg(sum(v))` — map-side partials are
/// one row per distinct group, so row skew never reaches the reduce side
/// (tree-reduce by default; a shuffle-reduce wave is not re-tiled).
pub fn run_groupby_sum<E: Executor>(s: &Session<E>, data: &SkewData) -> XbResult<DataFrame> {
    s.read_df(data.fact.clone())?
        .groupby_agg(
            vec!["g".into()],
            vec![AggSpec::new("v", AggFunc::Sum, "sv")],
        )?
        .sort_values(vec![("g".into(), true)])?
        .fetch()
}

/// Lopsided shuffle join: the fact table's Zipf foreign keys against the
/// small dimension table, whose hot head key is an orphan (no dimension
/// row), so the hot probe partition is all shuffle cost and little output.
/// Run it with `broadcast_threshold_bytes: 0` so the planner cannot
/// sidestep the skew by broadcasting the small side — the point is to
/// hand the re-tiler a hot probe partition.
pub fn run_lopsided_join<E: Executor>(s: &Session<E>, data: &SkewData) -> XbResult<DataFrame> {
    let fact = s.read_df(data.fact.clone())?;
    let dim = s.read_df(data.dim.clone())?;
    fact.merge(
        &dim,
        vec!["g".into()],
        vec!["d_key".into()],
        JoinType::Inner,
    )?
    .fetch()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorbits_core::config::XorbitsConfig;
    use xorbits_core::local::LocalExecutor;

    fn local(cfg: XorbitsConfig) -> Session<LocalExecutor> {
        Session::new(cfg, LocalExecutor::new())
    }

    #[test]
    fn generator_is_chunk_stable_and_head_heavy() {
        let data = skew_data(10_000, 400, 1.5, 7).unwrap();
        let DfSource::Generator { gen, .. } = &data.fact else {
            panic!("fact must be a generator");
        };
        let whole = gen(0, 10_000).unwrap();
        let a = gen(0, 3_000).unwrap();
        let b = gen(3_000, 7_000).unwrap();
        assert_eq!(whole.num_rows(), 10_000);
        // chunk-stability: the same rows regardless of the cut
        for (col_idx, name) in ["g", "u", "v"].iter().enumerate() {
            let _ = col_idx;
            let w = whole.column(name).unwrap();
            let ca = a.column(name).unwrap();
            let cb = b.column(name).unwrap();
            for r in 0..3_000 {
                assert_eq!(w.get(r), ca.get(r), "{name} row {r}");
            }
            for r in 0..7_000 {
                assert_eq!(w.get(3_000 + r), cb.get(r), "{name} row {}", 3_000 + r);
            }
        }
        // head-heaviness: key 1 dominates under s = 1.5
        let g = whole.column("g").unwrap();
        let hot = (0..10_000)
            .filter(|&r| g.get(r).as_i64() == Some(1))
            .count();
        assert!(hot > 2_000, "hot-key rows: {hot}");
    }

    #[test]
    fn workloads_agree_with_local_oracle() {
        let data = skew_data(20_000, 400, 1.5, 11).unwrap();
        let cfg = XorbitsConfig {
            chunk_limit_bytes: 64 << 10,
            broadcast_threshold_bytes: 0,
            ..Default::default()
        };
        let nu = run_groupby_nunique(&local(cfg.clone()), &data).unwrap();
        assert!(nu.num_rows() > 100, "distinct keys: {}", nu.num_rows());
        let sv = run_groupby_sum(&local(cfg.clone()), &data).unwrap();
        assert_eq!(sv.num_rows(), nu.num_rows());
        let j = run_lopsided_join(&local(cfg), &data).unwrap();
        // the hot head key 1 is an orphan: exactly the tail-key rows survive
        let DfSource::Generator { gen, .. } = &data.fact else {
            panic!("fact must be a generator");
        };
        let fact = gen(0, 20_000).unwrap();
        let g = fact.column("g").unwrap();
        let tail = (0..20_000)
            .filter(|&r| g.get(r).as_i64() != Some(1))
            .count();
        assert_eq!(j.num_rows(), tail, "one dim match per tail-key fact row");
        assert!(
            tail < 16_000,
            "the orphan head must carry real skew: {tail}"
        );
    }
}
