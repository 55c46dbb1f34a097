//! Acceptance test of the multi-level storage service (the issue's bar):
//! a TPC-H query pipeline that OOMs on the memory-only budgeted executor
//! must complete under the *same* budget once the disk tier is enabled,
//! with results equal to the unbounded run — under both spill-file
//! encodings (plain is the compatibility fallback and must not rot).

use xorbits_core::config::XorbitsConfig;
use xorbits_core::error::{XbError, XbResult};
use xorbits_core::local::LocalExecutor;
use xorbits_core::session::Session;
use xorbits_dataframe::{col, dates, lit, AggFunc::*, AggSpec, DataFrame, Scalar};
use xorbits_storage::{EncodingMode, SpillConfig, StorageConfig};
use xorbits_workloads::tpch::TpchData;

/// TPC-H Q1 (pricing summary report) against a local-executor session —
/// the same pandas-style pipeline the engine-facing port runs.
fn q1(s: &Session<LocalExecutor>, data: &TpchData) -> XbResult<DataFrame> {
    let revenue = || col("l_extendedprice").mul(lit(1.0).sub(col("l_discount")));
    let out = s
        .read_df(data.lineitem.clone())?
        .filter(col("l_shipdate").le(lit(Scalar::Date(dates::to_days(1998, 9, 2)))))?
        .assign(vec![
            ("disc_price".into(), revenue()),
            ("charge".into(), revenue().mul(lit(1.0).add(col("l_tax")))),
        ])?
        .groupby_agg(
            vec!["l_returnflag".into(), "l_linestatus".into()],
            vec![
                AggSpec::new("l_quantity", Sum, "sum_qty"),
                AggSpec::new("l_extendedprice", Sum, "sum_base_price"),
                AggSpec::new("disc_price", Sum, "sum_disc_price"),
                AggSpec::new("charge", Sum, "sum_charge"),
                AggSpec::new("l_quantity", Mean, "avg_qty"),
                AggSpec::new("l_extendedprice", Mean, "avg_price"),
                AggSpec::new("l_discount", Mean, "avg_disc"),
                AggSpec::new("l_quantity", Count, "count_order"),
            ],
        )?
        .fetch()?;
    // canonical row order for comparison
    Ok(xorbits_dataframe::sort::sort_by(
        &out,
        &[("l_returnflag", true), ("l_linestatus", true)],
    )?)
}

fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        // small chunks so the pipeline's working set is many spillable
        // chunks rather than one monolith
        chunk_limit_bytes: 16 << 10,
        ..Default::default()
    }
}

/// A budget Q1's resident chunks cannot fit in. A yield publishes only
/// what is still read, so Q1 keeps little more than its group-by partials
/// resident: it completes unspilled from 8 KiB and OOMs at 7 KiB.
const TIGHT_BUDGET: usize = 4 << 10;

#[test]
fn q1_ooms_without_spill_and_completes_with_it() {
    let data = TpchData::new(1.0).expect("tpch data");

    // unbounded: the reference answer
    let unbounded = Session::new(cfg(), LocalExecutor::new());
    let expected = q1(&unbounded, &data).expect("unbounded Q1");
    assert!(expected.num_rows() >= 4, "degenerate Q1 result");

    // same pipeline, tight budget, no disk tier: the paper's OOM
    let oom_sess = Session::new(cfg(), LocalExecutor::with_budget(TIGHT_BUDGET));
    let err = q1(&oom_sess, &data).expect_err("tight budget must OOM without spill");
    assert!(matches!(err, XbError::Oom { .. }), "got {err}");

    // same pipeline, same budget, spill enabled: completes and matches
    for encoding in [EncodingMode::Plain, EncodingMode::Auto] {
        let exec = LocalExecutor::with_storage(StorageConfig {
            memory_budget: Some(TIGHT_BUDGET),
            spill: SpillConfig::TempDir,
            encoding,
        })
        .expect("spill dir");
        let spill_sess = Session::new(cfg(), exec);
        let out = q1(&spill_sess, &data).expect("spill-enabled Q1");
        assert_eq!(
            out, expected,
            "{encoding:?}: spilled run must equal the unbounded run"
        );

        // and the disk tier really was exercised
        let stats = spill_sess.last_report().expect("report").stats;
        assert!(
            stats.spilled_bytes > 0,
            "{encoding:?}: expected spill traffic, got none"
        );
    }
}
