//! What a fetch may depend on besides its own target: nothing.
//!
//! A fetch runs on the target's ancestor closure with the target as the
//! unique sink, so (1) whatever was built *on top of* a handle cannot take
//! columns or chunks away from it, and (2) the graph is locked only to
//! extract that closure — handles keep building on other threads while an
//! executor runs, and an executor that panics cannot poison graph building:
//! it costs the session its executor (later fetches are typed errors), not
//! its graph or its reports.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xorbits_array::NdArray;
use xorbits_core::chunk::{ChunkKey, ChunkMeta, Payload};
use xorbits_core::config::XorbitsConfig;
use xorbits_core::error::XbResult;
use xorbits_core::local::LocalExecutor;
use xorbits_core::session::{ExecStats, Executor, ResultCache, Session};
use xorbits_core::subtask::SubtaskGraph;
use xorbits_core::tiling::MetaView;
use xorbits_dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame};

fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 1 << 10,
        ..Default::default()
    }
}

fn frame(n: usize) -> DataFrame {
    DataFrame::new(vec![
        ("k", Column::from_str((0..n).map(|i| format!("g{}", i % 4)))),
        ("v", Column::from_f64((0..n).map(|i| i as f64).collect())),
        ("x", Column::from_i64((0..n as i64).collect())),
        (
            "w",
            Column::from_i64((0..n as i64).map(|i| i * 3).collect()),
        ),
    ])
    .unwrap()
}

/// ISSUE 13's reproduction: pruning used to seed "keep everything" only at
/// nodes with zero consumers, so building anything on a handle silently
/// dropped columns from its later fetches.
#[test]
fn fetching_a_non_sink_dataframe_keeps_all_its_columns() {
    let s = Session::new(cfg(), LocalExecutor::new());
    let a = s
        .from_df(frame(400))
        .unwrap()
        .filter(col("x").gt(lit(1i64)))
        .unwrap();
    let first = a.fetch().unwrap();
    assert_eq!(first.num_columns(), 4);

    let agg = a
        .groupby_agg(vec!["k".into()], vec![AggSpec::new("v", AggFunc::Sum, "s")])
        .unwrap();
    assert_eq!(a.fetch().unwrap(), first, "a consumer must not prune `a`");
    assert_eq!(agg.fetch().unwrap().num_rows(), 4);
    assert_eq!(a.fetch().unwrap(), first);
}

#[test]
fn fetching_qr_slot_0_after_slot_1_fed_a_matmul() {
    let s = Session::new(cfg(), LocalExecutor::new());
    let (q, r) = s.random(&[256, 4], 7).unwrap().qr().unwrap();
    let first = q.fetch().unwrap();
    assert_eq!(first.shape(), &[256, 4]);

    // give the QR node a consumer through its R handle, then fetch Q again
    let w = s
        .tensor(NdArray::from_vec(vec![1.0; 8], vec![4, 2]).unwrap())
        .unwrap();
    let consumer = r.matmul(&w).unwrap();
    assert_eq!(q.fetch().unwrap(), first);
    consumer.fetch().unwrap();
    assert_eq!(q.fetch().unwrap(), first);
    assert_eq!(r.fetch().unwrap().shape(), &[4, 4]);
}

/// A `LocalExecutor` whose `execute` first does what `gate` says.
struct Gated {
    inner: LocalExecutor,
    gate: Box<dyn FnMut() + Send>,
}

impl MetaView for Gated {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.inner.meta(key)
    }
}

impl Executor for Gated {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        (self.gate)();
        self.inner.execute(graph)
    }
    fn payload(&self, key: ChunkKey) -> Option<Arc<Payload>> {
        self.inner.payload(key)
    }
    fn clear(&mut self) {
        self.inner.clear()
    }
    fn release(&mut self, keys: &[ChunkKey]) {
        self.inner.release(keys)
    }
}

fn gated(gate: impl FnMut() + Send + 'static) -> Session<Gated> {
    Session::new(
        cfg(),
        Gated {
            inner: LocalExecutor::new(),
            gate: Box::new(gate),
        },
    )
}

#[test]
fn handles_build_while_a_fetch_is_parked_inside_the_executor() {
    let (entered_tx, entered_rx): (Sender<()>, Receiver<()>) = channel();
    let (resume_tx, resume_rx): (Sender<()>, Receiver<()>) = channel();
    // parks until `resume_tx` is dropped; later calls pass straight through
    let s = gated(move || {
        entered_tx.send(()).unwrap();
        let _ = resume_rx.recv();
    });
    let target = s.from_df(frame(40)).unwrap().head(3).unwrap();
    let (built_tx, built_rx) = channel();

    std::thread::scope(|scope| {
        let fetcher = scope.spawn(|| target.fetch());
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the fetch reaches the executor");

        // the fetch now sits inside `execute` holding the run state; a
        // builder on another thread must still get the graph
        let builder = scope.spawn(|| {
            let h = s
                .read_df(xorbits_core::tileable::DfSource::materialized(frame(8)))
                .and_then(|h| h.filter(col("x").gt(lit(2i64))))
                .and_then(|h| h.head(2));
            built_tx.send(h.map(|h| h.id())).unwrap();
        });
        let built = built_rx.recv_timeout(Duration::from_secs(30));
        // unpark the fetch before asserting, so a failure cannot hang
        drop(resume_tx);
        builder.join().unwrap();
        assert!(
            built
                .expect("building blocked on the running fetch")
                .is_ok(),
            "building failed"
        );
        assert_eq!(fetcher.join().unwrap().unwrap().num_rows(), 3);
    });
}

#[test]
fn a_panicking_executor_leaves_the_session_able_to_build() {
    let s = gated(|| panic!("executor fault"));
    let doomed = s.from_df(frame(40)).unwrap().head(3).unwrap();
    let died = std::thread::scope(|scope| scope.spawn(|| doomed.fetch()).join());
    assert!(
        died.is_err(),
        "the executor's panic reaches the fetching thread"
    );

    // the graph was never locked across `execute`, so it is not poisoned
    let fresh = s
        .from_df(frame(8))
        .and_then(|h| h.filter(col("x").gt(lit(2i64))))
        .and_then(|h| h.merge_on(&doomed, &["k"]));
    assert!(
        fresh.is_ok(),
        "graph building must survive: {:?}",
        fresh.err()
    );

    // the executor may be torn mid-run: fetching on it again is a typed
    // error that says what to do, not a second panic
    for handle in [&doomed, &fresh.unwrap()] {
        let refused = handle.fetch().expect_err("the executor is gone");
        assert!(refused.to_string().contains("new session"), "{refused}");
    }
    // what earlier fetches reported is still readable
    assert_eq!(s.total_stats(), ExecStats::default());
    assert!(s.last_report().is_none());
    s.reset_stats();
}

/// A cache that panics while locked, as a buggy cache (or another session's
/// panicking fetch holding it) would.
struct PanickingCache;

impl ResultCache for PanickingCache {
    fn lookup(&mut self, _key: u64) -> Option<Vec<Arc<Payload>>> {
        panic!("cache fault")
    }
    fn insert(&mut self, _key: u64, _sources: &[u64], _payloads: &[Arc<Payload>]) {}
}

#[test]
fn a_poisoned_result_cache_is_a_typed_error() {
    let cache: Arc<Mutex<dyn ResultCache>> = Arc::new(Mutex::new(PanickingCache));
    let poisoner = Session::new(cfg(), LocalExecutor::new());
    poisoner.set_result_cache(cache.clone());
    let doomed = poisoner.from_df(frame(8)).unwrap();
    let died = std::thread::scope(|scope| scope.spawn(|| doomed.fetch()).join());
    assert!(
        died.is_err(),
        "the cache's panic reaches the fetching thread"
    );

    // another session sharing the cache gets an error, not the panic
    let s = Session::new(cfg(), LocalExecutor::new());
    s.set_result_cache(cache);
    let refused = s.from_df(frame(8)).unwrap().fetch().expect_err("poisoned");
    assert!(refused.to_string().contains("result cache"), "{refused}");
}
