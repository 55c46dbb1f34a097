//! The session-aging gate: what a fetch costs — and returns — must not
//! depend on what else the session has built.
//!
//! A fetch runs on its target's ancestor closure, so the Nth statement of
//! a long-lived session must behave exactly like the only statement of a
//! fresh one. The gate compares counts that repeat exactly, never wall
//! clock: per op, the result frame is bit-identical to a fresh-session run
//! **and** the executed subtasks, the subtask graphs handed to the
//! executor, the tiler's yields, the cluster charges
//! (`net_bytes`, encoded raw/wire bytes) and the column lists of every
//! pruning projection the executor was given are equal too — pruned
//! column sets must be those of fresh-session pruning, not the union over
//! every query the session has ever seen. `makespan` and CPU seconds carry
//! measured kernel time and are not compared.
//!
//! Runs on the [`LocalExecutor`], the 4-thread [`ParallelExecutor`] and
//! the [`SimExecutor`].

use std::sync::{Arc, Mutex};
use xorbits::array::{ElemOp, NdArray, Reduction};
use xorbits::core::chunk::{ChunkKey, ChunkMeta, ChunkOp, DfStep, Payload};
use xorbits::core::config::XorbitsConfig;
use xorbits::core::error::XbResult;
use xorbits::core::local::LocalExecutor;
use xorbits::core::parallel::ParallelExecutor;
use xorbits::core::session::{DfHandle, ExecStats, Executor, Session, TensorHandle};
use xorbits::core::sql::SqlFrontend;
use xorbits::core::subtask::SubtaskGraph;
use xorbits::core::tiling::MetaView;
use xorbits::dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame};
use xorbits::runtime::{ClusterSpec, SimExecutor};
use xorbits::workloads::tpch::{sql_text, tpch_catalog, TpchData};

fn cfg() -> XorbitsConfig {
    XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: 8,
        ..Default::default()
    }
}

/// What the executor was handed since `record` last drained it (every
/// execution happens inside a `record`).
#[derive(Debug, Default, PartialEq)]
struct Handed {
    /// Subtask graphs executed.
    graphs: usize,
    /// Column list of every pruning projection, one per source chunk, in
    /// execution order.
    pruned: Vec<Vec<String>>,
}

/// Delegates to `inner`, recording what each `execute` was given.
struct Recording<E> {
    inner: E,
    handed: Mutex<Handed>,
}

impl<E> Recording<E> {
    fn new(inner: E) -> Self {
        Recording {
            inner,
            handed: Mutex::default(),
        }
    }
}

impl<E: Executor> MetaView for Recording<E> {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.inner.meta(key)
    }
}

impl<E: Executor> Executor for Recording<E> {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        let mut handed = self.handed.lock().unwrap();
        handed.graphs += 1;
        for node in &graph.chunks.nodes {
            if let ChunkOp::DfMap(step) = &node.op {
                if let DfStep::PruneTo(cols) = &**step {
                    handed.pruned.push(cols.clone());
                }
            }
        }
        drop(handed);
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

/// Everything about one op that must not depend on session age, except
/// its result.
#[derive(Debug, PartialEq)]
struct Counts {
    subtasks: usize,
    net_bytes: usize,
    encoded_raw_bytes: usize,
    encoded_wire_bytes: usize,
    /// Of the op's last fetch (a SQL text with a scalar subquery fetches
    /// more than once; `handed` covers them all).
    yields: usize,
    handed: Handed,
}

/// Runs one op on `s` and returns its result with its [`Counts`].
fn record<E: Executor, T>(
    s: &Session<Recording<E>>,
    op: impl FnOnce() -> XbResult<T>,
) -> (T, Counts) {
    s.reset_stats();
    let out = op().expect("op runs");
    let stats = s.total_stats();
    let tiling = s.last_report().expect("the op fetched").tiling;
    let counts = Counts {
        subtasks: stats.subtasks,
        net_bytes: stats.net_bytes,
        encoded_raw_bytes: stats.encoded_raw_bytes,
        encoded_wire_bytes: stats.encoded_wire_bytes,
        yields: tiling.yields,
        handed: s.with_executor(|e| std::mem::take(&mut *e.handed.lock().unwrap())),
    };
    (out, counts)
}

fn assert_same<T: PartialEq>(what: &str, aged: &(T, Counts), fresh: &(T, Counts)) {
    // frames are large: do not Debug-print them on failure
    assert!(
        aged.0 == fresh.0,
        "{what}: result differs from a fresh session's"
    );
    assert_eq!(
        aged.1, fresh.1,
        "{what}: cost differs from a fresh session's"
    );
    assert!(fresh.1.subtasks > 0, "{what}: nothing executed");
}

// ---- SQL: 22 TPC-H texts cold, then a whitespace variant of each ----------

fn variant(text: &str) -> String {
    format!("  \n{text}\t ")
}

fn sql_aged_equals_fresh<E: Executor>(mk: impl Fn() -> E) {
    let data = TpchData::new(1.0).expect("tpch data");
    let frontend = || {
        SqlFrontend::new(
            Session::new(cfg(), Recording::new(mk())),
            tpch_catalog(&data).expect("catalog"),
        )
    };
    let text = |q: u32| sql_text(q).expect("tpch text");

    // fresh: each text alone in a new session, cold then its variant
    let fresh: Vec<_> = (1..=22)
        .map(|q| {
            let fe = frontend();
            let cold = record(fe.session(), || fe.query(text(q)));
            let warm = record(fe.session(), || fe.query(&variant(text(q))));
            (cold, warm)
        })
        .collect();

    // aged: one session takes all 44 ops
    let fe = frontend();
    let cold: Vec<_> = (1..=22)
        .map(|q| record(fe.session(), || fe.query(text(q))))
        .collect();
    let warm: Vec<_> = (1..=22)
        .map(|q| record(fe.session(), || fe.query(&variant(text(q)))))
        .collect();
    let stats = fe.cache_stats();
    assert_eq!((stats.text_hits, stats.misses), (22, 22));

    for (i, (fresh_cold, fresh_warm)) in fresh.iter().enumerate() {
        assert_same(&format!("Q{} cold", i + 1), &cold[i], fresh_cold);
        assert_same(&format!("Q{} warm", i + 1), &warm[i], fresh_warm);
    }
    // the gate must see pruning at all for "pruned sets equal" to bite
    assert!(fresh.iter().any(|(c, _)| !c.1.handed.pruned.is_empty()));
}

#[test]
fn sql_session_aged_equals_fresh_local() {
    sql_aged_equals_fresh(LocalExecutor::new);
}

#[test]
fn sql_session_aged_equals_fresh_parallel() {
    sql_aged_equals_fresh(|| ParallelExecutor::with_threads(4));
}

#[test]
fn sql_session_aged_equals_fresh_sim() {
    sql_aged_equals_fresh(|| SimExecutor::new(ClusterSpec::new(4, 256 << 20)));
}

// ---- builder API: unrelated dataframe and tensor programs interleaved -----

fn table(n: usize, stride: i64) -> DataFrame {
    DataFrame::new(vec![
        (
            "k",
            Column::from_i64((0..n as i64).map(|i| i % 13).collect()),
        ),
        (
            "v",
            Column::from_f64((0..n).map(|i| i as f64 * 0.5).collect()),
        ),
        (
            "x",
            Column::from_i64((0..n as i64).map(|i| i * stride).collect()),
        ),
        ("pad", Column::from_str((0..n).map(|i| format!("p{i}")))),
    ])
    .unwrap()
}

type S<E> = Session<Recording<E>>;
type Df<E> = DfHandle<Recording<E>>;
type Tensor<E> = TensorHandle<Recording<E>>;

fn filtered<E: Executor>(s: &S<E>) -> XbResult<Df<E>> {
    s.from_df(table(900, 3))?.filter(col("x").gt(lit(30i64)))
}

fn summed<E: Executor>(a: &Df<E>) -> XbResult<Df<E>> {
    a.assign(vec![("v2".into(), col("v").mul(lit(2.0)))])?
        .groupby_agg(
            vec!["k".into()],
            vec![AggSpec::new("v2", AggFunc::Sum, "s")],
        )?
        .sort_values(vec![("k".into(), true)])
}

fn joined<E: Executor>(s: &S<E>) -> XbResult<Df<E>> {
    let left = s
        .from_df(table(400, 1))?
        .select(vec!["k".into(), "x".into()])?;
    let right = s
        .from_df(table(13, 7))?
        .select(vec!["k".into(), "v".into()])?;
    left.merge_on(&right, &["k"])?
        .sort_values(vec![("x".into(), false)])?
        .head(9)
}

fn factored<E: Executor>(s: &S<E>) -> XbResult<(Tensor<E>, Tensor<E>)> {
    s.random(&[1200, 4], 11)?.map_scalar(ElemOp::Mul, 2.0)?.qr()
}

fn q_total<E: Executor>(q: &Tensor<E>) -> XbResult<Tensor<E>> {
    q.map_scalar(ElemOp::Add, 1.0)?.reduce(Reduction::Sum)
}

fn builder_aged_equals_fresh<E: Executor>(mk: impl Fn() -> E) {
    let session = || Session::new(cfg(), Recording::new(mk()));
    let df = |s: &S<E>, h: &Df<E>| record(s, || h.fetch());
    let arr = |s: &S<E>, h: &Tensor<E>| -> (NdArray, Counts) { record(s, || h.fetch()) };

    // fresh: each fetched handle alone in its own session
    let s = session();
    let fresh_filtered = df(&s, &filtered(&s).unwrap());
    let s = session();
    let fresh_summed = df(&s, &summed(&filtered(&s).unwrap()).unwrap());
    let s = session();
    let fresh_joined = df(&s, &joined(&s).unwrap());
    let s = session();
    let fresh_q = arr(&s, &factored(&s).unwrap().0);
    let s = session();
    let fresh_r = arr(&s, &factored(&s).unwrap().1);
    let s = session();
    let fresh_total = arr(&s, &q_total(&factored(&s).unwrap().0).unwrap());

    // aged: the same programs built piecewise into one session, fetched
    // out of build order, non-sink handles included, some twice
    let s = session();
    let a = filtered(&s).unwrap();
    let (q, r) = factored(&s).unwrap();
    assert_same("Q before anything consumes it", &arr(&s, &q), &fresh_q);
    let sum = summed(&a).unwrap();
    let total = q_total(&q).unwrap();
    let j = joined(&s).unwrap();
    assert_same("join", &df(&s, &j), &fresh_joined);
    assert_same("groupby over the filter", &df(&s, &sum), &fresh_summed);
    assert_same("the filter, now a non-sink", &df(&s, &a), &fresh_filtered);
    assert_same("reduce over Q", &arr(&s, &total), &fresh_total);
    assert_same("Q, now a non-sink", &arr(&s, &q), &fresh_q);
    assert_same("R", &arr(&s, &r), &fresh_r);
    assert_same("join again", &df(&s, &j), &fresh_joined);
}

#[test]
fn builder_session_aged_equals_fresh_local() {
    builder_aged_equals_fresh(LocalExecutor::new);
}

#[test]
fn builder_session_aged_equals_fresh_parallel() {
    builder_aged_equals_fresh(|| ParallelExecutor::with_threads(4));
}

#[test]
fn builder_session_aged_equals_fresh_sim() {
    builder_aged_equals_fresh(|| SimExecutor::new(ClusterSpec::new(4, 256 << 20)));
}
