//! The golden tiling gate: the chunk graphs the tiler hands to the executor
//! are pinned node for node, and so is the subtask partition graph-level
//! fusion cuts them into.
//!
//! For each program and config the test records every subtask graph the
//! executor was given and fingerprints it twice:
//!
//! * the chunk graph as `(graphs executed, chunk nodes, FNV-1a of
//!   format!("{:?}", graph.chunks))` — the Debug form prints each node's op
//!   name, input keys and output keys, so the same fingerprint means the
//!   same nodes in the same order with the same key numbering;
//! * the partition as `(graphs executed, subtasks, FNV-1a of each
//!   subtask's node list in order)` — the same fingerprint means the same
//!   coloring, node for node.
//!
//! Every executor, counter, trace and benchmark number downstream of tiling
//! and fusion is then identical by construction.
//!
//! A failure means tiling or fusion output changed. A change that intends
//! it re-pins the constants (the failing run prints the whole table) and
//! says so in CHANGES.md; a refactor must not.
//!
//! Two structural properties are asserted on every program as well: graph
//! fusion never changes the chunk graph (the fusion-off run hands over the
//! same chunk graphs as the default run), and a join reads its pieces as
//! they lie, so no `Concat` output — from this graph or an earlier one of
//! the session — is ever a `Join` input.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use xorbits::array::{ElemOp, Reduction};
use xorbits::core::chunk::{ChunkKey, ChunkMeta, ChunkOp, Payload};
use xorbits::core::config::XorbitsConfig;
use xorbits::core::error::XbResult;
use xorbits::core::local::LocalExecutor;
use xorbits::core::session::{ExecStats, Executor, Session};
use xorbits::core::sql::SqlFrontend;
use xorbits::core::subtask::SubtaskGraph;
use xorbits::core::tiling::MetaView;
use xorbits::dataframe::{col, lit, AggFunc, AggSpec, Column, DataFrame};
use xorbits::workloads::tpch::{sql_text, tpch_catalog, TpchData};

/// `(graphs executed, chunk nodes or subtasks, FNV-1a over their Debug
/// forms)`.
type Fingerprint = (usize, usize, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Adds one graph of `items` items, whose Debug form is `text`, to `fp`.
fn absorb(fp: &mut Fingerprint, items: usize, text: String) {
    fp.0 += 1;
    fp.1 += items;
    for b in text.bytes() {
        fp.2 = (fp.2 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A [`LocalExecutor`] that fingerprints every graph it is handed, chunks
/// and subtask partition, and counts `Join` inputs that some `Concat`
/// produced.
struct Recording {
    inner: LocalExecutor,
    seen: Mutex<Fingerprint>,
    partition: Mutex<Fingerprint>,
    concat_outputs: Mutex<HashSet<ChunkKey>>,
    joins_on_concat: Mutex<usize>,
}

impl MetaView for Recording {
    fn meta(&self, key: ChunkKey) -> Option<ChunkMeta> {
        self.inner.meta(key)
    }
}

impl Executor for Recording {
    fn execute(&mut self, graph: &SubtaskGraph) -> XbResult<ExecStats> {
        let chunks = format!("{:?}", graph.chunks);
        absorb(&mut self.seen.lock().unwrap(), graph.chunks.len(), chunks);
        let nodes: Vec<&Vec<usize>> = graph.subtasks.iter().map(|st| &st.nodes).collect();
        let partition = format!("{nodes:?}");
        absorb(&mut self.partition.lock().unwrap(), graph.len(), partition);
        let mut concats = self.concat_outputs.lock().unwrap();
        for node in &graph.chunks.nodes {
            if matches!(node.op, ChunkOp::Concat) {
                concats.extend(&node.outputs);
            }
        }
        let fed = graph
            .chunks
            .nodes
            .iter()
            .filter(|n| matches!(n.op, ChunkOp::Join { .. }));
        *self.joins_on_concat.lock().unwrap() += fed
            .flat_map(|n| &n.inputs)
            .filter(|k| concats.contains(k))
            .count();
        drop(concats);
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

type S = Session<Recording>;

fn session(cfg: &XorbitsConfig) -> S {
    let recording = Recording {
        inner: LocalExecutor::new(),
        seen: Mutex::new((0, 0, FNV_OFFSET)),
        partition: Mutex::new((0, 0, FNV_OFFSET)),
        concat_outputs: Mutex::new(HashSet::new()),
        joins_on_concat: Mutex::new(0),
    };
    Session::new(cfg.clone(), recording)
}

/// `(chunk-graph fingerprint, subtask-partition fingerprint)`.
fn fingerprints(s: &S) -> (Fingerprint, Fingerprint) {
    s.with_executor(|e| (*e.seen.lock().unwrap(), *e.partition.lock().unwrap()))
}

/// `Join` inputs the session's graphs took from a `Concat`.
fn joins_on_concat(s: &S) -> usize {
    s.with_executor(|e| *e.joins_on_concat.lock().unwrap())
}

/// The five configs: default, graph fusion off, dynamic tiling off,
/// tree-reduce and broadcast thresholds forced to 256 B, static tiling with
/// estimate-driven broadcasts. The tables below pin each config's chunk
/// graphs in its column, except column 1: graph fusion off hands over the
/// default's chunk graphs (asserted), so that column pins the default's
/// subtask partition instead — what graph fusion decides.
fn configs() -> [XorbitsConfig; 5] {
    let base = XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: 8,
        ..Default::default()
    };
    [
        base.clone(),
        base.clone().without_graph_fusion(),
        base.clone().without_dynamic_tiling(),
        XorbitsConfig {
            tree_reduce_threshold_bytes: 256,
            broadcast_threshold_bytes: 256,
            ..base.clone()
        },
        XorbitsConfig {
            broadcast_from_estimates: true,
            ..base.without_dynamic_tiling()
        },
    ]
}

fn table(n: usize, stride: i64) -> DataFrame {
    DataFrame::new(vec![
        (
            "k",
            Column::from_i64((0..n as i64).map(|i| i % 13).collect()),
        ),
        ("g", Column::from_str((0..n).map(|i| format!("g{}", i % 5)))),
        (
            "v",
            Column::from_f64((0..n).map(|i| i as f64 * 0.5).collect()),
        ),
        (
            "x",
            Column::from_i64((0..n as i64).map(|i| i * stride).collect()),
        ),
    ])
    .unwrap()
}

/// One session, fourteen fetches: every dataframe tile rule and both
/// sides of each dynamic decision that small data can reach.
fn dataframe_script(s: &S) -> XbResult<()> {
    let names = |cols: &[&str]| cols.iter().map(|c| c.to_string()).collect::<Vec<_>>();
    let df = s.from_df(table(1500, 3))?;
    let small = s.from_df(table(13, 7))?.select(names(&["k", "v"]))?;
    // distinct (map + tree of DistinctLocal, auto-merge in front)
    df.select(names(&["k", "g"]))?
        .drop_duplicates(None)?
        .fetch()?;
    // keyed nunique: shuffle + direct
    df.groupby_agg(
        names(&["k"]),
        vec![AggSpec::new("g", AggFunc::Nunique, "n")],
    )?
    .fetch()?;
    // whole-frame nunique: gather + direct
    df.groupby_agg(vec![], vec![AggSpec::new("g", AggFunc::Nunique, "n")])?
        .fetch()?;
    // whole-frame sum: map + tree, no yield
    df.groupby_agg(vec![], vec![AggSpec::new("v", AggFunc::Sum, "s")])?
        .fetch()?;
    // sort + head: the top-k peephole
    df.sort_values(vec![("x".into(), false)])?
        .head(7)?
        .fetch()?;
    // full sort: gather + local sort
    df.sort_values(vec![("v".into(), true)])?.fetch()?;
    // multi-chunk head: pass-through chunks and one boundary slice
    df.head(700)?.fetch()?;
    // iloc over unknown-length chunks (Fig 3c)
    df.filter(col("x").gt(lit(90i64)))?.iloc_row(555)?.fetch()?;
    df.pivot_table("k", "g", "v", AggFunc::Sum)?.fetch()?;
    df.value_counts("g")?.fetch()?;
    // merge: small right side
    df.merge_on(&small, &["k"])?.fetch()?;
    // concat + head over pass-through layouts
    df.concat(&[&s.from_df(table(400, 1))?])?
        .head(1700)?
        .fetch()?;
    // a fusable elementwise chain with nothing dynamic behind it
    df.filter(col("x").gt(lit(600i64)))?
        .assign(vec![("w".into(), col("v").add(lit(1.0)))])?
        .rename(vec![("w".into(), "v1".into())])?
        .fetch()?;
    // filter + assign + groupby: one yield on the partials, then tree- or
    // shuffle-reduce
    df.filter(col("x").gt(lit(300i64)))?
        .assign(vec![("v".into(), col("v").mul(lit(2.0)))])?
        .groupby_agg(
            names(&["k"]),
            vec![
                AggSpec::new("v", AggFunc::Sum, "s"),
                AggSpec::new("x", AggFunc::Max, "m"),
            ],
        )?
        .fetch()?;
    Ok(())
}

/// One session, nine fetches: every tensor tile rule, both QR outputs,
/// one-block / multi-block TSQR and the auto-rechunk path.
fn tensor_script(s: &S) -> XbResult<()> {
    let a = s.random(&[1200, 4], 11)?;
    let scaled = a.map_scalar(ElemOp::Mul, 2.0)?;
    scaled.fetch()?;
    let (q, r) = scaled.qr()?;
    q.fetch()?;
    r.fetch()?;
    q.map_scalar(ElemOp::Add, 1.0)?
        .reduce(Reduction::Sum)?
        .fetch()?;
    let w = s.tensor(xorbits::array::NdArray::from_vec(
        vec![2.0, -1.0, 0.5, 3.0],
        vec![4, 1],
    )?)?;
    let y = a.matmul(&w)?;
    y.fetch()?;
    a.lstsq(&y)?.fetch()?;
    // aligned chunkings
    a.binary(&scaled, ElemOp::Add)?.fetch()?;
    // 5-row blocks of a 200-column matrix: auto-rechunk to tall-skinny
    // blocks, the short remainder folded into the last one
    let (q2, r2) = s.randn(&[300, 200], 5)?.qr()?;
    q2.fetch()?;
    r2.fetch()?;
    Ok(())
}

/// Per TPC-H query, one fingerprint per config (see [`configs`]).
#[rustfmt::skip]
const TPCH: [[Fingerprint; 5]; 22] = [
    // Q1
    [(2, 221, 0x108b69004664191a), (2, 55, 0xaa6d230d3e087d7d), (1, 258, 0xad3ec10d566630b1), (2, 258, 0xcba2fa3941a33e4f), (1, 258, 0xad3ec10d566630b1)],
    // Q2
    [(6, 37, 0x24eb2afc9e483ce4), (6, 18, 0xd1292ff9cb1ffb19), (1, 165, 0x4419ba410394ad53), (6, 37, 0x24eb2afc9e483ce4), (1, 138, 0x32c5f818eefde006)],
    // Q3
    [(4, 221, 0x4308ed39374a4b8b), (4, 104, 0x85606aeb8ec8958f), (1, 267, 0xe2720138d27a8e94), (4, 267, 0x4ce31575d628f0e2), (1, 258, 0x2a9e8c6793c6ba7b)],
    // Q4
    [(3, 214, 0xac7224525bef6ddf), (3, 107, 0xb4069f073f9f540c), (1, 232, 0x5aefa2f148b56acc), (3, 232, 0xe068fdeacfda33f4), (1, 232, 0x5aefa2f148b56acc)],
    // Q5
    [(6, 203, 0x742c97383a24c3d3), (6, 124, 0xbd2b74f9949ef818), (1, 284, 0x2d610111fa1d1317), (7, 249, 0xe47e31e33cf59b46), (1, 248, 0x5ef2df3eee9deb43)],
    // Q6
    [(1, 220, 0xe7732f4fcc6b93a4), (1, 55, 0xb88db24169da283f), (1, 220, 0xe7732f4fcc6b93a4), (1, 220, 0xe7732f4fcc6b93a4), (1, 220, 0xe7732f4fcc6b93a4)],
    // Q7
    [(6, 207, 0xa9aff256399670d5), (6, 104, 0x416bc2ac23f0ede5), (1, 320, 0x6cf5bc23e308f8b5), (7, 260, 0x99b7b501747150b4), (1, 350, 0x00761ac67833862a)],
    // Q8
    [(8, 181, 0xfb3aafdac9c50e02), (8, 105, 0xb3dc8f966ab78c7c), (1, 340, 0xe88faa41ff54deb6), (8, 181, 0xfb3aafdac9c50e02), (1, 295, 0x7444d664f9f352ac)],
    // Q9
    [(7, 258, 0xe42705a92ac6b86c), (7, 175, 0x6e15834fd325bdd6), (1, 285, 0xaaaa512ce80074f9), (7, 319, 0xa3d026de38f38c01), (1, 255, 0x925f346365f0af11)],
    // Q10
    [(5, 210, 0xc669125f1c07c2c3), (5, 105, 0x9bb0d4a30f9e6564), (1, 285, 0x338a48e101bdc3fc), (5, 285, 0xa46859c36a7ddfb4), (1, 267, 0xf8f2a958ebe4daf8)],
    // Q11
    [(7, 59, 0xf7e81339980733a8), (7, 24, 0x2ecab40f7d507a26), (2, 152, 0x0b02088f7c3bdfc9), (7, 70, 0x2de9937e31b46221), (2, 80, 0x0bacb77a7563de76)],
    // Q12
    [(3, 150, 0xda2fa5a351b76bd6), (3, 53, 0x62b39d4a6cd41b61), (1, 232, 0x1e93d6ac042b3354), (3, 214, 0x0f28cb58753e6d07), (1, 232, 0x1e93d6ac042b3354)],
    // Q13
    [(3, 55, 0x3034d836997b8b82), (3, 27, 0xf62de4c02395ed5c), (1, 95, 0x0e249a59ff814d40), (4, 95, 0x805841094cd3234a), (1, 95, 0x0e249a59ff814d40)],
    // Q14
    [(2, 142, 0xf5952c812bc520eb), (2, 48, 0xadcdeb00b2a2c2c7), (1, 203, 0xd290d7dce5670ad5), (2, 203, 0x91ce0f86930659e7), (1, 203, 0xd290d7dce5670ad5)],
    // Q15
    [(5, 420, 0x9ea2cca3a78dbc74), (5, 86, 0x7a51ffc30aeef77b), (2, 559, 0x5c2666fdc09dab8f), (5, 533, 0xe9388d70ce465e90), (2, 550, 0x9fad248892029dac)],
    // Q16
    [(3, 38, 0xe7a2d1cabbdaaa73), (3, 21, 0x520aa3b99b3581d0), (1, 72, 0xfa20975374d7e763), (3, 45, 0x2145d2d86125c687), (1, 63, 0xbf7e1fcc98a7eef6)],
    // Q17
    [(4, 127, 0x96d785a330acb07e), (4, 60, 0x7828d7528c3dc731), (1, 213, 0xd726568475cb74e7), (4, 127, 0x96d785a330acb07e), (1, 213, 0xd726568475cb74e7)],
    // Q18
    [(4, 168, 0xf04d7a8289850b4c), (4, 73, 0x8f730abb43f37976), (1, 258, 0x16294b45f83bf30d), (4, 209, 0x7f649f799d67f6ab), (1, 249, 0x99cd6d658472deb1)],
    // Q19
    [(2, 209, 0xbcc54e67664c6765), (2, 99, 0xe902766a4b669c14), (1, 209, 0x43910f9d274c8b7b), (2, 209, 0xbcc54e67664c6765), (1, 209, 0x43910f9d274c8b7b)],
    // Q20
    [(6, 222, 0x921c17d5f2f6510e), (6, 79, 0x028a12df77d89735), (1, 328, 0x568b88489427efa5), (6, 297, 0x9a4bb9f23dd816d9), (1, 303, 0x2595763b95e2bdbb)],
    // Q21
    [(7, 592, 0xcf947c068e31be7a), (7, 308, 0x32808aea99b216a4), (1, 538, 0x479f59f98a99badf), (7, 608, 0x934d6756af847b2f), (1, 513, 0x4e12c717d8388072)],
    // Q22
    [(3, 32, 0x66aa7691900ef9bf), (3, 11, 0x73afde8b592e8bcc), (2, 73, 0x8740e637b698ae87), (4, 55, 0xc75764d17d484f87), (2, 73, 0x8740e637b698ae87)],
];
const DATAFRAME: [Fingerprint; 5] = [
    (19, 246, 0x901ab54e3819ab34),
    (19, 124, 0xc1e7cdda5980c706),
    (15, 286, 0xa7bf41cc65f5c168),
    (19, 271, 0x9fa7e0a43c5e053a),
    (15, 277, 0x1b4a3aeb63af65c9),
];
const TENSOR: [Fingerprint; 5] = [
    (9, 282, 0x6cbd22ab7516df57),
    (9, 206, 0x3423b0f552ec0863),
    (9, 282, 0x6cbd22ab7516df57),
    (9, 282, 0x6cbd22ab7516df57),
    (9, 282, 0x6cbd22ab7516df57),
];

fn row(fps: &[Fingerprint]) -> String {
    let cells: Vec<String> = fps
        .iter()
        .map(|(g, n, h)| format!("({g}, {n}, {h:#018x})"))
        .collect();
    format!("[{}]", cells.join(", "))
}

/// One table row from one program's runs under [`configs`]: each config's
/// chunk fingerprint, except column 1, which holds the default config's
/// partition fingerprint once graph fusion is seen to leave the chunk
/// graphs alone.
fn table_row(runs: &[(Fingerprint, Fingerprint)], program: &str) -> Vec<Fingerprint> {
    assert_eq!(
        runs[1].0, runs[0].0,
        "{program}: graph fusion changed the chunk graph"
    );
    let mut row: Vec<Fingerprint> = runs.iter().map(|(chunks, _)| *chunks).collect();
    row[1] = runs[0].1;
    row
}

#[test]
fn chunk_graphs_are_pinned_node_for_node() {
    let cfgs = configs();
    let data = TpchData::new(1.0).expect("tpch data");
    let tpch: Vec<Vec<Fingerprint>> = (1..=22)
        .map(|q| {
            let runs: Vec<_> = cfgs
                .iter()
                .map(|cfg| {
                    let fe = SqlFrontend::new(session(cfg), tpch_catalog(&data).expect("catalog"));
                    fe.query(sql_text(q).expect("tpch text"))
                        .unwrap_or_else(|e| panic!("Q{q} runs: {e}"));
                    let fed = joins_on_concat(fe.session());
                    assert_eq!(fed, 0, "Q{q}: {fed} join inputs come from a Concat");
                    fingerprints(fe.session())
                })
                .collect();
            table_row(&runs, &format!("Q{q}"))
        })
        .collect();
    let script = |run: fn(&S) -> XbResult<()>, program: &str| -> Vec<Fingerprint> {
        let runs: Vec<_> = cfgs
            .iter()
            .map(|cfg| {
                let s = session(cfg);
                run(&s).expect("script runs");
                assert_eq!(joins_on_concat(&s), 0, "a join input comes from a Concat");
                fingerprints(&s)
            })
            .collect();
        table_row(&runs, program)
    };
    let dataframe = script(dataframe_script, "dataframe script");
    let tensor = script(tensor_script, "tensor script");

    let pinned = TPCH
        .iter()
        .map(|r| &r[..])
        .eq(tpch.iter().map(Vec::as_slice))
        && dataframe == DATAFRAME
        && tensor == TENSOR;
    if !pinned {
        println!("const TPCH: [[Fingerprint; 5]; 22] = [");
        for (i, r) in tpch.iter().enumerate() {
            println!("    // Q{}\n    {},", i + 1, row(r));
        }
        println!("];");
        println!("const DATAFRAME: [Fingerprint; 5] = {};", row(&dataframe));
        println!("const TENSOR: [Fingerprint; 5] = {};", row(&tensor));
    }
    for (i, (got, want)) in tpch.iter().zip(&TPCH).enumerate() {
        assert_eq!(
            got[..],
            want[..],
            "Q{}: tiling or fusion output changed",
            i + 1
        );
    }
    assert_eq!(
        dataframe, DATAFRAME,
        "dataframe script: tiling or fusion output changed"
    );
    assert_eq!(
        tensor, TENSOR,
        "tensor script: tiling or fusion output changed"
    );
}
