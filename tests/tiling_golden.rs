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
    // whole-frame sum: map + tree, no probe
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
    // filter + assign + groupby: a probe, then tree- or shuffle-reduce
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
    [(3, 221, 0x0c0dae81927b6ae8), (3, 96, 0x14ec00581e46341d), (1, 258, 0xad3ec10d566630b1), (3, 258, 0xb963062207d847cd), (1, 258, 0xad3ec10d566630b1)],
    // Q2
    [(6, 37, 0x24eb2afc9e483ce4), (6, 18, 0xd1292ff9cb1ffb19), (1, 165, 0x4419ba410394ad53), (6, 37, 0x24eb2afc9e483ce4), (1, 138, 0x32c5f818eefde006)],
    // Q3
    [(5, 219, 0x3e742145e7bb8b91), (5, 107, 0x94bab112bc8d1020), (1, 267, 0xe2720138d27a8e94), (5, 240, 0x5bfaa907b59e0022), (1, 258, 0x2a9e8c6793c6ba7b)],
    // Q4
    [(4, 212, 0x5209947dc4bc42e4), (4, 110, 0x22617cd563a878c7), (1, 232, 0x5aefa2f148b56acc), (4, 215, 0x4807a7badf2a1491), (1, 232, 0x5aefa2f148b56acc)],
    // Q5
    [(6, 203, 0x742c97383a24c3d3), (6, 124, 0xbd2b74f9949ef818), (1, 284, 0x2d610111fa1d1317), (8, 250, 0x03607eebf73e12e2), (1, 248, 0x5ef2df3eee9deb43)],
    // Q6
    [(1, 220, 0xe7732f4fcc6b93a4), (1, 55, 0xb88db24169da283f), (1, 220, 0xe7732f4fcc6b93a4), (1, 220, 0xe7732f4fcc6b93a4), (1, 220, 0xe7732f4fcc6b93a4)],
    // Q7
    [(6, 207, 0xa9aff256399670d5), (6, 104, 0x416bc2ac23f0ede5), (1, 320, 0x6cf5bc23e308f8b5), (8, 261, 0x6f82c9be5e66dcb3), (1, 350, 0x00761ac67833862a)],
    // Q8
    [(8, 181, 0xfb3aafdac9c50e02), (8, 105, 0xb3dc8f966ab78c7c), (1, 340, 0xe88faa41ff54deb6), (8, 181, 0xfb3aafdac9c50e02), (1, 295, 0x7444d664f9f352ac)],
    // Q9
    [(8, 258, 0xa5cff5bd1ba660f2), (8, 185, 0xac54e96006238f0e), (1, 285, 0xaaaa512ce80074f9), (8, 319, 0xc322972cba9f04c3), (1, 255, 0x925f346365f0af11)],
    // Q10
    [(6, 211, 0xd0c124fd40f652fb), (6, 107, 0x2fc17d948169dd02), (1, 285, 0x338a48e101bdc3fc), (6, 262, 0x26c59451e0c4018f), (1, 267, 0xf8f2a958ebe4daf8)],
    // Q11
    [(8, 58, 0xd0aa9bf1dff94ac5), (8, 25, 0x4c7344483ab608c9), (2, 152, 0x0b02088f7c3bdfc9), (8, 59, 0xe207b2a9043a6320), (2, 80, 0x0bacb77a7563de76)],
    // Q12
    [(4, 150, 0x66d24037558273fc), (4, 54, 0x1e2b19035e50ae29), (1, 232, 0x1e93d6ac042b3354), (4, 215, 0xf4508b4b29ee6079), (1, 232, 0x1e93d6ac042b3354)],
    // Q13
    [(4, 58, 0xb9f697d5cc9a5153), (4, 37, 0xa31afbe7ff7ba536), (1, 95, 0x0e249a59ff814d40), (6, 78, 0xd90da75b32e46d55), (1, 95, 0x0e249a59ff814d40)],
    // Q14
    [(2, 142, 0xf5952c812bc520eb), (2, 48, 0xadcdeb00b2a2c2c7), (1, 203, 0xd290d7dce5670ad5), (2, 203, 0x91ce0f86930659e7), (1, 203, 0xd290d7dce5670ad5)],
    // Q15
    [(7, 390, 0xe57f10369214a3af), (7, 116, 0x0add1a7a4072381d), (2, 559, 0x138a11e6e9701f35), (7, 461, 0x3cdb596a2e78cbf9), (2, 550, 0x13cf6e423254c992)],
    // Q16
    [(3, 38, 0xe7a2d1cabbdaaa73), (3, 21, 0x520aa3b99b3581d0), (1, 72, 0xfa20975374d7e763), (3, 45, 0x2145d2d86125c687), (1, 63, 0xbf7e1fcc98a7eef6)],
    // Q17
    [(5, 124, 0xde7990d8a159a6b4), (5, 64, 0x184ff6be4dbb8b20), (1, 213, 0xd726568475cb74e7), (5, 124, 0xde7990d8a159a6b4), (1, 213, 0xd726568475cb74e7)],
    // Q18
    [(5, 139, 0x7391cb900026da83), (5, 75, 0xb83b3d55d2aaa103), (1, 258, 0x16294b45f83bf30d), (5, 160, 0xdb3ebcd69e805d00), (1, 249, 0x99cd6d658472deb1)],
    // Q19
    [(2, 230, 0x67744432f0eca286), (2, 119, 0x6648976494f1e6d6), (1, 168, 0x30017fad5e589e3a), (2, 230, 0x67744432f0eca286), (1, 168, 0x30017fad5e589e3a)],
    // Q20
    [(7, 193, 0xbc69f3aa078d3ab7), (7, 81, 0x841cdbe7dbd3123a), (1, 328, 0x568b88489427efa5), (7, 248, 0x40c51cfe0e1f5eb8), (1, 303, 0x2595763b95e2bdbb)],
    // Q21
    [(8, 593, 0x1b617fda528fc1a6), (8, 309, 0x8d2fa21ef9094bf8), (1, 538, 0x479f59f98a99badf), (8, 609, 0x596c012c15645fb8), (1, 513, 0x4e12c717d8388072)],
    // Q22
    [(3, 32, 0x66aa7691900ef9bf), (3, 11, 0x73afde8b592e8bcc), (2, 73, 0x8740e637b698ae87), (5, 53, 0x2331ca7cb35bd220), (2, 73, 0x8740e637b698ae87)],
];

#[rustfmt::skip]
const DATAFRAME: [Fingerprint; 5] = [(21, 249, 0x8caaa1dd6c4721c2), (21, 135, 0x986a611e327b72b6), (15, 286, 0xa7bf41cc65f5c168), (21, 260, 0x3479aa0437e4602c), (15, 277, 0x1b4a3aeb63af65c9)];

#[rustfmt::skip]
const TENSOR: [Fingerprint; 5] = [(9, 282, 0x6cbd22ab7516df57), (9, 206, 0x3423b0f552ec0863), (9, 282, 0x6cbd22ab7516df57), (9, 282, 0x6cbd22ab7516df57), (9, 282, 0x6cbd22ab7516df57)];

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
