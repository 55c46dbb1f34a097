//! The golden tiling gate: the chunk graphs the tiler hands to the executor
//! are pinned node for node.
//!
//! For each program and config the test records every subtask graph the
//! executor was given and fingerprints it as `(graphs executed, chunk
//! nodes, FNV-1a of format!("{:?}", graph.chunks))` — the Debug form prints
//! each node's op name, input keys and output keys, so the same fingerprint
//! means the same nodes in the same order with the same key numbering.
//! Every executor, counter, trace and benchmark number downstream of tiling
//! is then identical by construction.
//!
//! A failure means tiling output changed. A change that intends it re-pins
//! the constants (the failing run prints the whole table) and says so in
//! CHANGES.md; a refactor must not.
//!
//! One structural property is asserted on every recorded graph as well: a
//! join reads its pieces as they lie, so no `Concat` output — from this
//! graph or an earlier one of the session — is ever a `Join` input.

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

/// `(graphs executed, chunk nodes, FNV-1a over the graphs' Debug forms)`.
type Fingerprint = (usize, usize, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A [`LocalExecutor`] that fingerprints every graph it is handed and
/// counts `Join` inputs that some `Concat` produced.
struct Recording {
    inner: LocalExecutor,
    seen: Mutex<Fingerprint>,
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
        let mut seen = self.seen.lock().unwrap();
        seen.0 += 1;
        seen.1 += graph.chunks.len();
        for b in format!("{:?}", graph.chunks).bytes() {
            seen.2 = (seen.2 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        drop(seen);
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
        concat_outputs: Mutex::new(HashSet::new()),
        joins_on_concat: Mutex::new(0),
    };
    Session::new(cfg.clone(), recording)
}

fn fingerprint(s: &S) -> Fingerprint {
    s.with_executor(|e| *e.seen.lock().unwrap())
}

/// `Join` inputs the session's graphs took from a `Concat`.
fn joins_on_concat(s: &S) -> usize {
    s.with_executor(|e| *e.joins_on_concat.lock().unwrap())
}

/// The five configs, in the column order of the tables below: default,
/// both fusions off, dynamic tiling off, tree-reduce and broadcast
/// thresholds forced to 256 B, static tiling with estimate-driven
/// broadcasts.
fn configs() -> [XorbitsConfig; 5] {
    let base = XorbitsConfig {
        chunk_limit_bytes: 8 << 10,
        cluster_parallelism: 8,
        ..Default::default()
    };
    [
        base.clone(),
        base.clone().without_graph_fusion().without_op_fusion(),
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
    [(3, 221, 0x0c0dae81927b6ae8), (3, 221, 0x0c0dae81927b6ae8), (1, 176, 0xf8ada14b80daa071), (3, 258, 0xb963062207d847cd), (1, 176, 0xf8ada14b80daa071)],
    // Q2
    [(6, 36, 0xd0d74c67aed3135b), (6, 37, 0x24eb2afc9e483ce4), (1, 153, 0x855253ce4955f157), (6, 36, 0xd0d74c67aed3135b), (1, 126, 0x19d353d2f3671c62)],
    // Q3
    [(5, 219, 0x3e742145e7bb8b91), (5, 219, 0x3e742145e7bb8b91), (1, 217, 0xf2eec3eb4f319400), (5, 240, 0x5bfaa907b59e0022), (1, 208, 0x0d6b3e69ee660d53)],
    // Q4
    [(4, 212, 0x5209947dc4bc42e4), (4, 212, 0x5209947dc4bc42e4), (1, 183, 0xd0dd6be0c35ff801), (4, 215, 0x4807a7badf2a1491), (1, 183, 0xd0dd6be0c35ff801)],
    // Q5
    [(6, 203, 0x742c97383a24c3d3), (6, 203, 0x742c97383a24c3d3), (1, 275, 0xab427acd4a0a3872), (8, 250, 0x03607eebf73e12e2), (1, 239, 0x3cc992390dafd876)],
    // Q6
    [(1, 138, 0xb130cb4d813ed064), (1, 220, 0xe7732f4fcc6b93a4), (1, 138, 0xb130cb4d813ed064), (1, 138, 0xb130cb4d813ed064), (1, 138, 0xb130cb4d813ed064)],
    // Q7
    [(6, 206, 0x43e141b7b97dc82e), (6, 207, 0xa9aff256399670d5), (1, 267, 0x0fd5c401038d0f82), (8, 261, 0x6f82c9be5e66dcb3), (1, 297, 0x63f0201224d0abfd)],
    // Q8
    [(8, 180, 0x6aed7e049f61db1d), (8, 181, 0xfb3aafdac9c50e02), (1, 319, 0xfa0dfedf4317f61d), (8, 180, 0x6aed7e049f61db1d), (1, 274, 0xda79a93ae5b3071d)],
    // Q9
    [(8, 258, 0xa5cff5bd1ba660f2), (8, 258, 0xa5cff5bd1ba660f2), (1, 282, 0x391d6544fd461e0c), (8, 319, 0xc322972cba9f04c3), (1, 252, 0xb3a13c351eeacd78)],
    // Q10
    [(6, 211, 0xd0c124fd40f652fb), (6, 211, 0xd0c124fd40f652fb), (1, 236, 0xabad661d6a4d6eab), (6, 262, 0x26c59451e0c4018f), (1, 218, 0x10b85b704f05ad69)],
    // Q11
    [(8, 57, 0x84037ea7fbfbd7fc), (8, 58, 0xd0aa9bf1dff94ac5), (2, 149, 0x37bc571ebccefada), (8, 58, 0x7832b37f500ddc7f), (2, 77, 0x75bb78dba58ce745)],
    // Q12
    [(4, 150, 0x66d24037558273fc), (4, 150, 0x66d24037558273fc), (1, 191, 0x809baf0975dd97c1), (4, 215, 0xf4508b4b29ee6079), (1, 191, 0x809baf0975dd97c1)],
    // Q13
    [(4, 58, 0xb9f697d5cc9a5153), (4, 58, 0xb9f697d5cc9a5153), (1, 87, 0xe1383b79a25d6ab6), (6, 78, 0xd90da75b32e46d55), (1, 87, 0xe1383b79a25d6ab6)],
    // Q14
    [(2, 141, 0x80259c665cbcb032), (2, 142, 0xf5952c812bc520eb), (1, 161, 0xf17f9b5db259da03), (2, 202, 0x1d1bb898135a850a), (1, 161, 0xf17f9b5db259da03)],
    // Q15
    [(7, 389, 0xb86fce11f940b710), (7, 390, 0xe57f10369214a3af), (2, 387, 0xfe1e19439200e03b), (7, 453, 0x36f5b67ff4071711), (2, 378, 0x366dff50f5bbca30)],
    // Q16
    [(3, 38, 0xe7a2d1cabbdaaa73), (3, 38, 0xe7a2d1cabbdaaa73), (1, 68, 0x5c4e5292ec03a4eb), (3, 45, 0x2145d2d86125c687), (1, 59, 0xaf09653e8053176e)],
    // Q17
    [(5, 123, 0x6efbc2b833ccff55), (5, 124, 0xde7990d8a159a6b4), (1, 209, 0xe94b1ac3652387f7), (5, 123, 0x6efbc2b833ccff55), (1, 209, 0xe94b1ac3652387f7)],
    // Q18
    [(5, 139, 0x7391cb900026da83), (5, 139, 0x7391cb900026da83), (1, 258, 0x16294b45f83bf30d), (5, 160, 0xdb3ebcd69e805d00), (1, 249, 0x99cd6d658472deb1)],
    // Q19
    [(2, 208, 0x549770184d5389f0), (2, 230, 0x67744432f0eca286), (1, 160, 0x1a83389b9f9821aa), (2, 208, 0x549770184d5389f0), (1, 160, 0x1a83389b9f9821aa)],
    // Q20
    [(7, 193, 0xbc69f3aa078d3ab7), (7, 193, 0xbc69f3aa078d3ab7), (1, 283, 0x18da2cf11da79bb0), (7, 248, 0x40c51cfe0e1f5eb8), (1, 258, 0xe6a6ae8f93179fe2)],
    // Q21
    [(8, 593, 0x1b617fda528fc1a6), (8, 593, 0x1b617fda528fc1a6), (1, 472, 0xa26fe20007e386d9), (8, 609, 0x596c012c15645fb8), (1, 447, 0xca1ad2b97551a870)],
    // Q22
    [(3, 29, 0xc4d2785c7767b93a), (3, 32, 0x66aa7691900ef9bf), (2, 67, 0x5a37bf7292f378ff), (5, 50, 0x9cf3ff3b55269753), (2, 67, 0x5a37bf7292f378ff)],
];

#[rustfmt::skip]
const DATAFRAME: [Fingerprint; 5] = [(21, 237, 0x1620a7b31fb1bd56), (21, 249, 0x8caaa1dd6c4721c2), (15, 255, 0x9f275315a123090f), (21, 248, 0xe8919da74c971a04), (15, 246, 0xbf4b9fb18b382c9a)];

#[rustfmt::skip]
const TENSOR: [Fingerprint; 5] = [(9, 282, 0x6cbd22ab7516df57), (9, 282, 0x6cbd22ab7516df57), (9, 282, 0x6cbd22ab7516df57), (9, 282, 0x6cbd22ab7516df57), (9, 282, 0x6cbd22ab7516df57)];

fn row(fps: &[Fingerprint]) -> String {
    let cells: Vec<String> = fps
        .iter()
        .map(|(g, n, h)| format!("({g}, {n}, {h:#018x})"))
        .collect();
    format!("[{}]", cells.join(", "))
}

#[test]
fn chunk_graphs_are_pinned_node_for_node() {
    let cfgs = configs();
    let data = TpchData::new(1.0).expect("tpch data");
    let tpch: Vec<Vec<Fingerprint>> = (1..=22)
        .map(|q| {
            cfgs.iter()
                .map(|cfg| {
                    let fe = SqlFrontend::new(session(cfg), tpch_catalog(&data).expect("catalog"));
                    fe.query(sql_text(q).expect("tpch text"))
                        .unwrap_or_else(|e| panic!("Q{q} runs: {e}"));
                    let fed = joins_on_concat(fe.session());
                    assert_eq!(fed, 0, "Q{q}: {fed} join inputs come from a Concat");
                    fingerprint(fe.session())
                })
                .collect()
        })
        .collect();
    let script = |run: fn(&S) -> XbResult<()>| -> Vec<Fingerprint> {
        cfgs.iter()
            .map(|cfg| {
                let s = session(cfg);
                run(&s).expect("script runs");
                assert_eq!(joins_on_concat(&s), 0, "a join input comes from a Concat");
                fingerprint(&s)
            })
            .collect()
    };
    let dataframe = script(dataframe_script);
    let tensor = script(tensor_script);

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
        assert_eq!(got[..], want[..], "Q{}: tiling output changed", i + 1);
    }
    assert_eq!(
        dataframe, DATAFRAME,
        "dataframe script: tiling output changed"
    );
    assert_eq!(tensor, TENSOR, "tensor script: tiling output changed");
}
