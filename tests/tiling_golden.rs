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

use std::sync::{Arc, Mutex};
use xorbits::array::{ElemOp, Reduction};
use xorbits::core::chunk::{ChunkKey, ChunkMeta, Payload};
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

/// A [`LocalExecutor`] that fingerprints every graph it is handed.
struct Recording {
    inner: LocalExecutor,
    seen: Mutex<Fingerprint>,
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
    };
    Session::new(cfg.clone(), recording)
}

fn fingerprint(s: &S) -> Fingerprint {
    s.with_executor(|e| *e.seen.lock().unwrap())
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
    [(6, 38, 0x762c23badffad061), (6, 39, 0x58f5f72d9f9bc54a), (1, 233, 0xd2daf33e08a28b00), (6, 38, 0x762c23badffad061), (1, 158, 0x1749ac8bac8905ed)],
    // Q3
    [(5, 237, 0x12f19c3f5f46aca0), (5, 237, 0x12f19c3f5f46aca0), (1, 249, 0x4c4e5d6dbe30b3e2), (5, 272, 0xf798e384a0d39618), (1, 224, 0x7c2985d7307b6d5f)],
    // Q4
    [(4, 228, 0xa03be90034758268), (4, 228, 0xa03be90034758268), (1, 199, 0xb8cd78bf30150a7c), (4, 231, 0x25d20042fef0267c), (1, 199, 0xb8cd78bf30150a7c)],
    // Q5
    [(6, 236, 0x250414671c47b675), (6, 236, 0x250414671c47b675), (1, 355, 0x013eb31072f532da), (8, 326, 0xcef83cdef5f6c8e6), (1, 255, 0xb3e39e1c865f312c)],
    // Q6
    [(1, 138, 0xb130cb4d813ed064), (1, 220, 0xe7732f4fcc6b93a4), (1, 138, 0xb130cb4d813ed064), (1, 138, 0xb130cb4d813ed064), (1, 138, 0xb130cb4d813ed064)],
    // Q7
    [(6, 235, 0xa6bb1889833ee344), (6, 236, 0xfd0495f341bf0487), (1, 347, 0xc6dfcc83d4b382fc), (8, 311, 0x3fdf3ab16f30462c), (1, 313, 0x5a69169e6b7087d2)],
    // Q8
    [(8, 198, 0x8e5a6670f25570f7), (8, 199, 0x699a7a5d2eb32c84), (1, 431, 0xba3fb17f5682742b), (8, 198, 0x8e5a6670f25570f7), (1, 306, 0xdd03787669599416)],
    // Q9
    [(8, 307, 0x14618acf9d1bcdc8), (8, 307, 0x14618acf9d1bcdc8), (1, 362, 0x32ab4e25384a1c84), (8, 429, 0xc60183bbdc98724b), (1, 285, 0x626e5e813eedb8e2)],
    // Q10
    [(6, 232, 0x75ec63cecc9de5ed), (6, 232, 0x75ec63cecc9de5ed), (1, 284, 0x7e9b7b7b759658b7), (6, 310, 0x41b25430ce258e5f), (1, 234, 0xd53cbcfd08ee6a93)],
    // Q11
    [(8, 57, 0x84037ea7fbfbd7fc), (8, 58, 0xd0aa9bf1dff94ac5), (2, 213, 0x496e4cbb45210ca1), (8, 58, 0x7832b37f500ddc7f), (2, 77, 0x75bb78dba58ce745)],
    // Q12
    [(4, 167, 0xd1a65db928b59641), (4, 167, 0xd1a65db928b59641), (1, 207, 0x17ac772f9df1de30), (4, 231, 0xf0301b12c8265bb1), (1, 207, 0x17ac772f9df1de30)],
    // Q13
    [(4, 74, 0x555cb0a1c9af9202), (4, 74, 0x555cb0a1c9af9202), (1, 103, 0x7dab6a1424839d35), (6, 94, 0x0477768aa2af8919), (1, 103, 0x7dab6a1424839d35)],
    // Q14
    [(2, 155, 0xc2a22bda9d31880b), (2, 156, 0x9f6f5706c819435a), (1, 177, 0x67b7fb057937d268), (2, 218, 0x902bef30abae8e1d), (1, 177, 0x67b7fb057937d268)],
    // Q15
    [(7, 389, 0xb86fce11f940b710), (7, 390, 0xe57f10369214a3af), (2, 403, 0x09009bf2240cf3fc), (7, 469, 0xa05794ee37e7290d), (2, 378, 0x366dff50f5bbca30)],
    // Q16
    [(3, 39, 0xbd9dc9fc09099eea), (3, 39, 0xbd9dc9fc09099eea), (1, 100, 0x6635912e2ca60f04), (3, 53, 0xd9163412e7cb371f), (1, 75, 0xa42a7f8b90fa8ddd)],
    // Q17
    [(5, 137, 0xbbf630add32ab216), (5, 138, 0xb8ba2dd40a212dd7), (1, 241, 0x41796f1f0f21e05d), (5, 137, 0xbbf630add32ab216), (1, 241, 0x41796f1f0f21e05d)],
    // Q18
    [(5, 142, 0x2bca0e4ac1204a76), (5, 142, 0x2bca0e4ac1204a76), (1, 290, 0x7b30f2d9afd5bd60), (5, 166, 0x553e43c1d14bfbff), (1, 265, 0x433d01af10b56b0a)],
    // Q19
    [(2, 252, 0xea31eaaaefc4af3c), (2, 274, 0x6beff2e3ac2b57a2), (1, 176, 0x9f66779a0d75f216), (2, 252, 0xea31eaaaefc4af3c), (1, 176, 0x9f66779a0d75f216)],
    // Q20
    [(7, 203, 0xe6f8615f2cd74f8b), (7, 203, 0xe6f8615f2cd74f8b), (1, 347, 0xd53a81d485aa7a84), (7, 290, 0x8c7dd23d28e243e2), (1, 293, 0x08684241776c6a46)],
    // Q21
    [(8, 630, 0x4198a34d34f600b1), (8, 630, 0x4198a34d34f600b1), (1, 552, 0x51168fbfb0db28f0), (8, 659, 0xe54c5c53c84fcd54), (1, 495, 0x395eda2a97e1adbe)],
    // Q22
    [(3, 32, 0xd7957aef934b6400), (3, 35, 0x58c419853c2f9697), (2, 83, 0x0f16490cd9033c9f), (5, 66, 0x2f54dff52321c50b), (2, 83, 0x0f16490cd9033c9f)],
];

#[rustfmt::skip]
const DATAFRAME: [Fingerprint; 5] = [(21, 237, 0x1620a7b31fb1bd56), (21, 249, 0x8caaa1dd6c4721c2), (15, 271, 0x4b876677af55a70d), (21, 248, 0xe8919da74c971a04), (15, 246, 0xbf4b9fb18b382c9a)];

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
