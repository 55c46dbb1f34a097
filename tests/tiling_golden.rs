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
    [(2, 262, 0xf8c6a5c5481a1e2e), (2, 55, 0x3bae8a5f262f1b3c), (1, 299, 0x1188efd97cfe0347), (2, 299, 0xe4d747042425366d), (1, 299, 0x1188efd97cfe0347)],
    // Q2
    [(6, 49, 0x7608521d1d6fed05), (6, 18, 0xc8a2aa62f669a3ad), (1, 209, 0xbcc4f3331784d777), (6, 49, 0x7608521d1d6fed05), (1, 182, 0xe410ecc97a8707e2)],
    // Q3
    [(4, 273, 0x6cfdf6e13272bb51), (4, 104, 0x0b1545c37ed9a874), (1, 325, 0x66e5c1b6a21e3844), (4, 298, 0x8974b85cb1a55f2c), (1, 316, 0x600cbcc46d17ec23)],
    // Q4
    [(3, 263, 0x0491d66f986de591), (3, 107, 0xf93a52433959b91a), (1, 281, 0xdcb9dff9801a28c7), (3, 281, 0xe05843fb3f378327), (1, 281, 0xdcb9dff9801a28c7)],
    // Q5
    [(6, 260, 0xb5964180d6a5961a), (6, 108, 0x446ef99fedba21bd), (1, 341, 0xca4c307f43f191c5), (7, 302, 0x7b77f0b0f51c1c4a), (1, 305, 0xdfafdba57d472c57)],
    // Q6
    [(1, 261, 0xd05b2e9fb73fdece), (1, 55, 0x03095d3a74a63a8d), (1, 261, 0xd05b2e9fb73fdece), (1, 261, 0xd05b2e9fb73fdece), (1, 261, 0xd05b2e9fb73fdece)],
    // Q7
    [(6, 239, 0x2df22465d5e87804), (6, 104, 0x29883a650262288a), (1, 360, 0x091783f790f8cb6d), (7, 294, 0x78cfd4056e5bcf4a), (1, 456, 0xf76de25bd891fd22)],
    // Q8
    [(8, 233, 0x14b66de5870b31da), (8, 105, 0xdb2ae82ee743c1e1), (1, 400, 0xba1b02d7ba4db286), (8, 233, 0x14b66de5870b31da), (1, 355, 0xf94b27708be2f357)],
    // Q9
    [(7, 326, 0xcbbf876d2af6cac5), (7, 168, 0x7205bacd730b9c91), (1, 328, 0xdb311a09efcea4c5), (7, 358, 0xd30ecf47002b27a8), (1, 298, 0x7392d385492f67b3)],
    // Q10
    [(5, 270, 0x47cc15229b5ba2be), (5, 105, 0x97304cb7a8a5b620), (1, 358, 0xf444cab4c074146f), (5, 358, 0x73928f66042a771f), (1, 340, 0xb97c4dd7beadd735)],
    // Q11
    [(7, 71, 0x415fda6d4382155f), (7, 24, 0x8bd87c430b77a680), (2, 186, 0xa4bf03aa93628ebb), (7, 82, 0x91c8e297eab95095), (2, 92, 0xb11889ec67c78f87)],
    // Q12
    [(3, 194, 0xf08dc7d662c174d2), (3, 53, 0x31998aa24ac13c98), (1, 281, 0xafc57ca66fd3d003), (3, 263, 0x4d4fce1df94e5199), (1, 281, 0xafc57ca66fd3d003)],
    // Q13
    [(3, 71, 0x7ab56b4f47cc8bb2), (3, 27, 0xa987168f907b0bd3), (1, 111, 0x468d408346038893), (4, 111, 0x5b6eae88ca7c0fdd), (1, 111, 0x468d408346038893)],
    // Q14
    [(2, 186, 0xab25ead9ffaff751), (2, 48, 0x3cff83e6d4ca4754), (1, 252, 0x360ee5a4219fd0f2), (2, 252, 0xd80bfd5bd79af274), (1, 252, 0x360ee5a4219fd0f2)],
    // Q15
    [(5, 503, 0xe03579036519a18a), (5, 86, 0x4683ed62303ddd58), (2, 649, 0xba4ed742cedc12ba), (5, 616, 0x2d2f8f58aab39d12), (2, 640, 0x98bc2e4838d96dd2)],
    // Q16
    [(3, 32, 0xfd04ee0bff0cacaf), (3, 13, 0x596323ff6f7cb009), (1, 81, 0xbfe1e6abc04f451f), (3, 39, 0xa44fe016cedd61c7), (1, 72, 0x89142b023e5870d1)],
    // Q17
    [(4, 147, 0x6d53d8212cab5513), (4, 60, 0x83228882172d3e8f), (1, 240, 0xc4102667cb480902), (4, 147, 0x6d53d8212cab5513), (1, 240, 0xc4102667cb480902)],
    // Q18
    [(4, 177, 0xe0096867ea0b0923), (4, 73, 0x99d3148c13a9938f), (1, 274, 0x5bd82bb6606ad1d8), (4, 218, 0x70adc49862ce1583), (1, 265, 0x7a24c520ae0926df)],
    // Q19
    [(2, 266, 0x142c116cb5e75f5f), (2, 99, 0x70a231bca70e670c), (1, 266, 0xaf074d9150e78469), (2, 266, 0x142c116cb5e75f5f), (1, 266, 0xaf074d9150e78469)],
    // Q20
    [(6, 276, 0x87b3b586d2a58eea), (6, 79, 0x7db6ae92314577e8), (1, 397, 0xe82d86f58e31a088), (6, 353, 0xfcade2818269bf49), (1, 372, 0xfcf0e87169581851)],
    // Q21
    [(6, 693, 0xd28fbd7eb3af928c), (6, 300, 0xbd12099cde76affd), (1, 628, 0x03754356c4263b79), (7, 718, 0x286fc8943c42a40b), (1, 596, 0xac21046c86ea746c)],
    // Q22
    [(3, 34, 0x46e384ef857788ca), (3, 11, 0x20a69dc9b4c38442), (2, 75, 0x1f66d3fe06aa4d52), (4, 57, 0xccf2f176fa392c1b), (2, 75, 0x1f66d3fe06aa4d52)],
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
