#!/usr/bin/env bash
# The whole CI gate. Runs fully offline — the workspace has zero external
# crate dependencies, so no network or vendored registry is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

# The spill-capable tests and benches create per-process temp dirs
# (xorbits-spill-<pid>-<seq>); the service removes them on Drop, but a
# killed or panicking run can leave them behind — sweep on exit.
cleanup_spill_dirs() {
  rm -rf "${TMPDIR:-/tmp}"/xorbits-spill-* 2>/dev/null || true
}
trap cleanup_spill_dirs EXIT

echo "==> cargo fmt --check"
cargo fmt --check

# Structural gate (hard): the fused-subtask loop exists once. Every executor
# — host, simulator dispatch, lineage replay — reaches the kernels through
# core::exec::run_node, so `execute_chunk(` has exactly one call site outside
# test modules (everything before a file's `#[cfg(test)]`), in core/src/exec.rs.
echo "==> one execution core (single non-test execute_chunk call site)"
callers=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && /execute_chunk\(/ && !/fn execute_chunk\(/ && !/^[[:space:]]*\/\// {
    print FILENAME ":" FNR
  }')
if [[ "$(echo "$callers" | wc -l)" -ne 1 || "$callers" != crates/core/src/exec.rs:* ]]; then
  echo "expected one non-test execute_chunk( call, in crates/core/src/exec.rs; found:"
  echo "$callers"
  exit 1
fi

# Structural gate (hard): tiling has one emission point. Every tile rule in
# core/src/tiling.rs composes the building blocks over `emit_n`, so before
# the file's `#[cfg(test)]` there is exactly one `ChunkNode {` literal and
# chunk keys are allocated nowhere but inside `emit_n`.
echo "==> one tiling emission point (single ChunkNode literal, keys allocated in emit_n)"
strays=$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); current = substr($0, RSTART + 3, RLENGTH - 3) }
  /ChunkNode \{/ { literals++; if (current != "emit_n") print "ChunkNode literal in " current " (line " FNR ")" }
  /keygen\.next_key/ && current != "emit_n" { print "keygen.next_key in " current " (line " FNR ")" }
  END { if (literals != 1) print literals + 0 " ChunkNode literals" }
' crates/core/src/tiling.rs)
if [[ -n "$strays" ]]; then
  echo "crates/core/src/tiling.rs must build chunk nodes and allocate keys only in emit_n; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): a join reads its pieces as they lie. The shuffle
# pieces of a partition, a broadcast side's chunks and an auto-merge group of
# the big side are a `Join` node's inputs, so the non-test body of
# `tile_merge` in core/src/tiling.rs emits no `ChunkOp::Concat` and calls
# neither `self.gather(` nor `self.auto_merge(` (auto merge's grouping,
# `self.merge_groups(`, is what a join reads).
echo "==> no Concat in front of a join (tile_merge emits no Concat, gather or auto_merge)"
strays=$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); current = substr($0, RSTART + 3, RLENGTH - 3) }
  current == "tile_merge" { seen = 1 }
  current == "tile_merge" && /ChunkOp::Concat|self\.gather\(|self\.auto_merge\(/ { print FILENAME ":" FNR ": " $0 }
  END { if (!seen) print "no fn tile_merge found" }
' crates/core/src/tiling.rs)
if [[ -n "$strays" ]]; then
  echo "crates/core/src/tiling.rs::tile_merge must hand a join its pieces, not a Concat; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): the one-emission-point family, stated for the whole
# workspace. Outside test modules a `ChunkNode {` or `Subtask {` literal under
# crates/*/src appears only where graphs are built — `tiling.rs::emit_n`,
# `subtask.rs::from_groups` — and where the re-tiling splice rewrites them,
# `retile.rs::{split_groupby, split_join}`. The day re-tiling becomes a tile
# rule (ROADMAP item 8) the allow-list loses its last two entries.
echo "==> chunk nodes and subtasks are built only by emit_n, from_groups and the two re-tiling splits"
strays=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0; current = "" }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); current = substr($0, RSTART + 3, RLENGTH - 3) }
  /(^|[^A-Za-z_])(ChunkNode|Subtask) \{/ && !/(struct|->) (ChunkNode|Subtask) \{/ {
    where = FILENAME "::" current
    if (where != "crates/core/src/tiling.rs::emit_n" && where != "crates/core/src/subtask.rs::from_groups" &&
        where != "crates/core/src/retile.rs::split_groupby" && where != "crates/core/src/retile.rs::split_join")
      print FILENAME ":" FNR ": literal in " current
  }')
if [[ -n "$strays" ]]; then
  echo "ChunkNode / Subtask literals may appear only in emit_n, from_groups, split_groupby and split_join; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): re-tiling decides from sizes. `core::retile` is
# handed the bytes of a wave's shuffle pieces and nothing else, so outside its
# test module it names no payload type, reads no chunk (`as_df`, `peek`) and
# calls no group-by kernel helper: "decisions derive from result bytes only"
# is the signature, not a convention.
echo "==> re-tiling decides from sizes (no payload, peek or group-by kernel path in core/src/retile.rs)"
strays=$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /Payload|as_df|peek|xorbits_dataframe::groupby::/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/retile.rs)
if [[ -n "$strays" ]]; then
  echo "crates/core/src/retile.rs must plan from chunk sizes alone; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): a logical operator is described once. Inputs are a
# field of `TileableNode` and parameters hash through the op's derived Debug,
# so outside test modules only four places enumerate `TileableOp` variants:
# the one `impl TileableOp` block (name, arity, outputs), the tile rules
# (`tile_one`), the column rules (`required_columns`) and
# `source_fingerprint`. A match arm anywhere else — a revived `fn inputs`,
# `fn map_inputs` or per-variant `op_param_hash` included — is a fifth place
# every new operator would have to be spelled out in. (An arm is a line that
# leads with a variant and is no call argument, or has `=>` after one.)
echo "==> a logical operator is described once (TileableOp arms only in the allow-list)"
strays=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0; in_impl = 0; current = "" }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /^impl TileableOp \{/ { in_impl = 1; impls++ }
  /^\}/ { in_impl = 0 }
  /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); current = substr($0, RSTART + 3, RLENGTH - 3) }
  /fn (inputs|map_inputs)\(/ && FILENAME ~ /tileable\.rs$/ { print FILENAME ":" FNR ": fn " current }
  (/^[[:space:]]*(\| )?TileableOp::[A-Z]/ && !/,$/) || /TileableOp::[A-Z][A-Za-z]*[^=]*=>/ {
    if (!in_impl && current != "tile_one" && current != "required_columns" && current != "source_fingerprint")
      print FILENAME ":" FNR ": TileableOp arm in " current
  }
  END { if (impls != 1) print impls + 0 " `impl TileableOp` blocks" }')
if [[ -n "$strays" ]]; then
  echo "TileableOp variants may be matched only in impl TileableOp, tile_one, required_columns and source_fingerprint; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): the engine reads no environment. Every knob of a
# library crate is a constructor argument; the `bench_*` targets' knobs are
# read, validated, by crates/bench/src/lib.rs. Outside test modules
# `env::var` / `env::var_os` appear under crates/*/src only there.
echo "==> the engine reads no environment (env::var only in bench/src/lib.rs)"
strays=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /env::var/ && FILENAME != "crates/bench/src/lib.rs" { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$strays" ]]; then
  echo "env::var / env::var_os may appear under crates/*/src only in crates/bench/src/lib.rs; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): a SQL text has one canonical form, its normalized
# token string. Alias-insensitive reuse is the result cache's job
# (tileable::cache_key), so outside test modules nothing under
# crates/core/src/sql canonicalizes or prints an AST (`canonicalize`,
# `ast_key`, `lookup_ast`, `ast_hits`, an `impl fmt::Display for` other than
# the error type's), and a positioned error is formatted in one place.
echo "==> one plan-cache key, one error formatter (no AST canonicalizer or printer in core/src/sql)"
strays=$(find crates/core/src/sql -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /canonicalize|ast_key|lookup_ast|ast_hits/ || (/impl fmt::Display for/ && !/for SqlError /) { print FILENAME ":" FNR ": " $0 }
  /SQL error at line/ { formatters++ }
  END { if (formatters != 1) print formatters + 0 " positioned-error formatters, want one" }')
if [[ -n "$strays" ]]; then
  echo "crates/core/src/sql must key plans on normalized text alone and format errors once; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): one fusion pass. Graph-level fusion (coloring) runs
# every elementwise chain in one subtask, so there is no operator-level
# fusion pass, config switch or counter: under crates/ (but the frozen
# crates/bench/examples/bench_e2e/) and tests/ none of `op_fusion`,
# `fuse_elementwise`, `without_op_fusion`, `is_elementwise` or `ops_fused`
# appears. Coloring yields convex classes, so the optimizer never falls back
# from a rejected grouping: the non-test body of core/src/optimizer/mod.rs
# has no `Err(_) =>`.
echo "==> one fusion pass (no operator-level fusion, no fallback from coloring)"
strays=$(
  find crates tests -path crates/bench/examples/bench_e2e -prune -o -name target -prune -o \
      -type f -print0 | sort -z |
    xargs -0 grep -nE 'op_fusion|fuse_elementwise|without_op_fusion|is_elementwise|ops_fused' || true
  awk '
    /^#\[cfg\(test\)\]/ { exit }
    /Err\(_\) =>/ { print FILENAME ":" FNR ": " $0 }
  ' crates/core/src/optimizer/mod.rs)
if [[ -n "$strays" ]]; then
  echo "operator-level fusion and the coloring fallback are gone for good; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): one trace recorder, and every metric it keeps has a
# reader. A trace is one bounded ring, its track names and its counters and
# gauges under one lock, so the non-test part of core/src/trace.rs keeps no
# registry of per-thread rings (`Vec<Arc<Mutex<`). The registry has no
# histograms: under crates/ (but the frozen crates/bench/examples/bench_e2e/)
# and tests/ none of `observe_seconds`, `observe_bytes`, `HistogramSnapshot`
# or `metrics_snapshot` appears. Executor totals reach it once, as `exec.*`
# through `record_exec_stats`, so non-test code under crates/*/src adds no
# `sim.*` counter and no `storage.{spilled,read_back,encoded}*` twin (a call
# split after `counter_add(` by rustfmt is read as one line).
echo "==> one trace recorder (one ring under one lock, no histograms, no sim.*/storage.* twins of exec.*)"
strays=$(
  find crates tests -path crates/bench/examples/bench_e2e -prune -o -name target -prune -o \
      -type f -print0 | sort -z |
    xargs -0 grep -nE 'observe_seconds|observe_bytes|HistogramSnapshot|metrics_snapshot' || true
  find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0; prev = "" }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    {
      joined = (prev ~ /counter_add\($/) ? prev $0 : $0
      if (joined ~ /counter_add\([[:space:]]*"(sim\.|storage\.(spilled|read_back|encoded))/) print FILENAME ":" FNR ": " $0
      prev = $0
    }'
  awk '
    /^#\[cfg\(test\)\]/ { exit }
    /Vec<Arc<Mutex</ { print FILENAME ":" FNR ": " $0 }
  ' crates/core/src/trace.rs)
if [[ -n "$strays" ]]; then
  echo "the trace keeps one ring under one lock, no histograms and no sim.*/storage.* twin of an exec.* counter; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): serving has no message protocol. A tenant's
# executor and cache calls are method calls on the one locked `Coordinator`,
# and waits are on its condvar, so under crates/serving/src no line outside
# comments mentions `mpsc`, `channel(`, `Sender<` or `Receiver<`; and threads
# are made in one place — the `thread::scope` and the per-tenant `spawn`
# inside it, both in `ServingRuntime::run`.
echo "==> serving without a message protocol (no channels; threads only in ServingRuntime::run)"
strays=$(find crates/serving/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { current = "" }
  /^[[:space:]]*\/\// { next }
  /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); current = substr($0, RSTART + 3, RLENGTH - 3) }
  /mpsc|channel\(|Sender<|Receiver</ { print FILENAME ":" FNR ": channel in " current }
  /thread::/ { scopes++; if ($0 !~ /thread::scope\(/ || current != "run") print FILENAME ":" FNR ": thread:: in " current }
  /spawn\(/ { spawns++; if (current != "run") print FILENAME ":" FNR ": spawn( in " current }
  END { if (scopes != 1 || spawns != 1) print scopes + 0 " thread:: lines and " spawns + 0 " spawn( lines, want one of each" }')
if [[ -n "$strays" ]]; then
  echo "crates/serving/src may not use channels, and may touch threads only at the scope + spawn in ServingRuntime::run; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): the simulator encodes only bytes that move. A
# chunk's wire size is measured by the one memoising helper that transfers
# and spills go through (`Chunks::wire_bytes`), so outside test modules
# `.measure(` appears exactly once under crates/runtime/src — and never in a
# `fn publish`, where it would again run over every chunk produced.
echo "==> the simulator measures only bytes that move (single non-test .measure( site, not in publish)"
strays=$(find crates/runtime/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0; current = "" }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); current = substr($0, RSTART + 3, RLENGTH - 3) }
  /\.measure\(/ { sites++; if (current ~ /^publish/) print FILENAME ":" FNR ": .measure( in " current }
  END { if (sites != 1) print sites + 0 " non-test .measure( sites, want one" }')
if [[ -n "$strays" ]]; then
  echo "crates/runtime/src must call .measure( at one non-test site, outside fn publish; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): the host runtime is described once. (i) The chunk
# payload is one enum — `ChunkValue` in xorbits-storage, re-exported as
# `xorbits_core::chunk::Payload` — so there is nothing to convert between.
# (ii) The store and the pool are each one mutex-guarded state: `struct
# StorageService` and `struct Pool` declare exactly one `Mutex<` and no
# atomic field (the process-wide `TEMP_DIR_SEQ` static that names temp spill
# dirs is no field), and nothing in either file polls with `wait_timeout`.
# (iii) `ParallelExecutor` is a store and a thread count: no re-tiling mode,
# no second chunk table, no per-worker scratch.
echo "==> one payload enum, one store lock, one pool lock, one host schedule"
strays=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0; in_struct = "" }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  /payload_to_value|value_to_payload/ { print FILENAME ":" FNR ": payload conversion" }
  in_tests || /^[[:space:]]*\/\// { next }
  /enum (Payload|ChunkValue)( |$)/ { enums++; if (FILENAME != "crates/storage/src/lib.rs") print FILENAME ":" FNR ": payload enum" }
  /wait_timeout/ && FILENAME ~ /(core\/src\/parallel|storage\/src\/service)\.rs$/ { print FILENAME ":" FNR ": wait_timeout" }
  /^(pub )?struct (StorageService|Pool|ParallelExecutor) \{/ { in_struct = $(NF - 1); next }
  /^\}/ { in_struct = "" }
  in_struct == "ParallelExecutor" && /^[[:space:]]*(pub )?(retile|metas|worker_ws):/ { print FILENAME ":" FNR ": ParallelExecutor field" }
  (in_struct == "StorageService" || in_struct == "Pool") && /Atomic/ { print FILENAME ":" FNR ": atomic field in " in_struct }
  (in_struct == "StorageService" || in_struct == "Pool") && /Mutex</ { mutexes[in_struct]++ }
  END {
    if (enums != 1) print enums + 0 " payload enum definitions, want one"
    if (mutexes["StorageService"] != 1) print mutexes["StorageService"] + 0 " Mutex< fields in StorageService, want one"
    if (mutexes["Pool"] != 1) print mutexes["Pool"] + 0 " Mutex< fields in Pool, want one"
  }')
if [[ -n "$strays" ]]; then
  echo "the host runtime must keep one payload enum, one lock per structure and no polling; found:"
  echo "$strays"
  exit 1
fi

# Structural gates (hard): one kind of parallelism. (i) A kernel is a
# sequential, stateless function of its input chunks: outside test modules
# nothing under crates/dataframe/src or crates/array/src mentions `thread::`,
# `thread_local!`, `Atomic*`, `Mutex` or `Condvar`, or declares a `static`
# item (`&'static str` is no item). (ii) Threads are made by the host
# executor's subtask pool and by serving's tenant drivers and nowhere else:
# outside test modules `thread::scope` / `.spawn(` appear under crates/*/src
# only in core/src/parallel.rs and serving/src/runtime.rs.
echo "==> kernels are sequential and stateless (no threads, statics, atomics or locks in dataframe/array)"
strays=$(find crates/dataframe/src crates/array/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /thread::|thread_local!|^[[:space:]]*(pub(\([a-z]+\))? )?static |Atomic|Mutex|Condvar/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$strays" ]]; then
  echo "crates/dataframe/src and crates/array/src may hold no thread, static item, atomic or lock; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): the expression evaluator is typed. A literal is a
# one-row operand that a kernel reads as a scalar, and predicate results are
# packed 64 rows a word, so outside its test module
# crates/dataframe/src/eval.rs never broadcasts a literal (`Column::full(`)
# and never sets a result bit one row at a time (`.set(`). The one
# `Column::full(` allowed is in `pub fn eval`, which returns a wholly
# constant expression's result on every row.
echo "==> typed evaluator (no literal broadcast, no per-row bitmap .set( in dataframe/src/eval.rs)"
strays=$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /^pub fn eval\(/ { in_eval = 1 }
  /\.set\(/ || (/Column::full\(/ && !in_eval) { print FILENAME ":" FNR ": " $0 }
  /^}/ { in_eval = 0 }
' crates/dataframe/src/eval.rs)
if [[ -n "$strays" ]]; then
  echo "crates/dataframe/src/eval.rs must keep literals scalar and pack result words; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): equal keys are found by one table. The join's
# build side, grouping and distinct, and both string dictionaries
# (`StrArr::intern`, for `dict_encode` and the chunk codec) go through
# hash.rs::KeyTable: no code line under crates/dataframe/src or
# crates/storage/src outside hash.rs slots a bucket with `>> (64 -` or
# sizes a table with `next_power_of_two` (bitmap.rs's `>> (64 - sh)` is a
# bit splice's carry, not a slot, and is exempt from the first). Rows are
# grouped in one place, groupby.rs::build_groups (a direct-address table
# or the key table), for grouping and for distinct alike: no per-key
# `HashMap<u64, Vec<..>>` bucket map, and `DataFrame::drop_duplicates` in
# frame.rs calls `build_groups(`. A chunk's `nunique` never keeps a set
# per group (groupby.rs has no `Vec<FxHashSet`), nor any hash set at all:
# past its bitset it counts group-ordered runs of keys, and a packed
# multi-column key is its own tag. No code line of groupby.rs or join.rs
# outside its test module names `FxHashSet`.
echo "==> equal keys are found by one table (slotting and sizing only in hash.rs; no HashMap<u64, Vec< in dataframe/src, no FxHashSet in groupby.rs or join.rs; drop_duplicates calls build_groups)"
strays=$(find crates/dataframe/src crates/storage/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  /^[[:space:]]*\/\// { next }
  FILENAME ~ /\/hash\.rs$/ { next }
  />> \(64 -/ && FILENAME !~ /\/bitmap\.rs$/ { print FILENAME ":" FNR ": " $0 }
  /next_power_of_two/ { print FILENAME ":" FNR ": " $0 }')
strays+=$(find crates/dataframe/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  /^[[:space:]]*\/\// { next }
  /HashMap<u64, *Vec</ { print FILENAME ":" FNR ": " $0 }
  FILENAME ~ /groupby\.rs$/ && /Vec<FxHashSet/ { print FILENAME ":" FNR ": " $0 }')
strays+=$(awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /FxHashSet/ { print FILENAME ":" FNR ": " $0 }
' crates/dataframe/src/groupby.rs crates/dataframe/src/join.rs)
strays+=$(awk '
  /^[[:space:]]*\/\// { next }
  /fn [a-z_0-9]+/ { match($0, /fn [a-z_0-9]+/); current = substr($0, RSTART + 3, RLENGTH - 3) }
  current == "drop_duplicates" { seen = 1 }
  current == "drop_duplicates" && /build_groups\(/ { calls = 1 }
  END { if (!seen) print "no fn drop_duplicates found"; else if (!calls) print "drop_duplicates does not call build_groups(" }
' crates/dataframe/src/frame.rs)
if [[ -n "$strays" ]]; then
  echo "equal keys must be found by hash.rs::KeyTable (rows grouped by groupby.rs::build_groups) alone; found:"
  echo "$strays"
  exit 1
fi

# Structural gate (hard): a string's layout is known in one module. A
# `StrArr` is plain (bytes and offsets) or coded (a code per row into a
# shared dictionary). Outside test modules, only the array itself
# (crates/dataframe/src/column.rs) and the chunk codec, which copies
# dictionary bytes out of it (crates/storage/src/chunkfmt.rs), reach its
# buffers through `data_buffer()`; the pattern also catches an
# `offsets_buffer()` accessor, since `StrArr::write_plain` writes the
# plain layout. Every other reader, the expression evaluator included,
# goes through `StrArr`'s methods, so no kernel can assume one form.
# Integration tests (`tests/` directories) are exempt.
echo "==> a string's layout is known in one module (data_buffer()/offsets_buffer() only in column.rs and chunkfmt.rs)"
strays=$(find crates src examples -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /data_buffer\(\)|offsets_buffer\(\)/ && FILENAME !~ /^crates\/(dataframe\/src\/column|storage\/src\/chunkfmt)\.rs$/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$strays" ]]; then
  echo "a string's buffers may be reached only in dataframe/src/column.rs and storage/src/chunkfmt.rs; found:"
  echo "$strays"
  exit 1
fi

echo "==> threads are made only by the subtask pool and serving's tenant drivers"
strays=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// { next }
  /thread::scope|\.spawn\(/ && FILENAME !~ /^crates\/(core\/src\/parallel|serving\/src\/runtime)\.rs$/ { print FILENAME ":" FNR ": " $0 }')
if [[ -n "$strays" ]]; then
  echo "thread::scope / .spawn( may appear only in core/src/parallel.rs and serving/src/runtime.rs; found:"
  echo "$strays"
  exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q --workspace

# Storage-service gates, run explicitly even though the workspace pass
# covers them: the chunk-format property suite (bit-exact roundtrip for
# every dtype and both chunkfmt versions, v1<->v2 cross-version property,
# adversarial corruption rejection for the dict/delta encodings) and the
# spill smoke test (a TPC-H pipeline that OOMs memory-only must complete
# under the same budget with the disk tier, matching the unbounded result).
echo "==> chunk-format roundtrip + encoding property suite"
cargo test -q --release -p xorbits-storage --test chunkfmt_roundtrip

# Transport gate (hard): steady-state encode/measure through a warmed
# EncodeWorkspace must perform ZERO heap allocations, in both plain and
# auto modes — asserted by a counting global allocator. Release only:
# debug Vec growth paths allocate differently and the gate is about the
# shipped code.
echo "==> zero-allocation steady-state encode (counting global allocator)"
cargo test -q --release -p xorbits-storage --test zero_alloc

# Both spill gates run their spill cases under EncodingMode::Plain and Auto:
# the plain path is the compatibility fallback and must not rot.
echo "==> spill smoke test (tight budget, disk tier, result equality, both encodings)"
cargo test -q --release -p xorbits-workloads --test spill_acceptance

echo "==> spill-file retention regression (release/clear delete disk-tier files, both encodings)"
cargo test -q --release -p xorbits-storage --test spill_files

# Fault-recovery gates (hard): the differential matrix runs all 22 TPC-H
# queries under three pinned-seed fault schedules (worker kill, transient
# storm, chunk-loss bursts) and asserts bit-identical results against the
# fault-free LocalExecutor oracle — each schedule runs twice and any drift
# in results or deterministic recovery stats fails the suite. The property
# suite does the same for random subtask DAGs, checking minimal-closure
# recomputation and ledger balance.
echo "==> differential fault-recovery matrix (pinned seeds, run-twice determinism)"
cargo test -q --release --test fault_recovery

echo "==> recovery property suite (random DAGs, minimal recompute closure)"
cargo test -q --release -p xorbits-runtime --test recovery_props

# Dynamic tiling v2 gates (hard): the Zipf skew family must be bit-identical
# between static tiling, mid-run adaptive re-tiling and the LocalExecutor
# oracle, replay its retile counters exactly, and beat the static
# virtual makespan on the Zipf(1.5) skewed shuffles; all 22 TPC-H queries are
# re-run auto-vs-off. The property suite drives the pure planner with seeded
# random histograms (conservation, cap compliance, no-op on balance, purity).
echo "==> skew-adversarial re-tiling gate (bit-identity, counters, makespan win)"
cargo test -q --release --test skew_scenarios

echo "==> retile planner property suite (random histograms)"
cargo test -q --release -p xorbits-core --test retile_props

# Parallel-executor gate (hard): all 22 TPC-H queries on the pooled
# ParallelExecutor at 1/2/4/8 worker threads must be bit-identical to the
# LocalExecutor oracle, and a randomized DAG re-runs 10x at 8 threads
# asserting identical results plus balanced storage accounting
# (unbalanced_unpins == 0, ledger drained after every fetch). Every
# executor in the binary is built with an explicit thread count.
echo "==> parallel-equivalence matrix (one ready queue, 1/2/4/8-thread sweep)"
cargo test -q --release --test parallel_equivalence

# Tracing gates (hard): same-seed fault runs must replay to byte-identical
# trace logs (virtual-clock content only — host timestamps are excluded by
# deterministic_lines), and the Chrome trace-event export must be valid
# JSON carrying tile/optimize/execute/spill/recovery spans.
echo "==> trace determinism + Chrome-export validity"
cargo test -q --release -p xorbits-workloads --test trace_determinism

# Multi-tenant serving gate (hard): four tenants submit pinned-seed
# Zipf(1.1) TPC-H streams through the shared coordinator and result cache;
# the run repeats and must reproduce bit-identical per-tenant results,
# identical cache hit counts, and a drained execution ledger regardless of
# OS thread scheduling. The suite also covers admission queueing under a
# tight budget, weighted-DRR ordering, and lineage invalidation.
echo "==> multi-tenant serving determinism gate (Zipf streams, run-twice)"
cargo test -q --release -p xorbits-serving

# SQL-frontend gates (hard): all 22 TPC-H queries run a second time from
# SQL text and must be bit-identical to the hand-built tileable-graph
# programs on the LocalExecutor, the 4-thread ParallelExecutor and the
# SimExecutor, with plan-cache hit counters pinned across case /
# whitespace / alias / literal variants, and a CTE never served the plan of
# a table that shares its would-be canonical name. The property suite pins
# the grammar itself: malformed input is rejected with consistent
# line/column positions, deep nesting hits the recursion limit, truncation
# never panics, and the plan-cache key folds case but preserves string
# literals. (The plan-cache x lineage-cache composition test, alias-renamed
# text included, rides the xorbits-serving package gate above.)
echo "==> SQL-frontend equivalence matrix (22 TPC-H from SQL text, 3 executors)"
cargo test -q --release --test sql_tpch

echo "==> SQL parser/binder property suite"
cargo test -q --release --test sql_props

# Logical-optimizer gate (hard): seeded filter-over-join programs (inner,
# left, semi and anti joins; suffix collisions, null keys; conjuncts over
# one side, both sides or no column; joins and filters whose keys, payload
# and predicate columns nobody reads) return the same row multiset with
# the logical optimizer on (filters pushed below joins, columns pruned
# after sources, joins and filters) as with it off, and both rewrites do
# fire (`optimize.filters_pushed` and `optimize.columns_pruned` above 0).
echo "==> logical-optimizer differential suite (pushdown and pruning on == off)"
cargo test -q --release --test predicate_pushdown

# Session-aging gate (hard): a fetch runs on its target's ancestor closure,
# so every op of a long-lived session — 22 TPC-H texts cold, then a
# whitespace variant of each, and interleaved builder-API dataframe/tensor
# programs — must match the same op alone in a fresh session: bit-identical
# result and equal subtasks, subtask graphs, tiler yields, cluster
# charges and pruning column lists, on Local, Parallel(4) and Sim. Counts
# only, no wall clock. The companion core suite pins non-sink fetches
# keeping all columns and the graph lock staying free (and un-poisoned)
# while an executor runs (or panics).
echo "==> session-aging gate (aged session == fresh session, 3 executors)"
cargo test -q --release --test session_aging
cargo test -q --release -p xorbits-core --test session_fetch

# Golden tiling gate (hard): the chunk graphs handed to the executor for the
# 22 TPC-H texts under four planner configs, a dataframe script and a tensor
# script are pinned node for node (graphs, nodes, FNV-1a of the graphs'
# Debug form), and so is the default config's subtask partition (graphs,
# subtasks, FNV-1a of each subtask's node list); graph fusion off must hand
# over the default's chunk graphs. A failure means tiling or fusion output
# changed: a refactor must not; a change that intends it re-pins the
# constants the failing run prints and says so in CHANGES.md.
echo "==> golden tiling gate (96 chunk-graph and 24 subtask-partition fingerprints)"
cargo test -q --release --test tiling_golden

# Benchmark gate (hard): the repo's end-to-end benchmark still builds and
# runs — every workload at SF 1, two passes, every op checked against the
# oracle, every metric of BENCHMARK.json present, the count-based layer
# checks holding. About a second. One of `--quick`'s checks compares two
# wall-clock shares (`session.overhead_share`, session_aged vs tpch_local)
# that sit within noise of each other at SF 1 — it fails about one run in
# three on a 2-core host, at any commit — so that line alone is tolerated
# here until the benchmark re-bases it (ROADMAP item 7(a)); any other
# problem, or a run that never reaches its summary, fails the gate.
echo "==> bench_e2e --quick (every workload runs, every metric present)"
quick_out=$(cargo run --release -p xorbits-bench --example bench_e2e -- --quick) || true
echo "$quick_out"
quick_noise="quick: layer separation: session.overhead_share on session_aged exceeds tpch_local's"
quick_bad=$(grep '^quick: ' <<<"$quick_out" | grep -v -e ' in total$' -e '^quick: ok$' -e "^$quick_noise\$" || true)
if ! grep -q '^quick: .* in total$' <<<"$quick_out" || [[ -n "$quick_bad" ]]; then
  echo "bench_e2e --quick failed:"
  echo "$quick_bad"
  exit 1
fi

# Opt-in kernel bench smoke: 1e4-row run of the shuffle/join/groupby kernel
# suite, failing if any kernel is >2x slower than the checked-in reference
# (scripts/bench_reference.json). Off by default — wall-clock gates are only
# meaningful on a quiet box.
if [[ "${XORBITS_CI_BENCH:-0}" == "1" ]]; then
  echo "==> kernel bench smoke (1e4 rows vs scripts/bench_reference.json)"
  XORBITS_BENCH_ROWS=10000 \
  XORBITS_BENCH_OUT=target/BENCH_kernels_smoke.json \
  XORBITS_BENCH_CHECK=scripts/bench_reference.json \
    cargo run --release -p xorbits-bench --example bench_kernels

  # Parallel scaling smoke: fail unless the 4-thread TPC-H total beats the
  # 1-thread total by the configured margin. Only meaningful on a quiet box
  # with >= 4 cores (bench_parallel itself skips the check on smaller
  # hosts); tune the margin with XORBITS_PARALLEL_MIN_SPEEDUP.
  echo "==> parallel scaling smoke (4-thread TPC-H vs 1-thread)"
  XORBITS_PARALLEL_MIN_SPEEDUP="${XORBITS_PARALLEL_MIN_SPEEDUP:-1.5}" \
  XORBITS_BENCH_OUT=target/BENCH_parallel_smoke.json \
    cargo run --release -p xorbits-bench --example bench_parallel

  # Serving smoke: the multi-tenant bench's own asserts gate a >= 2x mean
  # virtual-latency win from the result cache and a <= 2x max/min tenant
  # slowdown spread on a 4-tenant Zipf(1.1) TPC-H stream.
  echo "==> serving cache/fairness smoke (4 tenants, Zipf TPC-H streams)"
  cargo run --release -p xorbits-bench --example bench_serving

  # Skew smoke: the bench's own asserts gate bit-identical results in every
  # mode and an adaptive-beats-static makespan on the Zipf(1.5) skewed
  # shuffles (emits BENCH_skew.json: skew 1.1/1.5/2.0, static vs adaptive).
  echo "==> skew re-tiling smoke (static vs adaptive)"
  cargo run --release -p xorbits-bench --example bench_skew
fi

echo "CI green."
