//! The binary chunk envelope — the serialization format of the disk tier
//! and the unit the simulator's network/disk cost model charges.
//!
//! A chunk is framed as:
//!
//! ```text
//! ┌─────────────┬─────────┬──────┬──────────┬──────────────┬──────────┐
//! │ magic 8B    │ ver u16 │ kind │ reserved │ body         │ checksum │
//! │ "XBCHNK01"  │ 1 or 2  │  u8  │ u8 = 0   │ kind-specific│ u64      │
//! └─────────────┴─────────┴──────┴──────────┴──────────────┴──────────┘
//! ```
//!
//! Everything is little-endian. The checksum hashes every preceding byte
//! (the same `hash_bytes` the kernels use), so truncation and bit flips are
//! caught before any region is interpreted.
//!
//! Dataframe body (`kind = 0`): `u32` column count, `u64` row count, then
//! per column: name (`u16` length + UTF-8 bytes), dtype id `u8`, flags `u8`
//! (bit 0 ⇒ validity present; bits 1–2 ⇒ value encoding, version 2 only),
//! the validity bitmap as packed `u64` words, and the value region in the
//! recorded encoding:
//!
//! * **Plain** (`enc = 0`, the only encoding of version 1) — raw
//!   fixed-width values for Int64/Float64/Date, packed words for Bool, and
//!   for Utf8 a rebased `(rows + 1) × u32` offsets region followed by a
//!   `u64`-length-prefixed byte region.
//! * **DictUtf8** (`enc = 1`, Utf8 only) — `u32` distinct-string count,
//!   `(ndict + 1) × u32` monotone dictionary offsets starting at 0, a
//!   `u64`-length-prefixed dictionary byte region, a `u8` code width
//!   (1/2/4, the narrowest that fits `ndict − 1`), then `rows` codes at
//!   that width indexing the dictionary in first-occurrence order.
//! * **DeltaVarintI64** (`enc = 2`, Int64 only) — a `u64` byte length of
//!   the value region, then (when `rows > 0`) the first value as a raw
//!   `i64` followed by `rows − 1` LEB128 varints of the zigzag-encoded
//!   wrapping delta to the previous value.
//!
//! Array body (`kind = 1`): `u32` ndim, `u64` per dimension, then the
//! row-major `f64` values (always version 1 — arrays carry no compressed
//! encodings).
//!
//! The encoder picks per column with an exact-size heuristic: a compressed
//! encoding is used only when its wire size beats plain, and the envelope
//! is stamped version 2 only when at least one column actually compressed
//! — an all-plain v2 request emits bytes identical to version 1, so plain
//! v1 chunks and v2 chunks decode through one reader.
//!
//! Three properties matter to the layers above:
//!
//! * **views encode losslessly** — the encoder walks the *viewed* slice of
//!   every buffer (a sliced or copy-on-write view writes exactly its
//!   window, offsets rebased), so a thin view spills thin;
//! * **strict, single-pass decode** — every region is bounds-checked
//!   before it is sliced, offsets must be monotone and in-bounds, dict
//!   codes must be in range, varints must be minimal and non-overflowing,
//!   string bytes must be valid UTF-8 on character boundaries, and the
//!   cursor must land exactly on the checksum. Plain string regions are
//!   rebuilt *zero-copy* as shared windows over the read buffer
//!   ([`Buffer::from_shared`]);
//! * **steady-state encode allocates nothing** — [`EncodeWorkspace`] owns
//!   the output buffer, the string interner's key table and the code
//!   staging, so a warmed workspace re-encodes without touching the heap
//!   (the spill path holds one per storage shard, the executors one per
//!   worker).
//!
//! Dictionaries come from [`StrArr::intern`], which here interns a null
//! row by its bytes like any other row (an empty one shares `""`'s code).
//! A coded column's dictionary is derived from its codes, in the order
//! they first occur, so its sizes and bytes are its plain twin's.

use crate::error::{StorageError, StorageResult};
use crate::ChunkValue;
use std::sync::Arc;
use xorbits_array::NdArray;
use xorbits_dataframe::column::{BoolArr, PrimArr, StrArr};
use xorbits_dataframe::hash::{hash_bytes, KeyTable};
use xorbits_dataframe::{Bitmap, Buffer, Column, DataFrame, DataType};

/// Envelope magic.
pub const MAGIC: [u8; 8] = *b"XBCHNK01";
/// Format version of the plain envelope.
pub const VERSION: u16 = 1;
/// Format version carrying per-column compressed encodings.
pub const VERSION_V2: u16 = 2;

const KIND_DF: u8 = 0;
const KIND_ARR: u8 = 1;
const HEADER_LEN: usize = 12;
const CHECKSUM_LEN: usize = 8;

const FLAG_VALIDITY: u8 = 1;
/// Bits 1–2 of the column flags: the value-region encoding (version 2).
const ENC_SHIFT: u8 = 1;
const ENC_MASK: u8 = 0b110;
const ENC_PLAIN: u8 = 0;
const ENC_DICT_UTF8: u8 = 1;
const ENC_DELTA_VARINT_I64: u8 = 2;

/// Whether the encoder may choose compressed per-column encodings.
/// Chosen once per service/executor (`StorageConfig::encoding`,
/// `ClusterSpec::with_encoding`); `Plain` reproduces version-1 envelopes
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingMode {
    /// Always the version-1 plain layout.
    Plain,
    /// Per-column heuristic: DictUtf8 / DeltaVarintI64 when they win.
    #[default]
    Auto,
}

fn dtype_id(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Bool => 2,
        DataType::Utf8 => 3,
        DataType::Date => 4,
    }
}

fn dtype_from_id(id: u8) -> StorageResult<DataType> {
    match id {
        0 => Ok(DataType::Int64),
        1 => Ok(DataType::Float64),
        2 => Ok(DataType::Bool),
        3 => Ok(DataType::Utf8),
        4 => Ok(DataType::Date),
        other => Err(StorageError::Corrupt(format!("unknown dtype id {other}"))),
    }
}

// ---- fixed-width primitive regions -----------------------------------------

/// Sealed helper for the fixed-width value types the format stores. All are
/// plain-old-data numerics, which is what makes the little-endian bulk
/// memcpy fast paths sound.
trait Fixed: Copy {
    const SIZE: usize;
    fn write_le(self, out: &mut Vec<u8>);
    fn read_le(b: &[u8]) -> Self;
}

macro_rules! impl_fixed {
    ($($t:ty),*) => {$(
        impl Fixed for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn write_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn read_le(b: &[u8]) -> Self {
                <$t>::from_le_bytes(b.try_into().expect("region sized by caller"))
            }
        }
    )*};
}

impl_fixed!(i32, u16, u32, i64, u64, f64);

/// Appends `vals` to `out` in little-endian order. On little-endian targets
/// this is one `memcpy` of the viewed slice.
fn put_fixed<T: Fixed>(out: &mut Vec<u8>, vals: &[T]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `T` is a sealed POD numeric (see `Fixed`); on an LE
        // target its in-memory bytes are already the wire representation.
        let bytes = unsafe {
            std::slice::from_raw_parts(vals.as_ptr().cast::<u8>(), std::mem::size_of_val(vals))
        };
        out.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &v in vals {
        v.write_le(out);
    }
}

/// Decodes a fixed-width region (`bytes.len()` must be `n * T::SIZE`; the
/// caller has already bounds-checked the region).
fn get_fixed<T: Fixed>(bytes: &[u8]) -> Vec<T> {
    debug_assert_eq!(bytes.len() % T::SIZE, 0);
    #[cfg(target_endian = "little")]
    {
        let n = bytes.len() / T::SIZE;
        let mut vals: Vec<T> = Vec::with_capacity(n);
        // SAFETY: `T` is POD; the source holds exactly `n` LE values and
        // the destination has capacity for them. `set_len` exposes only
        // bytes written by the copy.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                vals.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
            vals.set_len(n);
        }
        vals
    }
    #[cfg(not(target_endian = "little"))]
    bytes.chunks_exact(T::SIZE).map(T::read_le).collect()
}

/// Reads a fixed-width region into a reused vector ([`DecodeWorkspace`]
/// scratch), avoiding the fresh `Vec` of [`get_fixed`].
fn read_fixed_into<T: Fixed + Default>(bytes: &[u8], out: &mut Vec<T>) {
    debug_assert_eq!(bytes.len() % T::SIZE, 0);
    let n = bytes.len() / T::SIZE;
    out.clear();
    #[cfg(target_endian = "little")]
    {
        out.reserve(n);
        // SAFETY: as in `get_fixed`; the destination capacity is reserved
        // above and `set_len` exposes only bytes written by the copy.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
            out.set_len(n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    out.extend(bytes.chunks_exact(T::SIZE).map(T::read_le));
}

// ---- varint / zigzag helpers -------------------------------------------------

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Encoded LEB128 length of `z` in bytes (1..=10).
#[inline]
fn varint_len(z: u64) -> usize {
    // 7 payload bits per byte; a zero value still takes one byte
    (64 - (z | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut z: u64) {
    loop {
        let byte = (z & 0x7f) as u8;
        z >>= 7;
        if z == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

// ---- size precomputation ----------------------------------------------------

fn validity_region(rows: usize) -> usize {
    rows.div_ceil(64) * 8
}

fn column_body_size(col: &Column) -> usize {
    let rows = col.len();
    let validity = if col.validity().is_some() {
        validity_region(rows)
    } else {
        0
    };
    validity + plain_values_size(col)
}

/// Plain (version-1) value-region size of a column.
fn plain_values_size(col: &Column) -> usize {
    let rows = col.len();
    match col {
        Column::Int64(_) | Column::Float64(_) => rows * 8,
        Column::Date(_) => rows * 4,
        Column::Bool(_) => validity_region(rows),
        Column::Utf8(a) => (rows + 1) * 4 + 8 + a.value_bytes(),
    }
}

fn df_body_size(df: &DataFrame) -> usize {
    let mut n = 4 + 8; // ncols + nrows
    for (field, col) in df.schema().fields().iter().zip(df.columns()) {
        n += 2 + field.name.len() + 1 + 1 + column_body_size(col);
    }
    n
}

fn arr_body_size(a: &NdArray) -> usize {
    4 + a.shape().len() * 8 + a.len() * 8
}

/// Exact plain (version-1) encoded length of a chunk, without building the
/// envelope — the *raw* side of the compression ratio.
pub fn encoded_size(value: &ChunkValue) -> usize {
    let body = match value {
        ChunkValue::Df(df) => df_body_size(df),
        ChunkValue::Arr(a) => arr_body_size(a),
    };
    HEADER_LEN + body + CHECKSUM_LEN
}

/// Raw (plain) and wire (chosen-encoding) sizes of one chunk, as measured
/// by [`EncodeWorkspace::measure`]. `wire == raw` under
/// [`EncodingMode::Plain`]; under `Auto`, `wire ≤ raw`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedSize {
    /// Version-1 plain envelope bytes.
    pub raw: usize,
    /// Bytes actually written under the chosen per-column encodings.
    pub wire: usize,
}

// ---- encode workspace --------------------------------------------------------

/// Reusable encoder state: the output buffer, the string interner's key
/// table and the per-row code staging. A warmed workspace re-encodes
/// same-shaped chunks with **zero heap allocation** — the property the
/// `zero_alloc` integration test pins with a counting global allocator.
#[derive(Default)]
pub struct EncodeWorkspace {
    out: Vec<u8>,
    /// The interner's table ([`StrArr::intern`]), reset and refilled for
    /// every string column planned.
    table: KeyTable,
    /// Per-row dictionary code of the column being planned.
    codes: Vec<u32>,
    /// Byte span of each dictionary entry (absolute in the column's
    /// [`StrArr::data_buffer`]), in first-occurrence (= wire) order.
    spans: Vec<(u32, u32)>,
}

/// Per-column encoding decision, produced by planning and consumed by the
/// writer (so choose and write agree byte for byte).
struct ColPlan {
    enc: u8,
    /// Value-region size under `enc` (excludes validity).
    wire: usize,
    /// Dictionary byte total (DictUtf8 only).
    dict_bytes: usize,
}

impl EncodeWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> EncodeWorkspace {
        EncodeWorkspace::default()
    }

    /// Encodes one chunk under `mode`, returning the envelope as a view
    /// into the reused output buffer. `Plain` output is bit-identical to
    /// [`encode_chunk`]; `Auto` output is stamped version 2 only when at
    /// least one column compressed (otherwise it, too, is a version-1
    /// envelope byte for byte).
    pub fn encode(&mut self, value: &ChunkValue, mode: EncodingMode) -> &[u8] {
        self.out.clear();
        self.out.reserve(encoded_size(value));
        let mut out = std::mem::take(&mut self.out);
        out.extend_from_slice(&MAGIC);
        VERSION.write_le(&mut out);
        let mut compressed = false;
        match value {
            ChunkValue::Df(df) => {
                out.push(KIND_DF);
                out.push(0);
                (df.num_columns() as u32).write_le(&mut out);
                (df.num_rows() as u64).write_le(&mut out);
                for (field, col) in df.schema().fields().iter().zip(df.columns()) {
                    (field.name.len() as u16).write_le(&mut out);
                    out.extend_from_slice(field.name.as_bytes());
                    out.push(dtype_id(field.dtype));
                    let plan = self.plan_column(col, mode);
                    let mut flags = plan.enc << ENC_SHIFT;
                    if col.validity().is_some() {
                        flags |= FLAG_VALIDITY;
                    }
                    out.push(flags);
                    if let Some(v) = col.validity() {
                        put_words(&mut out, v);
                    }
                    self.write_values(&mut out, col, &plan);
                    compressed |= plan.enc != ENC_PLAIN;
                }
            }
            ChunkValue::Arr(a) => {
                out.push(KIND_ARR);
                out.push(0);
                (a.shape().len() as u32).write_le(&mut out);
                for &d in a.shape() {
                    (d as u64).write_le(&mut out);
                }
                put_fixed(&mut out, a.data());
            }
        }
        if compressed {
            out[8..10].copy_from_slice(&VERSION_V2.to_le_bytes());
        }
        let sum = hash_bytes(&out, 0, out.len());
        sum.write_le(&mut out);
        self.out = out;
        &self.out
    }

    /// Measures the chunk's raw (plain) and wire (chosen-encoding) sizes
    /// without writing the envelope — the simulator's per-chunk cost probe.
    /// Runs the same per-column chooser as [`Self::encode`], so `wire`
    /// equals the length `encode` would produce exactly.
    pub fn measure(&mut self, value: &ChunkValue, mode: EncodingMode) -> EncodedSize {
        let raw = encoded_size(value);
        if mode == EncodingMode::Plain {
            return EncodedSize { raw, wire: raw };
        }
        let wire = match value {
            ChunkValue::Arr(_) => raw,
            ChunkValue::Df(df) => {
                let mut saved = 0usize;
                for col in df.columns() {
                    let plan = self.plan_column(col, mode);
                    if plan.enc != ENC_PLAIN {
                        saved += plain_values_size(col) - plan.wire;
                    }
                }
                raw - saved
            }
        };
        EncodedSize { raw, wire }
    }

    /// Chooses the value-region encoding for one column: compressed only
    /// when its exact wire size beats plain. Fills the dictionary staging
    /// (`codes`/`spans`) when DictUtf8 wins, ready for [`Self::write_values`].
    fn plan_column(&mut self, col: &Column, mode: EncodingMode) -> ColPlan {
        let plain = ColPlan {
            enc: ENC_PLAIN,
            wire: plain_values_size(col),
            dict_bytes: 0,
        };
        if mode == EncodingMode::Plain {
            return plain;
        }
        match col {
            Column::Utf8(a) => {
                let dict_bytes = self.build_dict(a);
                let ndict = self.spans.len();
                let wire = 4 + (ndict + 1) * 4 + 8 + dict_bytes + 1 + a.len() * code_width(ndict);
                if wire < plain.wire {
                    ColPlan {
                        enc: ENC_DICT_UTF8,
                        wire,
                        dict_bytes,
                    }
                } else {
                    plain
                }
            }
            Column::Int64(a) => {
                let vals = a.values.as_slice();
                let wire = delta_varint_size(vals);
                if wire < plain.wire {
                    ColPlan {
                        enc: ENC_DELTA_VARINT_I64,
                        wire,
                        dict_bytes: 0,
                    }
                } else {
                    plain
                }
            }
            _ => plain,
        }
    }

    /// Interns every row of `a`, null rows by their span, into the
    /// workspace dictionary (`codes`, `spans`) and returns its byte total.
    fn build_dict(&mut self, a: &StrArr) -> usize {
        a.intern(true, &mut self.table, &mut self.spans, &mut self.codes);
        self.spans.iter().map(|&(s, e)| (e - s) as usize).sum()
    }

    /// Writes the column's value region in the planned encoding.
    fn write_values(&mut self, out: &mut Vec<u8>, col: &Column, plan: &ColPlan) {
        match plan.enc {
            ENC_DICT_UTF8 => {
                let a = match col {
                    Column::Utf8(a) => a,
                    _ => unreachable!("dict plan on non-string column"),
                };
                let data = a.data_buffer().as_slice();
                let ndict = self.spans.len();
                (ndict as u32).write_le(out);
                let mut acc = 0u32;
                acc.write_le(out);
                for &(s, e) in &self.spans {
                    acc += e - s;
                    acc.write_le(out);
                }
                (plan.dict_bytes as u64).write_le(out);
                for &(s, e) in &self.spans {
                    out.extend_from_slice(&data[s as usize..e as usize]);
                }
                let width = code_width(ndict);
                out.push(width as u8);
                match width {
                    1 => out.extend(self.codes.iter().map(|&c| c as u8)),
                    2 => {
                        for &c in &self.codes {
                            (c as u16).write_le(out);
                        }
                    }
                    _ => put_fixed(out, &self.codes),
                }
            }
            ENC_DELTA_VARINT_I64 => {
                let vals = match col {
                    Column::Int64(a) => a.values.as_slice(),
                    _ => unreachable!("delta plan on non-i64 column"),
                };
                ((plan.wire - 8) as u64).write_le(out);
                if let Some((&first, rest)) = vals.split_first() {
                    first.write_le(out);
                    let mut prev = first;
                    for &v in rest {
                        put_varint(out, zigzag(v.wrapping_sub(prev)));
                        prev = v;
                    }
                }
            }
            _ => match col {
                Column::Int64(a) => put_fixed(out, a.values.as_slice()),
                Column::Float64(a) => put_fixed(out, a.values.as_slice()),
                Column::Date(a) => put_fixed(out, a.values.as_slice()),
                Column::Bool(a) => put_words(out, &a.values),
                Column::Utf8(a) => a.write_plain(out),
            },
        }
    }
}

/// Narrowest code width covering dictionary codes `0..ndict`.
fn code_width(ndict: usize) -> usize {
    if ndict <= 1 << 8 {
        1
    } else if ndict <= 1 << 16 {
        2
    } else {
        4
    }
}

/// Exact DeltaVarintI64 value-region size: length prefix plus (for any
/// rows) the raw first value and the varint deltas.
fn delta_varint_size(vals: &[i64]) -> usize {
    match vals.split_first() {
        None => 8,
        Some((&first, rest)) => {
            let mut n = 8 + 8;
            let mut prev = first;
            for &v in rest {
                n += varint_len(zigzag(v.wrapping_sub(prev)));
                prev = v;
            }
            n
        }
    }
}

/// Writes a bitmap's normalized words without a staging `Vec`.
fn put_words(out: &mut Vec<u8>, v: &Bitmap) {
    for w in v.words_iter() {
        w.write_le(out);
    }
}

// ---- encoding entry points ---------------------------------------------------

/// Encodes one chunk into a fresh plain (version-1) envelope. Hot paths
/// hold an [`EncodeWorkspace`] instead and reuse its buffer.
pub fn encode_chunk(value: &ChunkValue) -> Vec<u8> {
    encode_chunk_with_mode(value, EncodingMode::Plain)
}

/// Encodes one chunk into a fresh envelope under an explicit mode.
pub fn encode_chunk_with_mode(value: &ChunkValue, mode: EncodingMode) -> Vec<u8> {
    let mut ws = EncodeWorkspace::new();
    ws.encode(value, mode);
    debug_assert!(
        mode == EncodingMode::Auto || ws.out.len() == encoded_size(value),
        "plain size precompute drifted"
    );
    ws.out
}

// ---- decoding ----------------------------------------------------------------

/// Reusable decoder scratch: staging for dictionary offsets so read-back
/// does not re-allocate it per column. Output columns themselves are fresh
/// allocations by design (they outlive the call); plain string regions
/// stay zero-copy windows over the read buffer.
#[derive(Default)]
pub struct DecodeWorkspace {
    dict_offs: Vec<u32>,
}

impl DecodeWorkspace {
    /// An empty workspace; scratch grows on first use and is then reused.
    pub fn new() -> DecodeWorkspace {
        DecodeWorkspace::default()
    }
}

/// Strict cursor over the envelope body: every read is bounds-checked and
/// reports the offending position.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    end: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.end)
            .ok_or_else(|| {
                StorageError::Corrupt(format!(
                    "region of {n} bytes at {} overruns body end {}",
                    self.pos, self.end
                ))
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> StorageResult<u16> {
        Ok(u16::read_le(self.take(2)?))
    }

    fn u32(&mut self) -> StorageResult<u32> {
        Ok(u32::read_le(self.take(4)?))
    }

    fn u64(&mut self) -> StorageResult<u64> {
        Ok(u64::read_le(self.take(8)?))
    }

    fn usize64(&mut self, what: &str) -> StorageResult<usize> {
        let v = self.u64()?;
        usize::try_from(v)
            .ok()
            // a count can never exceed the envelope itself (every row/value
            // occupies at least one encoded byte somewhere in the body)
            .filter(|&v| v <= self.end)
            .ok_or_else(|| StorageError::Corrupt(format!("{what} {v} is implausibly large")))
    }
}

fn read_validity(r: &mut Reader<'_>, rows: usize) -> StorageResult<Bitmap> {
    let words = get_fixed::<u64>(r.take(validity_region(rows))?);
    Ok(Bitmap::from_words(words, rows))
}

/// Decodes a DictUtf8 value region into a materialized string column.
fn decode_dict_utf8(
    r: &mut Reader<'_>,
    ws: &mut DecodeWorkspace,
    validity: Option<Bitmap>,
    rows: usize,
) -> StorageResult<Column> {
    let ndict = r.u32()? as usize;
    let offs_bytes = (ndict + 1).checked_mul(4).ok_or_else(|| {
        StorageError::Corrupt(format!(
            "dictionary of {ndict} entries is implausibly large"
        ))
    })?;
    read_fixed_into::<u32>(r.take(offs_bytes)?, &mut ws.dict_offs);
    let dict_len = r.usize64("dictionary byte length")?;
    if ws.dict_offs[0] != 0 || ws.dict_offs[ndict] as usize != dict_len {
        return Err(StorageError::Corrupt(
            "dictionary offsets do not span the dictionary region".into(),
        ));
    }
    if ws.dict_offs.windows(2).any(|w| w[0] > w[1]) {
        return Err(StorageError::Corrupt(
            "dictionary offsets are not monotone".into(),
        ));
    }
    let dict = r.take(dict_len)?;
    let dict_str = std::str::from_utf8(dict)
        .map_err(|e| StorageError::Corrupt(format!("dictionary bytes not UTF-8: {e}")))?;
    if ws
        .dict_offs
        .iter()
        .any(|&o| !dict_str.is_char_boundary(o as usize))
    {
        return Err(StorageError::Corrupt(
            "dictionary offset splits a UTF-8 character".into(),
        ));
    }
    let width = r.u8()? as usize;
    if !matches!(width, 1 | 2 | 4) {
        return Err(StorageError::Corrupt(format!(
            "invalid dictionary code width {width}"
        )));
    }
    let codes = r.take(rows * width)?;
    let code_at = |row: usize| -> usize {
        match width {
            1 => codes[row] as usize,
            2 => u16::read_le(&codes[row * 2..row * 2 + 2]) as usize,
            _ => u32::read_le(&codes[row * 4..row * 4 + 4]) as usize,
        }
    };
    // first pass: range-check every code and total the gathered bytes
    let mut total = 0usize;
    for row in 0..rows {
        let c = code_at(row);
        if c >= ndict {
            return Err(StorageError::Corrupt(format!(
                "dictionary code {c} out of range (ndict {ndict})"
            )));
        }
        total += (ws.dict_offs[c + 1] - ws.dict_offs[c]) as usize;
    }
    // second pass: gather rows from the validated dictionary
    let mut out_offs: Vec<u32> = Vec::with_capacity(rows + 1);
    let mut out_data: Vec<u8> = Vec::with_capacity(total);
    out_offs.push(0);
    for row in 0..rows {
        let c = code_at(row);
        out_data.extend_from_slice(&dict[ws.dict_offs[c] as usize..ws.dict_offs[c + 1] as usize]);
        out_offs.push(out_data.len() as u32);
    }
    let arr = StrArr::from_raw(
        Buffer::from_vec(out_data),
        Buffer::from_vec(out_offs),
        validity,
    )
    .map_err(|e| StorageError::Corrupt(format!("dictionary string column: {e}")))?;
    Ok(Column::Utf8(arr))
}

/// Decodes a DeltaVarintI64 value region. Every varint must be minimal
/// LEB128 and fit in 64 bits; the region must hold exactly `rows − 1`
/// deltas after the raw first value.
fn decode_delta_varint(
    r: &mut Reader<'_>,
    validity: Option<Bitmap>,
    rows: usize,
) -> StorageResult<Column> {
    let region_len = r.usize64("varint region length")?;
    let region = r.take(region_len)?;
    let mut vals: Vec<i64> = Vec::with_capacity(rows);
    if rows == 0 {
        if region_len != 0 {
            return Err(StorageError::Corrupt(
                "varint region for an empty column must be empty".into(),
            ));
        }
    } else {
        if region_len < 8 {
            return Err(StorageError::Corrupt(
                "varint region too short for the first value".into(),
            ));
        }
        let mut prev = i64::read_le(&region[..8]);
        vals.push(prev);
        let mut pos = 8usize;
        for _ in 1..rows {
            let mut z = 0u64;
            let mut shift = 0u32;
            let start = pos;
            loop {
                let byte = *region.get(pos).ok_or_else(|| {
                    StorageError::Corrupt("varint region truncated mid-value".into())
                })?;
                pos += 1;
                if shift == 63 && byte > 1 {
                    return Err(StorageError::Corrupt("varint overflows 64 bits".into()));
                }
                z |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    if byte == 0 && pos - start > 1 {
                        return Err(StorageError::Corrupt("non-minimal varint encoding".into()));
                    }
                    break;
                }
                shift += 7;
                if shift > 63 {
                    return Err(StorageError::Corrupt("varint overflows 64 bits".into()));
                }
            }
            prev = prev.wrapping_add(unzigzag(z));
            vals.push(prev);
        }
        if pos != region_len {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes in varint region",
                region_len - pos
            )));
        }
    }
    Ok(Column::Int64(PrimArr {
        values: Buffer::from_vec(vals),
        validity,
    }))
}

fn decode_column(
    r: &mut Reader<'_>,
    ws: &mut DecodeWorkspace,
    shared: &Arc<Vec<u8>>,
    dtype: DataType,
    flags: u8,
    rows: usize,
) -> StorageResult<Column> {
    let validity = if flags & FLAG_VALIDITY != 0 {
        Some(read_validity(r, rows)?)
    } else {
        None
    };
    let enc = (flags & ENC_MASK) >> ENC_SHIFT;
    match (enc, dtype) {
        (ENC_PLAIN, _) => {}
        (ENC_DICT_UTF8, DataType::Utf8) => return decode_dict_utf8(r, ws, validity, rows),
        (ENC_DELTA_VARINT_I64, DataType::Int64) => return decode_delta_varint(r, validity, rows),
        _ => {
            return Err(StorageError::Corrupt(format!(
                "encoding {enc} is invalid for dtype {dtype:?}"
            )))
        }
    }
    Ok(match dtype {
        DataType::Int64 => Column::Int64(PrimArr {
            values: Buffer::from_vec(get_fixed::<i64>(r.take(rows * 8)?)),
            validity,
        }),
        DataType::Float64 => Column::Float64(PrimArr {
            values: Buffer::from_vec(get_fixed::<f64>(r.take(rows * 8)?)),
            validity,
        }),
        DataType::Date => Column::Date(PrimArr {
            values: Buffer::from_vec(get_fixed::<i32>(r.take(rows * 4)?)),
            validity,
        }),
        DataType::Bool => {
            let words = get_fixed::<u64>(r.take(validity_region(rows))?);
            Column::Bool(BoolArr {
                values: Bitmap::from_words(words, rows),
                validity,
            })
        }
        DataType::Utf8 => {
            let offsets = get_fixed::<u32>(r.take((rows + 1) * 4)?);
            let data_len = r.usize64("string region length")?;
            let data_pos = r.pos;
            // bounds-check and advance; the column's byte storage then
            // becomes a zero-copy window into the read buffer itself
            r.take(data_len)?;
            let data = Buffer::from_shared(Arc::clone(shared), data_pos, data_len);
            let arr = StrArr::from_raw(data, Buffer::from_vec(offsets), validity)
                .map_err(|e| StorageError::Corrupt(format!("string column: {e}")))?;
            Column::Utf8(arr)
        }
    })
}

/// Decodes an envelope produced by [`encode_chunk`] or
/// [`EncodeWorkspace::encode`], consuming the read buffer (plain string
/// columns keep zero-copy windows into it).
pub fn decode_chunk(bytes: Vec<u8>) -> StorageResult<ChunkValue> {
    decode_chunk_with(bytes, &mut DecodeWorkspace::new())
}

/// [`decode_chunk`] with caller-owned scratch (see [`DecodeWorkspace`]).
pub fn decode_chunk_with(bytes: Vec<u8>, ws: &mut DecodeWorkspace) -> StorageResult<ChunkValue> {
    let total = bytes.len();
    if total < HEADER_LEN + CHECKSUM_LEN {
        return Err(StorageError::Corrupt(format!(
            "envelope of {total} bytes is shorter than header + checksum"
        )));
    }
    let body_end = total - CHECKSUM_LEN;
    let stored = u64::read_le(&bytes[body_end..]);
    let actual = hash_bytes(&bytes, 0, body_end);
    if stored != actual {
        return Err(StorageError::Corrupt(format!(
            "checksum mismatch: stored {stored:#x}, computed {actual:#x}"
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    let version = u16::read_le(&bytes[8..10]);
    if version != VERSION && version != VERSION_V2 {
        return Err(StorageError::Corrupt(format!(
            "unsupported version {version} (expected {VERSION} or {VERSION_V2})"
        )));
    }
    let kind = bytes[10];
    let shared = Arc::new(bytes);
    let mut r = Reader {
        bytes: &shared,
        pos: HEADER_LEN,
        end: body_end,
    };
    let value = match kind {
        KIND_DF => {
            let ncols = r.u32()? as usize;
            let nrows = r.usize64("row count")?;
            let mut pairs: Vec<(String, Column)> = Vec::with_capacity(ncols.min(1 << 16));
            for _ in 0..ncols {
                let name_len = r.u16()? as usize;
                let name = std::str::from_utf8(r.take(name_len)?)
                    .map_err(|e| StorageError::Corrupt(format!("column name not UTF-8: {e}")))?
                    .to_string();
                let dtype = dtype_from_id(r.u8()?)?;
                let flags = r.u8()?;
                let known = if version == VERSION {
                    // version 1 predates the encoding bits: only validity
                    FLAG_VALIDITY
                } else {
                    FLAG_VALIDITY | ENC_MASK
                };
                if flags & !known != 0 {
                    return Err(StorageError::Corrupt(format!(
                        "unknown column flags {flags:#04x}"
                    )));
                }
                if (flags & ENC_MASK) >> ENC_SHIFT > ENC_DELTA_VARINT_I64 {
                    return Err(StorageError::Corrupt(format!(
                        "unknown column encoding in flags {flags:#04x}"
                    )));
                }
                let col = decode_column(&mut r, ws, &shared, dtype, flags, nrows)?;
                pairs.push((name, col));
            }
            let df = DataFrame::new(pairs)
                .map_err(|e| StorageError::Corrupt(format!("invalid dataframe: {e}")))?;
            ChunkValue::Df(df)
        }
        KIND_ARR => {
            let ndim = r.u32()? as usize;
            if ndim > 8 {
                return Err(StorageError::Corrupt(format!(
                    "implausible array rank {ndim}"
                )));
            }
            let mut shape = Vec::with_capacity(ndim);
            let mut len = 1usize;
            for _ in 0..ndim {
                let d = r.usize64("array dimension")?;
                len = len
                    .checked_mul(d)
                    .filter(|&l| l <= r.end)
                    .ok_or_else(|| StorageError::Corrupt("array shape overflows".into()))?;
                shape.push(d);
            }
            let data = get_fixed::<f64>(r.take(len * 8)?);
            let arr = NdArray::from_vec(data, shape)
                .map_err(|e| StorageError::Corrupt(format!("invalid array: {e}")))?;
            ChunkValue::Arr(arr)
        }
        other => {
            return Err(StorageError::Corrupt(format!("unknown chunk kind {other}")));
        }
    };
    if r.pos != r.end {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after body",
            r.end - r.pos
        )));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: ChunkValue) -> ChunkValue {
        let enc = encode_chunk(&v);
        assert_eq!(enc.len(), encoded_size(&v));
        decode_chunk(enc).expect("roundtrip decode")
    }

    #[test]
    fn df_roundtrip_basic() {
        let df = DataFrame::new(vec![
            ("i", Column::from_opt_i64(vec![Some(1), None, Some(-3)])),
            ("f", Column::from_f64(vec![0.5, -1.5, f64::NAN])),
            (
                "s",
                Column::from_opt_str(vec![Some("ab"), None, Some("cé")]),
            ),
            ("b", Column::from_bool(vec![true, false, true])),
            ("d", Column::from_date(vec![10, 20, 30])),
        ])
        .unwrap();
        let out = match roundtrip(ChunkValue::Df(df.clone())) {
            ChunkValue::Df(out) => out,
            _ => panic!("kind flipped"),
        };
        // NaN breaks PartialEq; compare piecewise
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.schema(), df.schema());
        assert_eq!(out.column("i").unwrap(), df.column("i").unwrap());
        assert_eq!(out.column("s").unwrap(), df.column("s").unwrap());
        assert!(out.column("f").unwrap().get(2).as_f64().unwrap().is_nan());
    }

    #[test]
    fn sliced_view_encodes_viewed_range_only() {
        let parent = DataFrame::new(vec![
            ("v", Column::from_i64((0..1000).collect())),
            ("s", Column::from_str((0..1000).map(|i| format!("row{i}")))),
        ])
        .unwrap();
        let view = parent.slice(100, 10);
        let enc = encode_chunk(&ChunkValue::Df(view.clone()));
        // the envelope must be proportional to the view, not the parent
        assert!(enc.len() < 1000, "envelope {} bytes", enc.len());
        let out = match decode_chunk(enc).unwrap() {
            ChunkValue::Df(out) => out,
            _ => unreachable!(),
        };
        assert_eq!(out, view);
    }

    #[test]
    fn arr_roundtrip() {
        let a = NdArray::from_vec((0..24).map(|i| i as f64).collect(), vec![4, 6]).unwrap();
        let out = match roundtrip(ChunkValue::Arr(a.clone())) {
            ChunkValue::Arr(out) => out,
            _ => panic!("kind flipped"),
        };
        assert_eq!(out.shape(), a.shape());
        assert_eq!(out.data(), a.data());
    }

    #[test]
    fn corrupt_envelopes_rejected() {
        let df = DataFrame::new(vec![("x", Column::from_i64(vec![1, 2, 3]))]).unwrap();
        let enc = encode_chunk(&ChunkValue::Df(df));
        // truncation
        assert!(decode_chunk(enc[..enc.len() - 1].to_vec()).is_err());
        assert!(decode_chunk(enc[..6].to_vec()).is_err());
        // bit flip anywhere fails the checksum
        for pos in [0, 9, 15, enc.len() / 2] {
            let mut bad = enc.clone();
            bad[pos] ^= 0x40;
            assert!(decode_chunk(bad).is_err(), "flip at {pos} accepted");
        }
    }

    #[test]
    fn zigzag_varint_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, 64, i64::MAX, i64::MIN, 1 << 35] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag({v})");
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            assert_eq!(buf.len(), varint_len(zigzag(v)), "len({v})");
        }
    }

    #[test]
    fn dict_wins_on_repetitive_strings_and_roundtrips() {
        let df = DataFrame::new(vec![(
            "s",
            Column::from_str((0..2000).map(|i| format!("flag{}", i % 3))),
        )])
        .unwrap();
        let v = ChunkValue::Df(df.clone());
        let plain = encode_chunk(&v);
        let auto = encode_chunk_with_mode(&v, EncodingMode::Auto);
        assert!(
            auto.len() * 2 < plain.len(),
            "dict should at least halve this column: {} vs {}",
            auto.len(),
            plain.len()
        );
        assert_eq!(u16::read_le(&auto[8..10]), VERSION_V2);
        match decode_chunk(auto).unwrap() {
            ChunkValue::Df(out) => assert_eq!(out, df),
            _ => unreachable!(),
        }
    }

    #[test]
    fn delta_varint_wins_on_sorted_keys_and_roundtrips() {
        let df = DataFrame::new(vec![(
            "k",
            Column::from_i64((0..4000i64).map(|i| i * 3).collect()),
        )])
        .unwrap();
        let v = ChunkValue::Df(df.clone());
        let plain = encode_chunk(&v);
        let auto = encode_chunk_with_mode(&v, EncodingMode::Auto);
        assert!(
            auto.len() * 2 < plain.len(),
            "varints should at least halve sorted keys: {} vs {}",
            auto.len(),
            plain.len()
        );
        match decode_chunk(auto).unwrap() {
            ChunkValue::Df(out) => assert_eq!(out, df),
            _ => unreachable!(),
        }
    }

    #[test]
    fn incompressible_columns_stay_plain_and_bit_identical() {
        // high-entropy strings and i64s: the chooser must fall back to
        // plain, and an all-plain auto envelope is byte-equal to version 1
        let mut rng = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let df = DataFrame::new(vec![
            (
                "s",
                Column::from_str((0..500).map(|_| format!("{:016x}", next()))),
            ),
            (
                "k",
                Column::from_i64((0..500).map(|_| next() as i64).collect()),
            ),
        ])
        .unwrap();
        let v = ChunkValue::Df(df);
        assert_eq!(
            encode_chunk_with_mode(&v, EncodingMode::Auto),
            encode_chunk(&v)
        );
    }

    #[test]
    fn measure_matches_encode_exactly() {
        let df = DataFrame::new(vec![
            (
                "s",
                Column::from_str((0..1000).map(|i| format!("v{}", i % 5))),
            ),
            ("k", Column::from_i64((0..1000).collect())),
            ("f", Column::from_f64((0..1000).map(|i| i as f64).collect())),
        ])
        .unwrap();
        let v = ChunkValue::Df(df);
        let mut ws = EncodeWorkspace::new();
        for mode in [EncodingMode::Plain, EncodingMode::Auto] {
            let size = ws.measure(&v, mode);
            assert_eq!(size.raw, encoded_size(&v));
            assert_eq!(size.wire, ws.encode(&v, mode).len(), "{mode:?}");
        }
    }

    /// The `Auto` wire bytes of a fixed corpus, pinned by digest: the
    /// dictionary interner may change how it finds equal strings, never
    /// which codes it hands out or in what order.
    #[test]
    fn auto_wire_bytes_are_pinned() {
        // `n` distinct strings, each repeated `reps` times in a row, so the
        // dictionary beats plain and its code width is `code_width(n)`
        let dict = |n: usize, reps: usize| {
            Column::from_str((0..n * reps).map(|i| format!("{:x}", i / reps)))
        };
        let long = Column::from_str((0..600).map(|i| format!("a-long-string-{}", i % 40)));
        let viewed = DataFrame::new(vec![("s", long.clone())]).unwrap();
        let corpus: Vec<(&str, DataFrame, u64)> = vec![
            (
                "nulls before the first empty string",
                DataFrame::new(vec![(
                    "s",
                    Column::from_opt_str(
                        (0..400).map(|i| [None, None, Some("x"), Some(""), Some("y")][i % 5]),
                    ),
                )])
                .unwrap(),
                0x4c0c7cbe59f629c9,
            ),
            (
                "only nulls have empty spans",
                DataFrame::new(vec![(
                    "s",
                    Column::from_opt_str(
                        (0..400).map(|i| (i % 3 != 0).then_some(["p", "q"][i % 2])),
                    ),
                )])
                .unwrap(),
                0x677a4f0076cf2417,
            ),
            (
                "strings longer than 8 bytes",
                DataFrame::new(vec![("s", long)]).unwrap(),
                0x0d350bc99de634b2,
            ),
            ("offset view", viewed.slice(37, 401), 0xf7e307618947a946),
            (
                "256 entries",
                DataFrame::new(vec![("s", dict(256, 4))]).unwrap(),
                0xcc7819790f936971,
            ),
            (
                "257 entries",
                DataFrame::new(vec![("s", dict(257, 4))]).unwrap(),
                0xcf8039ad7577ed27,
            ),
            (
                "65536 entries",
                DataFrame::new(vec![("s", dict(65_536, 3))]).unwrap(),
                0xa438a072acce4854,
            ),
            (
                "65537 entries",
                DataFrame::new(vec![("s", dict(65_537, 3))]).unwrap(),
                0xa20bcab19fe1af3e,
            ),
        ];
        let mut ws = EncodeWorkspace::new();
        let mut wrong = Vec::new();
        for (name, df, want) in corpus {
            let bytes = ws.encode(&ChunkValue::Df(df), EncodingMode::Auto);
            assert_eq!(u16::read_le(&bytes[8..10]), VERSION_V2, "{name}");
            let got = hash_bytes(bytes, 0, bytes.len());
            if got != want {
                wrong.push(format!("{name}: {got:#018x}"));
            }
        }
        assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
    }

    #[test]
    fn workspace_reuse_is_bit_stable() {
        let v = ChunkValue::Df(
            DataFrame::new(vec![
                (
                    "s",
                    Column::from_str((0..300).map(|i| format!("g{}", i % 7))),
                ),
                ("k", Column::from_i64((0..300).collect())),
            ])
            .unwrap(),
        );
        let mut ws = EncodeWorkspace::new();
        let first = ws.encode(&v, EncodingMode::Auto).to_vec();
        for _ in 0..3 {
            assert_eq!(ws.encode(&v, EncodingMode::Auto), &first[..]);
        }
    }
}
