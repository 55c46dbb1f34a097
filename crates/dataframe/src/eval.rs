//! Typed expression evaluation.
//!
//! [`eval`] walks an [`Expr`] tree once per chunk, and every node runs a
//! kernel on the physical type of its operands: `i64`, `i32` dates, `f64`,
//! UTF-8 bytes or packed booleans. A literal is a one-row operand and is
//! never broadcast to the frame's length; a literal on the left flips the
//! comparison. Predicates pack 64 rows into each `u64` word and combine
//! validity word-wise, so a filter's intermediates are bitmaps of n/8
//! bytes. Values are promoted to `f64` only where a numeric pair mixes
//! `f64` with an integer type, and for division.
//!
//! [`eval`] is the body of the engine's elementwise steps
//! (`ChunkOp::DfMap` through `core::exec::apply_df_step`): the whole tree
//! runs inside one chunk task over whole columns, and graph-level fusion
//! runs a chain of such steps in one subtask, so no intermediate reaches
//! the storage service.

use crate::bitmap::Bitmap;
use crate::column::{BoolArr, Column, PrimArr, StrArr};
use crate::dates;
use crate::error::{DfError, DfResult};
use crate::expr::{BinOp, Expr, Func, UnOp};
use crate::frame::DataFrame;
use crate::hash::FxHashSet;
use crate::scalar::{DataType, Scalar};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::Hash;

/// An evaluated node.
enum Val<'a> {
    /// One value per row of the frame.
    Col(Cow<'a, Column>),
    /// A literal, or a node over literals only, held as a one-row column.
    Const(Column),
}

impl<'a> Val<'a> {
    /// Applies a column kernel; a constant stays a constant.
    fn map(self, f: impl FnOnce(&Column) -> DfResult<Column>) -> DfResult<Val<'a>> {
        Ok(match self {
            Val::Col(c) => Val::Col(Cow::Owned(f(&c)?)),
            Val::Const(k) => Val::Const(f(&k)?),
        })
    }
}

/// Where the right operand of a binary kernel comes from.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    /// A column as long as the left one.
    Col,
    /// A one-row constant that stood on the right.
    Lit,
    /// A one-row constant that stood on the left.
    LitLeft,
}

/// The right operand as a kernel reads it.
#[derive(Clone, Copy)]
enum Other<'a, T> {
    Col(&'a [T]),
    Lit(T),
}

impl Side {
    fn of<T: Copy>(self, values: &[T]) -> Other<'_, T> {
        match self {
            Side::Col => Other::Col(values),
            Side::Lit | Side::LitLeft => Other::Lit(values[0]),
        }
    }
}

/// Evaluates `expr` against `df`, returning a column of `df.num_rows()` rows.
pub fn eval(df: &DataFrame, expr: &Expr) -> DfResult<Column> {
    Ok(match eval_val(df, expr)? {
        Val::Col(c) => c.into_owned(),
        // a constant expression's result is its one value on every row
        Val::Const(k) => Column::full(df.num_rows(), &k.get(0), k.data_type()),
    })
}

/// Evaluates a predicate and collapses it to a selection mask
/// (null ⇒ row excluded, pandas boolean-indexing semantics).
pub fn eval_mask(df: &DataFrame, expr: &Expr) -> DfResult<Bitmap> {
    Ok(match eval_val(df, expr)? {
        Val::Col(c) => c.as_bool()?.to_mask(),
        Val::Const(k) => Bitmap::new_set(df.num_rows(), k.as_bool()?.to_mask().get(0)),
    })
}

fn eval_val<'a>(df: &'a DataFrame, expr: &Expr) -> DfResult<Val<'a>> {
    match expr {
        Expr::Col(name) => Ok(Val::Col(Cow::Borrowed(df.column(name)?))),
        Expr::Lit(s) => {
            let dtype = s.data_type().unwrap_or(DataType::Float64);
            Ok(Val::Const(Column::from_scalars(
                std::slice::from_ref(s),
                dtype,
            )?))
        }
        Expr::Binary { op, lhs, rhs } => {
            let op = *op;
            Ok(match (eval_val(df, lhs)?, eval_val(df, rhs)?) {
                (Val::Col(a), Val::Col(b)) => Val::Col(Cow::Owned(binary(op, &a, &b, Side::Col)?)),
                (Val::Const(a), Val::Const(b)) => Val::Const(binary(op, &a, &b, Side::Col)?),
                (Val::Col(c), Val::Const(k)) => {
                    Val::Col(Cow::Owned(binary(op, &c, &k, Side::Lit)?))
                }
                (Val::Const(k), Val::Col(c)) => {
                    Val::Col(Cow::Owned(binary(op, &c, &k, Side::LitLeft)?))
                }
            })
        }
        Expr::Unary { op, expr } => eval_val(df, expr)?.map(|c| unary(*op, c)),
        Expr::Call { func, expr } => eval_val(df, expr)?.map(|c| call(func, c)),
        Expr::IsIn { expr, values } => eval_val(df, expr)?.map(|c| isin(c, values)),
    }
}

/// `l op r`; with a literal `side`, `r` is its one-row column.
fn binary(op: BinOp, l: &Column, r: &Column, side: Side) -> DfResult<Column> {
    // rejected up front so the zip-based kernels can never silently
    // truncate to the shorter side
    if side == Side::Col && l.len() != r.len() {
        return Err(DfError::LengthMismatch {
            expected: l.len(),
            found: r.len(),
        });
    }
    match op {
        BinOp::And | BinOp::Or => logical(op, l, r, side),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(op, l, r, side),
        _ => compare(op, l, r, side),
    }
}

/// Null-as-false `and` / `or`: both sides collapse to masks first.
fn logical(op: BinOp, l: &Column, r: &Column, side: Side) -> DfResult<Column> {
    let a = l.as_bool()?.to_mask();
    let b = r.as_bool()?.to_mask();
    let and = op == BinOp::And;
    let out = match side {
        Side::Col if and => a.and(&b),
        Side::Col => a.or(&b),
        Side::Lit | Side::LitLeft => match (and, b.get(0)) {
            (true, true) | (false, false) => a,
            (true, false) => Bitmap::new_set(a.len(), false),
            (false, true) => Bitmap::new_set(a.len(), true),
        },
    };
    Ok(Column::Bool(BoolArr::new(out)))
}

/// Arithmetic. `Int64 ⊕ Int64` stays integer (wrapping) except for
/// division; every other numeric pair promotes to `f64`.
fn arith(op: BinOp, l: &Column, r: &Column, side: Side) -> DfResult<Column> {
    let validity = merged_validity(l, r, side);
    let flipped = side == Side::LitLeft;
    if let (Column::Int64(a), Column::Int64(b), false) = (l, r, op == BinOp::Div) {
        let b = side.of(&b.values);
        let values = match op {
            BinOp::Add => apply(&a.values, b, flipped, i64::wrapping_add),
            BinOp::Sub => apply(&a.values, b, flipped, i64::wrapping_sub),
            _ => apply(&a.values, b, flipped, i64::wrapping_mul),
        };
        return Ok(Column::Int64(PrimArr {
            values: values.into(),
            validity,
        }));
    }
    let (a, b) = (promote(l)?, promote(r)?);
    let b = side.of(&b);
    let values = match op {
        BinOp::Add => apply(&a, b, flipped, |x, y| x + y),
        BinOp::Sub => apply(&a, b, flipped, |x, y| x - y),
        BinOp::Mul => apply(&a, b, flipped, |x, y| x * y),
        _ => apply(&a, b, flipped, |x, y| x / y),
    };
    Ok(Column::Float64(PrimArr {
        values: values.into(),
        validity,
    }))
}

/// `f(a[i], b)` per row, operands in source order.
fn apply<T: Copy, U>(a: &[T], b: Other<T>, flipped: bool, f: impl Fn(T, T) -> U) -> Vec<U> {
    match b {
        Other::Col(b) => a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect(),
        Other::Lit(k) if flipped => a.iter().map(|&x| f(k, x)).collect(),
        Other::Lit(k) => a.iter().map(|&x| f(x, k)).collect(),
    }
}

/// A numeric column as `f64` — the promotion of mixed-type arithmetic,
/// division and rounding. Booleans count as 0/1 (pandas semantics, e.g.
/// `revenue * (name == 'BRAZIL')`).
fn promote(c: &Column) -> DfResult<Cow<'_, [f64]>> {
    Ok(match c {
        Column::Float64(a) => Cow::Borrowed(&a.values),
        Column::Int64(a) => Cow::Owned(a.values.iter().map(|&v| v as f64).collect()),
        Column::Date(a) => Cow::Owned(a.values.iter().map(|&v| f64::from(v)).collect()),
        Column::Bool(a) => Cow::Owned(a.values.iter().map(|b| f64::from(u8::from(b))).collect()),
        Column::Utf8(_) => return Err(not_numeric(c)),
    })
}

fn not_numeric(c: &Column) -> DfError {
    DfError::TypeMismatch {
        expected: "numeric".into(),
        found: c.data_type().to_string(),
    }
}

/// Validity of `l op r`: the AND of both sides'; a null literal nulls
/// every row.
fn merged_validity(l: &Column, r: &Column, side: Side) -> Option<Bitmap> {
    let r = match side {
        Side::Col => r.validity().cloned(),
        _ if r.is_valid(0) => None,
        _ => (!l.is_empty()).then(|| Bitmap::new_set(l.len(), false)),
    };
    match (l.validity(), r) {
        (None, r) => r,
        (Some(v), None) => Some(v.clone()),
        (Some(v), Some(w)) => Some(v.and(&w)),
    }
}

/// A numeric column as the physical type its comparisons run on.
enum Num<'a> {
    I64(&'a [i64]),
    I32(&'a [i32]),
    F64(&'a [f64]),
}

fn num(c: &Column) -> DfResult<Num<'_>> {
    match c {
        Column::Int64(a) => Ok(Num::I64(&a.values)),
        Column::Date(a) => Ok(Num::I32(&a.values)),
        Column::Float64(a) => Ok(Num::F64(&a.values)),
        other => Err(not_numeric(other)),
    }
}

/// Booleans meet numbers as 0/1.
fn bool_as_int(c: &Column) -> Cow<'_, Column> {
    match c {
        Column::Bool(b) => Cow::Owned(Column::Int64(PrimArr {
            values: b.values.iter().map(i64::from).collect(),
            validity: b.validity.clone(),
        })),
        other => Cow::Borrowed(other),
    }
}

/// `f64::total_cmp` as an integer order: keys compare exactly as the
/// floats do under `total_cmp` (−0.0 before +0.0, NaN after +∞).
#[inline(always)]
fn fkey(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// The mirror of a comparison: `k op x` ⟺ `x flip(op) k`.
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// A comparison as one packed predicate (`==`, `<` or `>`) and whether to
/// invert its words: `!=`, `>=` and `<=` are complements on a total order.
fn base_op(op: BinOp) -> (Ordering, bool) {
    match op {
        BinOp::Eq => (Ordering::Equal, false),
        BinOp::Ne => (Ordering::Equal, true),
        BinOp::Lt => (Ordering::Less, false),
        BinOp::Ge => (Ordering::Less, true),
        BinOp::Gt => (Ordering::Greater, false),
        _ => (Ordering::Greater, true), // BinOp::Le
    }
}

/// The six comparisons. Strings compare as bytes, booleans word-wise,
/// `i64` and dates as integers, and `f64` — alone or against an integer
/// type — under `total_cmp`.
fn compare(op: BinOp, l: &Column, r: &Column, side: Side) -> DfResult<Column> {
    let (op, side) = match side {
        Side::LitLeft => (flip(op), Side::Lit),
        other => (op, other),
    };
    let words = match (l, r) {
        (Column::Utf8(a), Column::Utf8(b)) => str_cmp(op, a, b, side),
        (Column::Bool(a), Column::Bool(b)) => bool_cmp(op, &a.values, &b.values, side),
        _ => {
            let (l, r) = (bool_as_int(l), bool_as_int(r));
            num_cmp(op, num(&l)?, num(&r)?, side)
        }
    };
    Ok(finish(words, l.len(), merged_validity(l, r, side)))
}

fn num_cmp(op: BinOp, a: Num, b: Num, side: Side) -> Vec<u64> {
    use std::convert::identity as id;
    use Num::{F64, I32, I64};
    match (a, b) {
        (I32(x), I32(y)) => cmp_words(op, x, side.of(y), id, id),
        (I64(x), I64(y)) => cmp_words(op, x, side.of(y), id, id),
        (I64(x), I32(y)) => cmp_words(op, x, side.of(y), id, i64::from),
        (I32(x), I64(y)) => cmp_words(op, x, side.of(y), i64::from, id),
        (F64(x), F64(y)) => cmp_words(op, x, side.of(y), fkey, fkey),
        (F64(x), I64(y)) => cmp_words(op, x, side.of(y), fkey, |v| fkey(v as f64)),
        (F64(x), I32(y)) => cmp_words(op, x, side.of(y), fkey, |v| fkey(f64::from(v))),
        (I64(x), F64(y)) => cmp_words(op, x, side.of(y), |v| fkey(v as f64), fkey),
        (I32(x), F64(y)) => cmp_words(op, x, side.of(y), |v| fkey(f64::from(v)), fkey),
    }
}

/// `ka(a[i]) op kb(b)` packed per row: one loop per predicate, picked
/// outside the rows.
fn cmp_words<A: Copy, B: Copy, K: Ord + Copy>(
    op: BinOp,
    a: &[A],
    b: Other<B>,
    ka: impl Fn(A) -> K + Copy,
    kb: impl Fn(B) -> K + Copy,
) -> Vec<u64> {
    let (want, negate) = base_op(op);
    let mut words = match b {
        Other::Col(b) => match want {
            Ordering::Equal => pack2(a, b, |x, y| ka(x) == kb(y)),
            Ordering::Less => pack2(a, b, |x, y| ka(x) < kb(y)),
            Ordering::Greater => pack2(a, b, |x, y| ka(x) > kb(y)),
        },
        Other::Lit(k) => {
            let k = kb(k);
            match want {
                Ordering::Equal => pack(a, |x| ka(x) == k),
                Ordering::Less => pack(a, |x| ka(x) < k),
                Ordering::Greater => pack(a, |x| ka(x) > k),
            }
        }
    };
    if negate {
        words.iter_mut().for_each(|w| *w = !*w);
    }
    words
}

/// Row `i`'s bytes, straight out of the shared byte buffer.
fn rows<'a>(a: &'a StrArr) -> impl Fn(usize) -> &'a [u8] + 'a {
    let (data, offs) = (a.data_buffer().as_slice(), a.offsets_buffer().as_slice());
    move |i| &data[offs[i] as usize..offs[i + 1] as usize]
}

/// Byte-wise comparison, which orders UTF-8 exactly as `str` does; a
/// literal is compared as the borrowed `&str` it is.
fn str_cmp(op: BinOp, a: &StrArr, b: &StrArr, side: Side) -> Vec<u64> {
    let (ra, rb) = (rows(a), rows(b));
    let (want, negate) = base_op(op);
    let mut words = match side {
        Side::Col => pack_idx(a.len(), |i| ra(i).cmp(rb(i)) == want),
        _ => {
            let k = rb(0);
            if want == Ordering::Equal {
                pack_idx(a.len(), |i| ra(i) == k)
            } else {
                pack_idx(a.len(), |i| ra(i).cmp(k) == want)
            }
        }
    };
    if negate {
        words.iter_mut().for_each(|w| *w = !*w);
    }
    words
}

/// Booleans compare a word at a time (`false < true`).
fn bool_cmp(op: BinOp, a: &Bitmap, b: &Bitmap, side: Side) -> Vec<u64> {
    let f: fn(u64, u64) -> u64 = match op {
        BinOp::Eq => |x, y| !(x ^ y),
        BinOp::Ne => |x, y| x ^ y,
        BinOp::Lt => |x, y| !x & y,
        BinOp::Le => |x, y| !x | y,
        BinOp::Gt => |x, y| x & !y,
        _ => |x, y| x | !y, // BinOp::Ge
    };
    let words = 0..a.num_words();
    match side {
        Side::Col => words.map(|wi| f(a.word(wi), b.word(wi))).collect(),
        _ => {
            let k = if b.get(0) { u64::MAX } else { 0 };
            words.map(|wi| f(a.word(wi), k)).collect()
        }
    }
}

/// The normal form of a predicate's result: the value bits of null rows
/// are cleared, and `validity` is `None` when every row is valid.
fn finish(mut words: Vec<u64>, n: usize, validity: Option<Bitmap>) -> Column {
    let validity = validity.filter(|v| v.count_set() < n);
    if let Some(v) = &validity {
        clear_nulls(&mut words, v);
    }
    Column::Bool(BoolArr {
        values: Bitmap::from_words(words, n),
        validity,
    })
}

fn clear_nulls(words: &mut [u64], validity: &Bitmap) {
    for (w, v) in words.iter_mut().zip(validity.words_iter()) {
        *w &= v;
    }
}

/// Packs `bit(v)` of every value into LSB-first words, 64 rows a word: a
/// fixed-length inner loop with no bounds check or branch, which the
/// compiler vectorizes.
fn pack<T: Copy>(vals: &[T], bit: impl Fn(T) -> bool) -> Vec<u64> {
    let full = vals.len() / 64 * 64;
    let mut words = Vec::with_capacity(vals.len().div_ceil(64));
    for c in vals[..full].chunks_exact(64) {
        let c: &[T; 64] = c.try_into().expect("a 64-value chunk");
        words.push(word(c.iter().map(|&v| bit(v))));
    }
    if full < vals.len() {
        words.push(word(vals[full..].iter().map(|&v| bit(v))));
    }
    words
}

/// [`pack`] over two slices of equal length.
fn pack2<A: Copy, B: Copy>(a: &[A], b: &[B], bit: impl Fn(A, B) -> bool) -> Vec<u64> {
    let full = a.len() / 64 * 64;
    let mut words = Vec::with_capacity(a.len().div_ceil(64));
    for (x, y) in a[..full].chunks_exact(64).zip(b[..full].chunks_exact(64)) {
        let x: &[A; 64] = x.try_into().expect("a 64-value chunk");
        let y: &[B; 64] = y.try_into().expect("a 64-value chunk");
        words.push(word(x.iter().zip(y).map(|(&p, &q)| bit(p, q))));
    }
    if full < a.len() {
        let tail = a[full..].iter().zip(&b[full..]);
        words.push(word(tail.map(|(&p, &q)| bit(p, q))));
    }
    words
}

/// [`pack`] over row indices, for rows that are not fixed-width values.
fn pack_idx(n: usize, mut bit: impl FnMut(usize) -> bool) -> Vec<u64> {
    (0..n)
        .step_by(64)
        .map(|base| word((base..n.min(base + 64)).map(&mut bit)))
        .collect()
}

#[inline(always)]
fn word(bits: impl Iterator<Item = bool>) -> u64 {
    bits.enumerate()
        .fold(0, |w, (j, b)| w | (u64::from(b) << j))
}

fn unary(op: UnOp, c: &Column) -> DfResult<Column> {
    let n = c.len();
    match op {
        UnOp::Not => {
            let b = c.as_bool()?;
            let words = b.values.words_iter().map(|w| !w).collect();
            Ok(finish(words, n, b.validity.clone()))
        }
        UnOp::Neg => match c {
            Column::Int64(a) => Ok(Column::Int64(PrimArr {
                values: a.values.iter().map(|v| v.wrapping_neg()).collect(),
                validity: a.validity.clone(),
            })),
            Column::Float64(a) => Ok(Column::Float64(PrimArr {
                values: a.values.iter().map(|v| -v).collect(),
                validity: a.validity.clone(),
            })),
            other => Err(DfError::Unsupported(format!(
                "neg on {}",
                other.data_type()
            ))),
        },
        UnOp::IsNull => Ok(Column::Bool(BoolArr::new(
            c.validity()
                .map_or_else(|| Bitmap::new_set(n, false), Bitmap::not),
        ))),
        UnOp::NotNull => Ok(Column::Bool(BoolArr::new(
            c.validity()
                .map_or_else(|| Bitmap::new_set(n, true), Bitmap::clone),
        ))),
    }
}

fn call(func: &Func, c: &Column) -> DfResult<Column> {
    match func {
        Func::Year | Func::Month | Func::Day => {
            let a = c.as_date()?;
            let values: Vec<Option<i64>> = (0..a.len())
                .map(|i| {
                    a.get(i).map(|d| match func {
                        Func::Year => dates::year(d) as i64,
                        Func::Month => dates::month(d) as i64,
                        _ => dates::day(d) as i64,
                    })
                })
                .collect();
            Ok(Column::from_opt_i64(values))
        }
        Func::StartsWith(p) => str_pred(c, |s| s.starts_with(p)),
        Func::EndsWith(p) => str_pred(c, |s| s.ends_with(p)),
        Func::Contains(p) => str_pred(c, |s| s.contains(p.as_str())),
        Func::Substr { start, len } => {
            let a = c.as_utf8()?;
            let out: Vec<Option<String>> = a
                .iter()
                .map(|s| s.map(|s| s.chars().skip(*start).take(*len).collect::<String>()))
                .collect();
            Ok(Column::from_opt_str(out))
        }
        Func::StrLen => {
            let a = c.as_utf8()?;
            Ok(Column::from_opt_i64(
                a.iter()
                    .map(|s| s.map(|s| s.chars().count() as i64))
                    .collect(),
            ))
        }
        Func::Lower => {
            let a = c.as_utf8()?;
            Ok(Column::from_opt_str(
                a.iter()
                    .map(|s| s.map(str::to_lowercase))
                    .collect::<Vec<_>>(),
            ))
        }
        Func::Upper => {
            let a = c.as_utf8()?;
            Ok(Column::from_opt_str(
                a.iter()
                    .map(|s| s.map(str::to_uppercase))
                    .collect::<Vec<_>>(),
            ))
        }
        Func::Trim => {
            let a = c.as_utf8()?;
            Ok(Column::from_opt_str(
                a.iter()
                    .map(|s| s.map(|s| s.trim().to_string()))
                    .collect::<Vec<_>>(),
            ))
        }
        Func::Abs => match c {
            Column::Int64(a) => Ok(Column::Int64(PrimArr {
                values: a.values.iter().map(|v| v.abs()).collect(),
                validity: a.validity.clone(),
            })),
            Column::Float64(a) => Ok(Column::Float64(PrimArr {
                values: a.values.iter().map(|v| v.abs()).collect(),
                validity: a.validity.clone(),
            })),
            other => Err(DfError::Unsupported(format!(
                "abs on {}",
                other.data_type()
            ))),
        },
        Func::Round(nd) => {
            let factor = 10f64.powi(*nd as i32);
            Ok(Column::Float64(PrimArr {
                values: promote(c)?
                    .iter()
                    .map(|v| (v * factor).round() / factor)
                    .collect(),
                validity: c.validity().cloned(),
            }))
        }
    }
}

fn str_pred(c: &Column, pred: impl Fn(&str) -> bool) -> DfResult<Column> {
    let a = c.as_utf8()?;
    let words = pack_idx(a.len(), |i| pred(a.value(i)));
    Ok(finish(words, a.len(), c.validity().cloned()))
}

/// Membership in a literal set. Null rows are not members and the result
/// has no nulls. A probe matches where `==` against it would: strings
/// match string probes; integer and date columns match integer, date and
/// bool probes exactly and float probes in `f64`; float columns match
/// every numeric probe as `f64`, bit for bit like `total_cmp`.
fn isin(c: &Column, values: &[Scalar]) -> DfResult<Column> {
    let mut words = match c {
        Column::Utf8(a) => {
            let probes: Vec<&[u8]> = values
                .iter()
                .filter_map(Scalar::as_str)
                .map(str::as_bytes)
                .collect();
            member(a.len(), rows(a), &probes)
        }
        Column::Float64(a) => {
            let probes: Vec<u64> = values
                .iter()
                .filter_map(Scalar::as_f64)
                .map(f64::to_bits)
                .collect();
            let vals = a.values.as_slice();
            member(vals.len(), |i| vals[i].to_bits(), &probes)
        }
        Column::Int64(a) => int_isin(&a.values, |v| v, values),
        Column::Date(a) => int_isin(&a.values, i64::from, values),
        other => {
            return Err(DfError::Unsupported(format!(
                "isin on {}",
                other.data_type()
            )))
        }
    };
    if let Some(v) = c.validity() {
        clear_nulls(&mut words, v);
    }
    Ok(Column::Bool(BoolArr::new(Bitmap::from_words(
        words,
        c.len(),
    ))))
}

fn int_isin<T: Copy>(vals: &[T], wide: impl Fn(T) -> i64 + Copy, values: &[Scalar]) -> Vec<u64> {
    let ints: Vec<i64> = values
        .iter()
        .filter_map(|v| match v {
            Scalar::Int(i) => Some(*i),
            Scalar::Date(d) => Some(i64::from(*d)),
            Scalar::Bool(b) => Some(i64::from(*b)),
            _ => None,
        })
        .collect();
    let floats: Vec<u64> = values
        .iter()
        .filter_map(|v| match v {
            Scalar::Float(f) => Some(f.to_bits()),
            _ => None,
        })
        .collect();
    let mut words = member(vals.len(), |i| wide(vals[i]), &ints);
    if !floats.is_empty() {
        let as_float = member(vals.len(), |i| (wide(vals[i]) as f64).to_bits(), &floats);
        for (w, f) in words.iter_mut().zip(as_float) {
            *w |= f;
        }
    }
    words
}

/// Packs whether `key(i)` is one of `probes`, through a hash set of the
/// typed keys.
fn member<K: Copy + Eq + Hash>(n: usize, key: impl Fn(usize) -> K, probes: &[K]) -> Vec<u64> {
    let set: FxHashSet<K> = probes.iter().copied().collect();
    pack_idx(n, |i| set.contains(&key(i)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn df() -> DataFrame {
        DataFrame::new(vec![
            ("a", Column::from_i64(vec![1, 2, 3, 4])),
            ("b", Column::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
            (
                "s",
                Column::from_str(["PROMO X", "STD Y", "PROMO Z", "ECO"]),
            ),
            (
                "d",
                Column::from_date(vec![
                    dates::to_days(1994, 1, 1),
                    dates::to_days(1995, 6, 15),
                    dates::to_days(1994, 12, 31),
                    dates::to_days(1996, 2, 2),
                ]),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn arithmetic_int_fast_path() {
        let c = eval(&df(), &col("a").add(col("a"))).unwrap();
        assert_eq!(c, Column::from_i64(vec![2, 4, 6, 8]));
    }

    #[test]
    fn arithmetic_mixed_promotes() {
        let c = eval(&df(), &col("a").mul(col("b"))).unwrap();
        assert_eq!(c.get(1), Scalar::Float(3.0));
    }

    #[test]
    fn division_always_float() {
        let c = eval(&df(), &col("a").div(lit(2i64))).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.get(0), Scalar::Float(0.5));
    }

    #[test]
    fn comparison_and_mask() {
        let m = eval_mask(&df(), &col("a").gt(lit(2i64))).unwrap();
        assert_eq!(m, Bitmap::from_iter([false, false, true, true]));
    }

    #[test]
    fn logical_ops_and_not() {
        let e = col("a").gt(lit(1i64)).and(col("a").lt(lit(4i64)));
        let m = eval_mask(&df(), &e).unwrap();
        assert_eq!(m.count_set(), 2);
        let m = eval_mask(&df(), &col("a").gt(lit(2i64)).not()).unwrap();
        assert_eq!(m.count_set(), 2);
    }

    #[test]
    fn null_propagation_in_compare() {
        let d = DataFrame::new(vec![(
            "x",
            Column::from_opt_i64(vec![Some(1), None, Some(3)]),
        )])
        .unwrap();
        // null comparison excluded from mask
        let m = eval_mask(&d, &col("x").gt(lit(0i64))).unwrap();
        assert_eq!(m, Bitmap::from_iter([true, false, true]));
    }

    #[test]
    fn string_functions() {
        let m = eval_mask(&df(), &col("s").starts_with("PROMO")).unwrap();
        assert_eq!(m.count_set(), 2);
        let m = eval_mask(&df(), &col("s").contains("Y")).unwrap();
        assert_eq!(m.count_set(), 1);
        let c = eval(&df(), &col("s").call(Func::Substr { start: 0, len: 3 })).unwrap();
        assert_eq!(c.get(3), Scalar::Str("ECO".into()));
    }

    #[test]
    fn date_extraction() {
        let c = eval(&df(), &col("d").year()).unwrap();
        assert_eq!(c, Column::from_i64(vec![1994, 1995, 1994, 1996]));
    }

    #[test]
    fn date_comparison_with_literal() {
        let cutoff = dates::to_days(1995, 1, 1);
        let m = eval_mask(&df(), &col("d").lt(lit(Scalar::Date(cutoff)))).unwrap();
        assert_eq!(m.count_set(), 2);
    }

    #[test]
    fn isin_strings_and_ints() {
        let m = eval_mask(&df(), &col("s").is_in(["ECO", "STD Y"])).unwrap();
        assert_eq!(m.count_set(), 2);
        let m = eval_mask(&df(), &col("a").is_in([1i64, 4i64])).unwrap();
        assert_eq!(m.count_set(), 2);
    }

    #[test]
    fn is_null_not_null() {
        let d = DataFrame::new(vec![("x", Column::from_opt_f64(vec![Some(1.0), None]))]).unwrap();
        let m = eval_mask(&d, &col("x").is_null()).unwrap();
        assert_eq!(m, Bitmap::from_iter([false, true]));
        let m = eval_mask(&d, &col("x").not_null()).unwrap();
        assert_eq!(m, Bitmap::from_iter([true, false]));
    }

    #[test]
    fn abs_round_neg() {
        let d = DataFrame::new(vec![("x", Column::from_f64(vec![-1.25, 2.716]))]).unwrap();
        let c = eval(&d, &col("x").call(Func::Abs)).unwrap();
        assert_eq!(c.get(0), Scalar::Float(1.25));
        let c = eval(&d, &col("x").call(Func::Round(1))).unwrap();
        assert_eq!(c.get(1), Scalar::Float(2.7));
        let c = eval(&d, &col("x").neg()).unwrap();
        assert_eq!(c.get(0), Scalar::Float(1.25));
    }

    #[test]
    fn case_and_trim_functions() {
        let d = DataFrame::new(vec![(
            "s",
            Column::from_opt_str(vec![Some("  Hello "), None, Some("WORLD")]),
        )])
        .unwrap();
        let lower = eval(&d, &col("s").call(Func::Lower)).unwrap();
        assert_eq!(lower.get(2), Scalar::Str("world".into()));
        assert!(lower.get(1).is_null());
        let upper = eval(&d, &col("s").call(Func::Upper)).unwrap();
        assert_eq!(upper.get(0), Scalar::Str("  HELLO ".into()));
        let trimmed = eval(&d, &col("s").call(Func::Trim)).unwrap();
        assert_eq!(trimmed.get(0), Scalar::Str("Hello".into()));
    }

    #[test]
    fn string_equality() {
        let m = eval_mask(&df(), &col("s").eq(lit("ECO"))).unwrap();
        assert_eq!(m.count_set(), 1);
    }

    #[test]
    fn length_mismatch_is_typed_error() {
        let long = Column::from_i64(vec![1, 2, 3]);
        let short = Column::from_i64(vec![1]);
        let (yes, no) = (
            Column::from_bool(vec![true, false]),
            Column::from_bool(vec![true]),
        );
        for res in [
            binary(BinOp::Add, &long, &short, Side::Col),
            binary(BinOp::Lt, &long, &short, Side::Col),
            binary(BinOp::And, &yes, &no, Side::Col),
        ] {
            assert!(matches!(res, Err(DfError::LengthMismatch { .. })));
        }
    }

    #[test]
    fn wrong_operand_type_is_typed_error_not_panic() {
        let frame = df();
        for e in [
            col("s").add(lit(1i64)),
            col("s").lt(lit(1i64)),
            lit(1i64).gt(col("s")),
            col("a").and(col("a")),
            col("a").not(),
        ] {
            assert!(matches!(
                eval(&frame, &e),
                Err(DfError::TypeMismatch { .. })
            ));
        }
        let b = DataFrame::new(vec![("b", Column::from_bool(vec![true]))]).unwrap();
        assert!(matches!(
            eval(&b, &col("b").is_in([true])),
            Err(DfError::Unsupported(_))
        ));
    }

    #[test]
    fn literal_on_the_left_flips_the_comparison() {
        let frame = df();
        for (l, r) in [
            (lit(2i64).lt(col("a")), col("a").gt(lit(2i64))),
            (lit(2i64).le(col("a")), col("a").ge(lit(2i64))),
            (lit("PROMO Z").gt(col("s")), col("s").lt(lit("PROMO Z"))),
            (lit(1.5).ge(col("b")), col("b").le(lit(1.5))),
        ] {
            assert_eq!(eval(&frame, &l).unwrap(), eval(&frame, &r).unwrap());
        }
        // arithmetic keeps operand order
        let c = eval(&frame, &lit(10i64).sub(col("a"))).unwrap();
        assert_eq!(c, Column::from_i64(vec![9, 8, 7, 6]));
        let c = eval(&frame, &lit(1.0).div(col("b"))).unwrap();
        assert_eq!(c.get(0), Scalar::Float(2.0));
    }

    #[test]
    fn constant_expressions_and_null_literals() {
        let frame = df();
        // a predicate over literals only selects every row or none
        assert_eq!(
            eval_mask(&frame, &lit(1i64).lt(lit(2i64)))
                .unwrap()
                .count_set(),
            4
        );
        assert_eq!(
            eval_mask(&frame, &lit(3i64).lt(lit(2i64)))
                .unwrap()
                .count_set(),
            0
        );
        // a constant result column is its value on every row
        let c = eval(&frame, &lit(2i64).mul(lit(3i64))).unwrap();
        assert_eq!(c, Column::from_i64(vec![6; 4]));
        // a null literal nulls every row of a comparison and of arithmetic
        let c = eval(&frame, &col("a").gt(lit(Scalar::Null))).unwrap();
        assert_eq!(c.null_count(), 4);
        assert_eq!(c.as_bool().unwrap().values.count_set(), 0);
        let c = eval(&frame, &col("a").add(lit(Scalar::Null))).unwrap();
        assert_eq!(c.null_count(), 4);
        // `and` with a literal
        let m = eval_mask(&frame, &col("a").gt(lit(1i64)).and(lit(true))).unwrap();
        assert_eq!(m.count_set(), 3);
        let m = eval_mask(&frame, &lit(false).or(col("a").gt(lit(1i64)))).unwrap();
        assert_eq!(m.count_set(), 3);
    }

    #[test]
    fn not_keeps_null_value_bits_cleared() {
        let d = DataFrame::new(vec![(
            "x",
            Column::from_opt_i64(vec![Some(1), None, Some(3)]),
        )])
        .unwrap();
        let c = eval(&d, &col("x").gt(lit(2i64)).not()).unwrap();
        let b = c.as_bool().unwrap();
        assert_eq!(b.values, Bitmap::from_iter([true, false, false]));
        assert_eq!(b.validity, Some(Bitmap::from_iter([true, false, true])));
    }

    #[test]
    fn integers_compare_exactly_above_2_pow_53() {
        let big = 1i64 << 53;
        let d = DataFrame::new(vec![("x", Column::from_i64(vec![big, big + 1]))]).unwrap();
        let m = eval_mask(&d, &col("x").eq(lit(big))).unwrap();
        assert_eq!(m, Bitmap::from_iter([true, false]));
        let m = eval_mask(&d, &col("x").is_in([big + 1])).unwrap();
        assert_eq!(m, Bitmap::from_iter([false, true]));
    }

    #[test]
    fn isin_float_column() {
        // Float64 columns are supported, and int probe literals coerce.
        let m = eval_mask(&df(), &col("b").is_in([Scalar::Float(1.5), Scalar::Int(3)])).unwrap();
        assert_eq!(m, Bitmap::from_iter([false, true, false, false]));
        // Float literal with integral value matches an Int64 column.
        let m = eval_mask(&df(), &col("a").is_in([Scalar::Float(2.0)])).unwrap();
        assert_eq!(m, Bitmap::from_iter([false, true, false, false]));
        // Non-integral float literal simply never matches an Int64 column.
        let m = eval_mask(&df(), &col("a").is_in([Scalar::Float(2.5)])).unwrap();
        assert_eq!(m.count_set(), 0);
    }

    #[test]
    fn isin_coerces_like_compare() {
        // Membership agrees with `==` for every (cell, probe) pairing across
        // Int64/Float64/Date columns and mixed literals: exact among
        // integers and dates, `f64` where a float meets an integer.
        let frame = df();
        let probes = [
            Scalar::Int(2),
            Scalar::Float(2.5),
            Scalar::Date(dates::to_days(1994, 1, 1)),
            Scalar::Bool(true),
            Scalar::Float(-0.0),
        ];
        for name in ["a", "b", "d"] {
            let via_isin = eval(&frame, &col(name).is_in(probes.clone())).unwrap();
            for i in 0..frame.num_rows() {
                let any_eq = probes.iter().any(|p| {
                    eval(&frame, &col(name).eq(lit(p.clone()))).unwrap().get(i)
                        == Scalar::Bool(true)
                });
                assert_eq!(via_isin.get(i), Scalar::Bool(any_eq), "{name} row {i}");
            }
        }
    }
}
