//! Expression AST for filters, projections and derived columns.
//!
//! Column pruning collects [`Expr::required_columns`]; the typed evaluator
//! (`crate::eval`) runs a whole tree over whole columns.

// pandas-style builder names (`add`, `mul`, `not`, …) are the API surface
// this crate reproduces; they intentionally shadow the operator traits.
#![allow(clippy::should_implement_trait)]

use crate::scalar::Scalar;
use std::collections::BTreeSet;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (always yields float, like pandas)
    Div,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// logical and
    And,
    /// logical or
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// logical not
    Not,
    /// arithmetic negation
    Neg,
    /// `isna()`
    IsNull,
    /// `notna()`
    NotNull,
}

/// Scalar functions over one input expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Func {
    /// Extract year from a date.
    Year,
    /// Extract month (1-12) from a date.
    Month,
    /// Extract day of month from a date.
    Day,
    /// `str.startswith`
    StartsWith(String),
    /// `str.endswith`
    EndsWith(String),
    /// `str.contains` (literal substring)
    Contains(String),
    /// `str[start..start+len]`
    Substr {
        /// 0-based start character.
        start: usize,
        /// number of characters.
        len: usize,
    },
    /// `str.len()`
    StrLen,
    /// `str.lower()`
    Lower,
    /// `str.upper()`
    Upper,
    /// `str.strip()`
    Trim,
    /// absolute value
    Abs,
    /// round to `n` decimal places
    Round(u32),
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference.
    Col(String),
    /// Literal scalar.
    Lit(Scalar),
    /// Binary operation.
    Binary {
        /// operator
        op: BinOp,
        /// left operand
        lhs: Box<Expr>,
        /// right operand
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// operator
        op: UnOp,
        /// operand
        expr: Box<Expr>,
    },
    /// Scalar function application.
    Call {
        /// function
        func: Func,
        /// argument
        expr: Box<Expr>,
    },
    /// Membership test against a literal set (pandas `isin`).
    IsIn {
        /// tested expression
        expr: Box<Expr>,
        /// candidate values
        values: Vec<Scalar>,
    },
}

/// Column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Col(name.into())
}

/// Literal.
pub fn lit(value: impl Into<Scalar>) -> Expr {
    Expr::Lit(value.into())
}

macro_rules! bin_method {
    ($name:ident, $op:expr) => {
        /// Builds the corresponding binary expression.
        pub fn $name(self, rhs: Expr) -> Expr {
            Expr::Binary {
                op: $op,
                lhs: Box::new(self),
                rhs: Box::new(rhs),
            }
        }
    };
}

impl Expr {
    bin_method!(add, BinOp::Add);
    bin_method!(sub, BinOp::Sub);
    bin_method!(mul, BinOp::Mul);
    bin_method!(div, BinOp::Div);
    bin_method!(eq, BinOp::Eq);
    bin_method!(ne, BinOp::Ne);
    bin_method!(lt, BinOp::Lt);
    bin_method!(le, BinOp::Le);
    bin_method!(gt, BinOp::Gt);
    bin_method!(ge, BinOp::Ge);
    bin_method!(and, BinOp::And);
    bin_method!(or, BinOp::Or);

    /// Logical not.
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }

    /// Arithmetic negation.
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }

    /// `isna()`
    pub fn is_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(self),
        }
    }

    /// `notna()`
    pub fn not_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::NotNull,
            expr: Box::new(self),
        }
    }

    /// Applies a scalar function.
    pub fn call(self, func: Func) -> Expr {
        Expr::Call {
            func,
            expr: Box::new(self),
        }
    }

    /// Extract year from a date expression.
    pub fn year(self) -> Expr {
        self.call(Func::Year)
    }

    /// Extract month from a date expression.
    pub fn month(self) -> Expr {
        self.call(Func::Month)
    }

    /// `str.startswith(prefix)`
    pub fn starts_with(self, prefix: impl Into<String>) -> Expr {
        self.call(Func::StartsWith(prefix.into()))
    }

    /// `str.endswith(suffix)`
    pub fn ends_with(self, suffix: impl Into<String>) -> Expr {
        self.call(Func::EndsWith(suffix.into()))
    }

    /// `str.contains(needle)` (literal, not regex)
    pub fn contains(self, needle: impl Into<String>) -> Expr {
        self.call(Func::Contains(needle.into()))
    }

    /// Membership test.
    pub fn is_in<S: Into<Scalar>, I: IntoIterator<Item = S>>(self, values: I) -> Expr {
        Expr::IsIn {
            expr: Box::new(self),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Collects the set of referenced column names (for column pruning).
    pub fn required_columns(&self, out: &mut BTreeSet<String>) {
        self.visit_columns(&mut |name| {
            if !out.contains(name) {
                out.insert(name.to_string());
            }
        });
    }

    /// Calls `f` on every referenced column name, left to right, repeats
    /// included.
    pub fn visit_columns<'e>(&'e self, f: &mut impl FnMut(&'e str)) {
        match self {
            Expr::Col(name) => f(name),
            Expr::Lit(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit_columns(f);
                rhs.visit_columns(f);
            }
            Expr::Unary { expr, .. } | Expr::Call { expr, .. } | Expr::IsIn { expr, .. } => {
                expr.visit_columns(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_shapes() {
        let e = col("a").add(lit(1i64)).lt(col("b"));
        assert!(matches!(&e, Expr::Binary { op: BinOp::Lt, lhs, .. }
            if matches!(**lhs, Expr::Binary { op: BinOp::Add, .. })));
        let mut cols = BTreeSet::new();
        e.required_columns(&mut cols);
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn isin_and_funcs() {
        let e = col("s").starts_with("PROMO").or(col("s").is_in(["A", "B"]));
        let mut cols = BTreeSet::new();
        e.required_columns(&mut cols);
        assert_eq!(cols.len(), 1);
    }
}
