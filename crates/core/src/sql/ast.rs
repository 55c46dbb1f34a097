//! SQL abstract syntax tree: what the parser builds and the binder lowers.
//! Byte offsets (`at`) are kept for positioned errors.

use xorbits_dataframe::expr::BinOp;

/// A literal value in SQL source.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `DATE 'yyyy-mm-dd'` literal, stored as days since epoch.
    Date(i32),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// `NULL`.
    Null,
}

/// Scalar function names understood by the binder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncName {
    /// `YEAR(x)` / `EXTRACT(YEAR FROM x)`.
    Year,
    /// `MONTH(x)` / `EXTRACT(MONTH FROM x)`.
    Month,
    /// `DAY(x)` / `EXTRACT(DAY FROM x)`.
    Day,
    /// `SUBSTR(x, start, len)` — 1-based start.
    Substr,
    /// `LENGTH(x)`.
    Length,
    /// `LOWER(x)`.
    Lower,
    /// `UPPER(x)`.
    Upper,
    /// `TRIM(x)`.
    Trim,
    /// `ABS(x)`.
    Abs,
    /// `ROUND(x, digits)`.
    Round,
}

/// Aggregate function names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggName {
    /// `SUM(x)`.
    Sum,
    /// `AVG(x)`.
    Avg,
    /// `MIN(x)`.
    Min,
    /// `MAX(x)`.
    Max,
    /// `COUNT(x)` (non-null count) or `COUNT(DISTINCT x)`.
    Count,
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Column reference, optionally qualified (`alias.col`).
    Col {
        /// Table/CTE alias qualifier, if written.
        qual: Option<String>,
        /// Column name.
        name: String,
        /// Byte offset for error reporting.
        at: usize,
    },
    /// Literal value.
    Lit(Value),
    /// Binary operator application (arithmetic, comparison, AND/OR).
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<SqlExpr>,
        /// Right operand.
        rhs: Box<SqlExpr>,
    },
    /// `NOT expr`.
    Not(Box<SqlExpr>),
    /// Unary minus.
    Neg(Box<SqlExpr>),
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<SqlExpr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`.
    InList {
        /// Probe expression.
        expr: Box<SqlExpr>,
        /// Literal probe values.
        values: Vec<Value>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'` — `%` wildcards at the ends only.
    Like {
        /// Operand.
        expr: Box<SqlExpr>,
        /// The raw pattern.
        pattern: String,
        /// True for `NOT LIKE`.
        negated: bool,
        /// Byte offset of the pattern for error reporting.
        at: usize,
    },
    /// Scalar function call.
    Func {
        /// Function name.
        name: FuncName,
        /// Arguments.
        args: Vec<SqlExpr>,
        /// Byte offset for error reporting.
        at: usize,
    },
    /// Aggregate call; only valid in SELECT items and HAVING.
    Agg {
        /// Aggregate function.
        func: AggName,
        /// Argument expression.
        arg: Box<SqlExpr>,
        /// True for `COUNT(DISTINCT x)`.
        distinct: bool,
        /// Byte offset for error reporting.
        at: usize,
    },
    /// Scalar subquery `(SELECT …)` — must produce one column, ≤ 1 row.
    Subquery {
        /// The inner query.
        query: Box<Select>,
        /// Byte offset for error reporting.
        at: usize,
    },
}

/// One entry in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*` — every column of the FROM relation, in order.
    Star,
    /// An expression with an optional `AS alias`.
    Expr {
        /// The expression.
        expr: SqlExpr,
        /// Output alias, if written.
        alias: Option<String>,
    },
}

/// Join flavours supported by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner equi-join.
    Inner,
    /// Left outer equi-join.
    Left,
    /// Left semi join (`SEMI JOIN`): keep left rows with a match.
    Semi,
    /// Left anti join (`ANTI JOIN`): keep left rows without a match.
    Anti,
}

/// A FROM-clause relation tree.
#[derive(Debug, Clone, PartialEq)]
pub enum FromNode {
    /// Base table or CTE reference.
    Table {
        /// Table or CTE name (already lowercased by the lexer).
        name: String,
        /// Optional alias.
        alias: Option<String>,
        /// Byte offset for error reporting.
        at: usize,
    },
    /// Derived table `(SELECT …) alias`.
    Derived {
        /// The inner query.
        query: Box<Select>,
        /// Optional alias.
        alias: Option<String>,
        /// Byte offset for error reporting.
        at: usize,
    },
    /// `left <kind> JOIN right ON cond` — cond must be a conjunction of
    /// equalities pairing one column from each side.
    Join {
        /// Left input.
        left: Box<FromNode>,
        /// Right input.
        right: Box<FromNode>,
        /// Join flavour.
        kind: JoinKind,
        /// The ON condition.
        on: SqlExpr,
        /// Byte offset of the JOIN keyword.
        at: usize,
    },
}

/// A single SELECT query (no CTEs — those live on [`Statement`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// SELECT-list entries in order.
    pub items: Vec<SelectItem>,
    /// FROM relation tree.
    pub from: FromNode,
    /// WHERE predicate.
    pub where_: Option<SqlExpr>,
    /// GROUP BY expressions (column refs or select-item aliases).
    pub group_by: Vec<SqlExpr>,
    /// HAVING predicate (post-aggregation).
    pub having: Option<SqlExpr>,
    /// ORDER BY keys: (output column, ascending, offset).
    pub order_by: Vec<(String, bool, usize)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// A full statement: optional WITH clause plus the body query.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Common table expressions in declaration order.
    pub ctes: Vec<(String, Select)>,
    /// The main query.
    pub body: Select,
}
