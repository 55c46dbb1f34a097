//! Recursive-descent SQL parser.
//!
//! Hand-written, no lookahead beyond one token, and guarded by an explicit
//! recursion-depth limit so adversarial nesting produces a positioned error
//! instead of a stack overflow. The grammar covers the subset the binder
//! can lower: SELECT lists with expressions and aliases, FROM with
//! INNER/LEFT/SEMI/ANTI equi-joins (including parenthesized join trees and
//! derived tables), WITH (CTEs), WHERE, GROUP BY, HAVING, ORDER BY, LIMIT,
//! scalar subqueries, IN lists, [NOT] LIKE, BETWEEN, IS [NOT] NULL, DATE
//! literals, EXTRACT, and the scalar/aggregate functions in
//! [`ast::FuncName`]/[`ast::AggName`].

use super::ast::{
    AggName, FromNode, FuncName, JoinKind, Select, SelectItem, SqlExpr, Statement, Value,
};
use super::lexer::{Tok, Token};
use super::RawError;
use xorbits_dataframe::dates;
use xorbits_dataframe::expr::BinOp;

/// Maximum expression / FROM-tree nesting depth before the parser bails
/// out with an error (prevents stack overflow on adversarial input).
const MAX_DEPTH: usize = 200;

/// Identifiers that cannot be used as bare aliases.
const RESERVED: &[&str] = &[
    "select", "from", "where", "group", "by", "having", "order", "limit", "join", "inner", "left",
    "right", "full", "outer", "semi", "anti", "on", "as", "and", "or", "not", "in", "like", "is",
    "null", "between", "with", "asc", "desc", "union", "distinct", "date", "case", "when", "then",
    "else", "end", "extract",
];

/// Parses one statement (optionally `WITH`-prefixed, optionally
/// `;`-terminated) from the tokens of a text `len` bytes long.
pub fn parse(toks: &[Token], len: usize) -> Result<Statement, RawError> {
    let mut p = P {
        toks,
        i: 0,
        depth: 0,
        eof_at: len,
    };
    let stmt = p.statement()?;
    p.eat_sym(";");
    if let Some(t) = p.peek() {
        return Err(RawError::new(
            t.offset,
            format!("unexpected {} after end of statement", describe(&t.tok)),
        ));
    }
    Ok(stmt)
}

fn describe(t: &Tok) -> String {
    match t {
        Tok::Ident(s) => format!("`{s}`"),
        Tok::Str(_) => "string literal".to_string(),
        Tok::Int(v) => format!("`{v}`"),
        Tok::Float(v) => format!("`{v}`"),
        Tok::Sym(s) => format!("`{s}`"),
    }
}

struct P<'a> {
    toks: &'a [Token],
    i: usize,
    depth: usize,
    eof_at: usize,
}

impl<'a> P<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.i)
    }

    fn at(&self) -> usize {
        self.peek().map(|t| t.offset).unwrap_or(self.eof_at)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.i);
        self.i += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, RawError> {
        Err(RawError::new(self.at(), msg))
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Ident(s), .. }) if s == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), RawError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected {}", kw.to_uppercase()))
        }
    }

    fn is_sym(&self, sym: &str) -> bool {
        matches!(self.peek(), Some(Token { tok: Tok::Sym(s), .. }) if *s == sym)
    }

    fn eat_sym(&mut self, sym: &str) -> bool {
        if self.is_sym(sym) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, sym: &str) -> Result<(), RawError> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            self.err(format!("expected `{sym}`"))
        }
    }

    fn ident(&mut self, what: &str) -> Result<(String, usize), RawError> {
        match self.peek() {
            Some(Token {
                tok: Tok::Ident(s),
                offset,
            }) => {
                let out = (s.clone(), *offset);
                self.i += 1;
                Ok(out)
            }
            _ => self.err(format!("expected {what}")),
        }
    }

    fn enter(&mut self) -> Result<(), RawError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(RawError::new(self.at(), "expression nesting too deep"));
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    // -- statements ---------------------------------------------------------

    fn statement(&mut self) -> Result<Statement, RawError> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let (name, at) = self.ident("CTE name")?;
                if RESERVED.contains(&name.as_str()) {
                    return Err(RawError::new(at, format!("`{name}` is a reserved word")));
                }
                self.expect_kw("as")?;
                self.expect_sym("(")?;
                let sel = self.select()?;
                self.expect_sym(")")?;
                ctes.push((name, sel));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let body = self.select()?;
        Ok(Statement { ctes, body })
    }

    fn select(&mut self) -> Result<Select, RawError> {
        self.enter()?;
        self.expect_kw("select")?;
        let mut items = Vec::new();
        loop {
            if self.eat_sym("*") {
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = self.alias()?;
                items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_kw("from")?;
        let from = self.from()?;
        let where_ = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let (name, at) = self.ident("ORDER BY column")?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push((name, asc, at));
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.peek() {
                Some(Token {
                    tok: Tok::Int(n), ..
                }) if *n >= 0 => {
                    let n = *n as usize;
                    self.i += 1;
                    Some(n)
                }
                _ => return self.err("expected non-negative integer after LIMIT"),
            }
        } else {
            None
        };
        self.leave();
        Ok(Select {
            items,
            from,
            where_,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    /// Optional `[AS] alias`; aliases must not be reserved words.
    fn alias(&mut self) -> Result<Option<String>, RawError> {
        if self.eat_kw("as") {
            let (name, at) = self.ident("alias")?;
            if RESERVED.contains(&name.as_str()) {
                return Err(RawError::new(
                    at,
                    format!("`{name}` is a reserved word and cannot be an alias"),
                ));
            }
            return Ok(Some(name));
        }
        if let Some(Token {
            tok: Tok::Ident(s), ..
        }) = self.peek()
        {
            if !RESERVED.contains(&s.as_str()) {
                let name = s.clone();
                self.i += 1;
                return Ok(Some(name));
            }
        }
        Ok(None)
    }

    // -- FROM ---------------------------------------------------------------

    fn from(&mut self) -> Result<FromNode, RawError> {
        self.enter()?;
        let mut left = self.table_factor()?;
        loop {
            let at = self.at();
            let kind = if self.eat_kw("join") || {
                if self.is_kw("inner") {
                    self.i += 1;
                    self.expect_kw("join")?;
                    true
                } else {
                    false
                }
            } {
                JoinKind::Inner
            } else if self.is_kw("left") {
                self.i += 1;
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.is_kw("semi") {
                self.i += 1;
                self.expect_kw("join")?;
                JoinKind::Semi
            } else if self.is_kw("anti") {
                self.i += 1;
                self.expect_kw("join")?;
                JoinKind::Anti
            } else {
                break;
            };
            let right = self.table_factor()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            left = FromNode::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
                at,
            };
        }
        self.leave();
        Ok(left)
    }

    fn table_factor(&mut self) -> Result<FromNode, RawError> {
        let at = self.at();
        if self.eat_sym("(") {
            if self.is_kw("select") {
                let sel = self.select()?;
                self.expect_sym(")")?;
                let alias = self.alias()?;
                return Ok(FromNode::Derived {
                    query: Box::new(sel),
                    alias,
                    at,
                });
            }
            // Parenthesized join tree (used to build right-deep joins).
            let inner = self.from()?;
            self.expect_sym(")")?;
            return Ok(inner);
        }
        let (name, at) = self.ident("table name")?;
        if RESERVED.contains(&name.as_str()) {
            return Err(RawError::new(at, format!("`{name}` is a reserved word")));
        }
        let alias = self.alias()?;
        Ok(FromNode::Table { name, alias, at })
    }

    // -- expressions --------------------------------------------------------

    fn expr(&mut self) -> Result<SqlExpr, RawError> {
        self.enter()?;
        let e = self.or_expr();
        self.leave();
        e
    }

    fn or_expr(&mut self) -> Result<SqlExpr, RawError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = SqlExpr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<SqlExpr, RawError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = SqlExpr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<SqlExpr, RawError> {
        if self.eat_kw("not") {
            self.enter()?;
            let inner = self.not_expr()?;
            self.leave();
            return Ok(SqlExpr::Not(Box::new(inner)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<SqlExpr, RawError> {
        let lhs = self.add_expr()?;
        // Comparison operator?
        let cmp = if self.eat_sym("=") {
            Some(BinOp::Eq)
        } else if self.eat_sym("<>") {
            Some(BinOp::Ne)
        } else if self.eat_sym("<=") {
            Some(BinOp::Le)
        } else if self.eat_sym(">=") {
            Some(BinOp::Ge)
        } else if self.eat_sym("<") {
            Some(BinOp::Lt)
        } else if self.eat_sym(">") {
            Some(BinOp::Gt)
        } else {
            None
        };
        if let Some(op) = cmp {
            let rhs = self.add_expr()?;
            return Ok(SqlExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        // IS [NOT] NULL.
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        // [NOT] IN / [NOT] LIKE / [NOT] BETWEEN.
        let negated = self.eat_kw("not");
        if self.eat_kw("in") {
            self.expect_sym("(")?;
            let mut values = Vec::new();
            loop {
                values.push(self.value()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(SqlExpr::InList {
                expr: Box::new(lhs),
                values,
                negated,
            });
        }
        if self.is_kw("like") {
            let at = self.at();
            self.i += 1;
            match self.bump() {
                Some(Token {
                    tok: Tok::Str(p), ..
                }) => {
                    return Ok(SqlExpr::Like {
                        expr: Box::new(lhs),
                        pattern: p.clone(),
                        negated,
                        at,
                    })
                }
                _ => return Err(RawError::new(at, "expected string pattern after LIKE")),
            }
        }
        if self.eat_kw("between") {
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            // Desugars to (lhs >= lo) AND (lhs <= hi).
            let range = SqlExpr::Binary {
                op: BinOp::And,
                lhs: Box::new(SqlExpr::Binary {
                    op: BinOp::Ge,
                    lhs: Box::new(lhs.clone()),
                    rhs: Box::new(lo),
                }),
                rhs: Box::new(SqlExpr::Binary {
                    op: BinOp::Le,
                    lhs: Box::new(lhs),
                    rhs: Box::new(hi),
                }),
            };
            return Ok(if negated {
                SqlExpr::Not(Box::new(range))
            } else {
                range
            });
        }
        if negated {
            return self.err("expected IN, LIKE or BETWEEN after NOT");
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<SqlExpr, RawError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = if self.eat_sym("+") {
                BinOp::Add
            } else if self.eat_sym("-") {
                BinOp::Sub
            } else {
                break;
            };
            let rhs = self.mul_expr()?;
            lhs = SqlExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<SqlExpr, RawError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = if self.eat_sym("*") {
                BinOp::Mul
            } else if self.eat_sym("/") {
                BinOp::Div
            } else {
                break;
            };
            let rhs = self.unary_expr()?;
            lhs = SqlExpr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<SqlExpr, RawError> {
        if self.eat_sym("-") {
            self.enter()?;
            let inner = self.unary_expr()?;
            self.leave();
            return Ok(SqlExpr::Neg(Box::new(inner)));
        }
        if self.eat_sym("+") {
            return self.unary_expr();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<SqlExpr, RawError> {
        self.enter()?;
        let out = self.primary_inner();
        self.leave();
        out
    }

    fn primary_inner(&mut self) -> Result<SqlExpr, RawError> {
        let at = self.at();
        match self.peek().map(|t| &t.tok) {
            Some(Tok::Int(n)) => {
                let v = *n;
                self.i += 1;
                Ok(SqlExpr::Lit(Value::Int(v)))
            }
            Some(Tok::Float(x)) => {
                let v = *x;
                self.i += 1;
                Ok(SqlExpr::Lit(Value::Float(v)))
            }
            Some(Tok::Str(s)) => {
                let v = s.clone();
                self.i += 1;
                Ok(SqlExpr::Lit(Value::Str(v)))
            }
            Some(Tok::Sym("(")) => {
                self.i += 1;
                if self.is_kw("select") {
                    let sel = self.select()?;
                    self.expect_sym(")")?;
                    return Ok(SqlExpr::Subquery {
                        query: Box::new(sel),
                        at,
                    });
                }
                let e = self.expr()?;
                self.expect_sym(")")?;
                Ok(e)
            }
            Some(Tok::Ident(id)) => {
                let id = id.clone();
                self.i += 1;
                match id.as_str() {
                    "true" => return Ok(SqlExpr::Lit(Value::Bool(true))),
                    "false" => return Ok(SqlExpr::Lit(Value::Bool(false))),
                    "null" => return Ok(SqlExpr::Lit(Value::Null)),
                    "date" => {
                        return match self.bump() {
                            Some(Token {
                                tok: Tok::Str(s),
                                offset,
                            }) => Ok(SqlExpr::Lit(Value::Date(parse_date(s, *offset)?))),
                            _ => Err(RawError::new(at, "expected 'yyyy-mm-dd' after DATE")),
                        }
                    }
                    _ => {}
                }
                if self.is_sym("(") {
                    return self.call(&id, at);
                }
                if self.eat_sym(".") {
                    let (name, _) = self.ident("column name after `.`")?;
                    return Ok(SqlExpr::Col {
                        qual: Some(id),
                        name,
                        at,
                    });
                }
                if RESERVED.contains(&id.as_str()) {
                    return Err(RawError::new(at, format!("unexpected keyword `{id}`")));
                }
                Ok(SqlExpr::Col {
                    qual: None,
                    name: id,
                    at,
                })
            }
            Some(t) => self.err(format!("unexpected {}", describe(t))),
            None => self.err("unexpected end of input"),
        }
    }

    /// Parses `name(…)` — an aggregate, EXTRACT, or a scalar function.
    fn call(&mut self, name: &str, at: usize) -> Result<SqlExpr, RawError> {
        self.expect_sym("(")?;
        let agg = match name {
            "sum" => Some(AggName::Sum),
            "avg" => Some(AggName::Avg),
            "min" => Some(AggName::Min),
            "max" => Some(AggName::Max),
            "count" => Some(AggName::Count),
            _ => None,
        };
        if let Some(func) = agg {
            let distinct = self.eat_kw("distinct");
            if distinct && func != AggName::Count {
                return Err(RawError::new(
                    at,
                    "DISTINCT is only supported with COUNT".to_string(),
                ));
            }
            if self.is_sym("*") {
                return Err(RawError::new(
                    self.at(),
                    "COUNT(*) is not supported; aggregate a specific column",
                ));
            }
            let arg = self.expr()?;
            self.expect_sym(")")?;
            return Ok(SqlExpr::Agg {
                func,
                arg: Box::new(arg),
                distinct,
                at,
            });
        }
        if name == "extract" {
            let (field, fat) = self.ident("YEAR, MONTH or DAY")?;
            let fname = match field.as_str() {
                "year" => FuncName::Year,
                "month" => FuncName::Month,
                "day" => FuncName::Day,
                _ => {
                    return Err(RawError::new(
                        fat,
                        format!("cannot EXTRACT `{field}`; expected YEAR, MONTH or DAY"),
                    ))
                }
            };
            self.expect_kw("from")?;
            let arg = self.expr()?;
            self.expect_sym(")")?;
            return Ok(SqlExpr::Func {
                name: fname,
                args: vec![arg],
                at,
            });
        }
        let fname = match name {
            "year" => FuncName::Year,
            "month" => FuncName::Month,
            "day" => FuncName::Day,
            "substr" | "substring" => FuncName::Substr,
            "length" => FuncName::Length,
            "lower" => FuncName::Lower,
            "upper" => FuncName::Upper,
            "trim" => FuncName::Trim,
            "abs" => FuncName::Abs,
            "round" => FuncName::Round,
            _ => return Err(RawError::new(at, format!("unknown function `{name}`"))),
        };
        let mut args = Vec::new();
        if !self.is_sym(")") {
            loop {
                args.push(self.expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        Ok(SqlExpr::Func {
            name: fname,
            args,
            at,
        })
    }

    /// A literal usable inside an IN list.
    fn value(&mut self) -> Result<Value, RawError> {
        let at = self.at();
        let neg = self.eat_sym("-");
        match self.bump().map(|t| (&t.tok, t.offset)) {
            Some((Tok::Int(n), _)) => Ok(Value::Int(if neg { -n } else { *n })),
            Some((Tok::Float(x), _)) => Ok(Value::Float(if neg { -x } else { *x })),
            Some((Tok::Str(s), _)) if !neg => Ok(Value::Str(s.clone())),
            Some((Tok::Ident(id), offset)) if !neg => match id.as_str() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                "null" => Ok(Value::Null),
                "date" => match self.bump() {
                    Some(Token {
                        tok: Tok::Str(s),
                        offset,
                    }) => Ok(Value::Date(parse_date(s, *offset)?)),
                    _ => Err(RawError::new(offset, "expected 'yyyy-mm-dd' after DATE")),
                },
                _ => Err(RawError::new(offset, "expected literal value")),
            },
            _ => Err(RawError::new(at, "expected literal value")),
        }
    }
}

/// Parses `'yyyy-mm-dd'` into days since epoch.
fn parse_date(s: &str, at: usize) -> Result<i32, RawError> {
    let parts: Vec<&str> = s.split('-').collect();
    let bad = || RawError::new(at, format!("invalid date `{s}`; expected 'yyyy-mm-dd'"));
    if parts.len() != 3 {
        return Err(bad());
    }
    let y: i32 = parts[0].parse().map_err(|_| bad())?;
    let m: u32 = parts[1].parse().map_err(|_| bad())?;
    let d: u32 = parts[2].parse().map_err(|_| bad())?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    Ok(dates::to_days(y, m, d))
}
