//! Binder/planner: lowers a parsed [`Statement`] onto the tileable graph.
//!
//! The lowering is deliberately *structural*: a SQL query compiles to the
//! same operator sequence a hand-written [`DfHandle`] program would use —
//! Filter/Assign/Rename/Project with [`Expr`] trees (so fused vectorized
//! evaluation and `required_columns` pruning apply unchanged), Merge for
//! joins, GroupbyAgg for aggregates, SortValues/Head for ORDER BY/LIMIT.
//!
//! WHERE predicates follow a *fold-point* rule: the predicate is split into
//! top-level AND conjuncts (original order preserved); after every join in
//! the FROM tree — or at the single FROM item when there are no joins — all
//! conjuncts whose columns have just become resolvable are combined
//! left-to-right with AND into one Filter. The planner itself never moves
//! a predicate below a join: the logical optimizer does that at fetch time
//! ([`crate::optimizer::pushdown`]), for SQL and hand-built programs alike.
//!
//! Scalar subqueries are planned recursively, executed eagerly via
//! [`DfHandle::fetch`], and substituted as literals — the SQL spelling of
//! the "fetch an aggregate, feed it into the next graph" idiom the
//! hand-built TPC-H programs use.

use xorbits_dataframe::expr::{col, lit, BinOp, Expr, Func};
use xorbits_dataframe::join::merge_columns;
use xorbits_dataframe::{AggFunc, AggSpec, JoinType, Scalar};

use super::ast::{AggName, FromNode, FuncName, JoinKind, Select, SelectItem, SqlExpr, Statement};
use super::{Catalog, RawError, SqlError};
use crate::error::{XbError, XbResult};
use crate::session::{DfHandle, Executor, Session};

/// Plans `stmt` against `catalog`, building the graph inside `sess` and
/// returning the lazy handle to the final tileable.
pub(crate) fn plan_statement<E: Executor>(
    sess: &Session<E>,
    catalog: &Catalog,
    text: &str,
    stmt: &Statement,
) -> XbResult<DfHandle<E>> {
    let mut p = Planner {
        sess,
        catalog,
        text,
        ctes: Vec::new(),
    };
    for (name, sel) in &stmt.ctes {
        let rel = p.plan_select(sel)?;
        p.ctes.push((name.clone(), rel));
    }
    Ok(p.plan_select(&stmt.body)?.h)
}

/// A bound column: physical frame name plus the qualifier it resolves under.
#[derive(Clone)]
struct BCol {
    name: String,
    qual: Option<String>,
}

/// A relation under construction: a lazy handle plus its bound schema.
struct Rel<E: Executor> {
    h: DfHandle<E>,
    cols: Vec<BCol>,
}

impl<E: Executor> Clone for Rel<E> {
    fn clone(&self) -> Self {
        Rel {
            h: self.h.clone(),
            cols: self.cols.clone(),
        }
    }
}

/// WHERE conjuncts not yet folded into a Filter.
struct Pending<'q> {
    conj: Vec<&'q SqlExpr>,
    applied: Vec<bool>,
}

struct Planner<'a, E: Executor> {
    sess: &'a Session<E>,
    catalog: &'a Catalog,
    text: &'a str,
    ctes: Vec<(String, Rel<E>)>,
}

impl<'a, E: Executor> Planner<'a, E> {
    fn serr(&self, at: usize, msg: impl Into<String>) -> XbError {
        SqlError::from_raw(RawError::new(at, msg), self.text).into()
    }

    fn err_expr(&self, e: &SqlExpr, msg: impl Into<String>) -> XbError {
        self.serr(expr_at(e), msg)
    }

    // -- name resolution ----------------------------------------------------

    fn try_resolve(&self, rel: &Rel<E>, qual: &Option<String>, name: &str) -> Option<String> {
        let mut found = None;
        let mut count = 0usize;
        for c in &rel.cols {
            if c.name == name && (qual.is_none() || c.qual.as_deref() == qual.as_deref()) {
                count += 1;
                found = Some(c.name.clone());
            }
        }
        if count == 1 {
            found
        } else {
            None
        }
    }

    fn resolve(
        &self,
        rel: &Rel<E>,
        qual: &Option<String>,
        name: &str,
        at: usize,
    ) -> XbResult<String> {
        let matches = rel
            .cols
            .iter()
            .filter(|c| c.name == name && (qual.is_none() || c.qual.as_deref() == qual.as_deref()))
            .count();
        match matches {
            1 => Ok(name.to_string()),
            0 => {
                let shown = match qual {
                    Some(q) => format!("{q}.{name}"),
                    None => name.to_string(),
                };
                Err(self.serr(at, format!("unknown column `{shown}`")))
            }
            _ => Err(self.serr(at, format!("column `{name}` is ambiguous; qualify it"))),
        }
    }

    // -- FROM / WHERE -------------------------------------------------------

    fn plan_select(&mut self, q: &Select) -> XbResult<Rel<E>> {
        let conj: Vec<&SqlExpr> = match &q.where_ {
            Some(w) => split_and(w),
            None => Vec::new(),
        };
        let applied = vec![false; conj.len()];
        let mut pend = Pending { conj, applied };
        let mut rel = self.plan_from(&q.from, &mut pend)?;
        self.apply_pending(&mut rel, &mut pend)?;
        if let Some(i) = pend.applied.iter().position(|a| !a) {
            return Err(self.err_expr(
                pend.conj[i],
                "cannot resolve all columns in this WHERE predicate",
            ));
        }

        let has_aggs = !q.group_by.is_empty()
            || q.having.is_some()
            || q.items
                .iter()
                .any(|it| matches!(it, SelectItem::Expr { expr, .. } if contains_agg(expr)));
        let out = if has_aggs {
            self.lower_agg_select(&mut rel, q)?
        } else {
            self.lower_plain_select(&mut rel, q)?
        };

        // Skip the final projection when it would be the identity — the
        // hand-built programs only call `select` when it changes the frame.
        let frame_names: Vec<&str> = rel.cols.iter().map(|c| c.name.as_str()).collect();
        if frame_names != out.iter().map(String::as_str).collect::<Vec<_>>() {
            rel.h = rel.h.select(out.clone())?;
        }
        rel.cols = out
            .iter()
            .map(|n| BCol {
                name: n.clone(),
                qual: None,
            })
            .collect();

        if !q.order_by.is_empty() {
            for (name, _, at) in &q.order_by {
                if !out.contains(name) {
                    return Err(self.serr(
                        *at,
                        format!("ORDER BY column `{name}` is not in the select list"),
                    ));
                }
            }
            let keys: Vec<(String, bool)> = q
                .order_by
                .iter()
                .map(|(n, asc, _)| (n.clone(), *asc))
                .collect();
            rel.h = rel.h.sort_values(keys)?;
        }
        if let Some(n) = q.limit {
            rel.h = rel.h.head(n)?;
        }
        Ok(rel)
    }

    fn plan_from(&mut self, node: &FromNode, pend: &mut Pending<'_>) -> XbResult<Rel<E>> {
        match node {
            FromNode::Table { name, alias, at } => {
                let qual = alias.clone().unwrap_or_else(|| name.clone());
                if let Some((_, rel)) = self.ctes.iter().find(|(n, _)| n == name) {
                    let mut r = rel.clone();
                    for c in &mut r.cols {
                        c.qual = Some(qual.clone());
                    }
                    return Ok(r);
                }
                let t = self
                    .catalog
                    .get(name)
                    .ok_or_else(|| self.serr(*at, format!("unknown table `{name}`")))?;
                let h = self.sess.read_df(t.source.clone())?;
                Ok(Rel {
                    h,
                    cols: t
                        .columns
                        .iter()
                        .map(|c| BCol {
                            name: c.clone(),
                            qual: Some(qual.clone()),
                        })
                        .collect(),
                })
            }
            FromNode::Derived { query, alias, .. } => {
                let mut r = self.plan_select(query)?;
                if let Some(a) = alias {
                    for c in &mut r.cols {
                        c.qual = Some(a.clone());
                    }
                }
                Ok(r)
            }
            FromNode::Join {
                left,
                right,
                kind,
                on,
                at,
            } => {
                let l = self.plan_from(left, pend)?;
                let r = self.plan_from(right, pend)?;
                let mut rel = self.plan_join(l, r, *kind, on, *at)?;
                // Fold point: every WHERE conjunct that just became
                // resolvable applies here, as one combined Filter.
                self.apply_pending(&mut rel, pend)?;
                Ok(rel)
            }
        }
    }

    fn apply_pending(&mut self, rel: &mut Rel<E>, pend: &mut Pending<'_>) -> XbResult<()> {
        let mut lowered: Vec<Expr> = Vec::new();
        for i in 0..pend.conj.len() {
            if pend.applied[i] || !self.conjunct_resolvable(rel, pend.conj[i]) {
                continue;
            }
            lowered.push(self.lower_expr(rel, pend.conj[i])?);
            pend.applied[i] = true;
        }
        let mut it = lowered.into_iter();
        if let Some(first) = it.next() {
            let combined = it.fold(first, |acc, e| acc.and(e));
            rel.h = rel.h.filter(combined)?;
        }
        Ok(())
    }

    fn conjunct_resolvable(&self, rel: &Rel<E>, e: &SqlExpr) -> bool {
        let mut ok = true;
        visit_cols(e, &mut |qual, name| {
            if self.try_resolve(rel, qual, name).is_none() {
                ok = false;
            }
        });
        ok
    }

    fn plan_join(
        &mut self,
        l: Rel<E>,
        r: Rel<E>,
        kind: JoinKind,
        on: &SqlExpr,
        at: usize,
    ) -> XbResult<Rel<E>> {
        let mut left_on = Vec::new();
        let mut right_on = Vec::new();
        for c in split_and(on) {
            let (lhs, rhs) = match c {
                SqlExpr::Binary {
                    op: BinOp::Eq,
                    lhs,
                    rhs,
                } => (lhs.as_ref(), rhs.as_ref()),
                other => {
                    return Err(self.err_expr(
                        other,
                        "ON condition must be a conjunction of column equalities",
                    ))
                }
            };
            let (aq, an, aat) = as_col(lhs)
                .ok_or_else(|| self.err_expr(lhs, "join keys must be column references"))?;
            let (bq, bn, _) = as_col(rhs)
                .ok_or_else(|| self.err_expr(rhs, "join keys must be column references"))?;
            if let (Some(lk), Some(rk)) =
                (self.try_resolve(&l, aq, an), self.try_resolve(&r, bq, bn))
            {
                left_on.push(lk);
                right_on.push(rk);
            } else if let (Some(lk), Some(rk)) =
                (self.try_resolve(&l, bq, bn), self.try_resolve(&r, aq, an))
            {
                left_on.push(lk);
                right_on.push(rk);
            } else {
                return Err(self.serr(
                    aat,
                    "join key must pair one column from each side of the join",
                ));
            }
        }
        if left_on.is_empty() {
            return Err(self.serr(at, "join requires at least one equi-key"));
        }
        let jt = match kind {
            JoinKind::Inner => JoinType::Inner,
            JoinKind::Left => JoinType::Left,
            JoinKind::Semi => JoinType::Semi,
            JoinKind::Anti => JoinType::Anti,
        };
        let h = l.h.merge(&r.h, left_on.clone(), right_on.clone(), jt)?;
        // Bind the join's output schema with the kernel's own naming rule:
        // a column keeps its qualifier unless the rule suffixed its name.
        let left_names: Vec<&str> = l.cols.iter().map(|c| c.name.as_str()).collect();
        let right_names: Vec<&str> = r.cols.iter().map(|c| c.name.as_str()).collect();
        let cols = merge_columns(
            &left_names,
            &right_names,
            &left_on,
            &right_on,
            jt,
            ("_x", "_y"),
        )
        .into_iter()
        .map(|(from_right, i, name)| {
            let c = if from_right { &r.cols[i] } else { &l.cols[i] };
            if c.name == name {
                c.clone()
            } else {
                BCol {
                    name: name.into_owned(),
                    qual: None,
                }
            }
        })
        .collect();
        Ok(Rel { h, cols })
    }

    // -- SELECT lists -------------------------------------------------------

    /// Lowers an aggregate-free select list: Assign for expression items,
    /// Rename for aliased columns, and returns the output names in order.
    fn lower_plain_select(&mut self, rel: &mut Rel<E>, q: &Select) -> XbResult<Vec<String>> {
        let mut assigns: Vec<(String, Expr)> = Vec::new();
        let mut renames: Vec<(String, String)> = Vec::new();
        let mut out: Vec<String> = Vec::new();
        for item in &q.items {
            match item {
                SelectItem::Star => {
                    out.extend(rel.cols.iter().map(|c| c.name.clone()));
                }
                SelectItem::Expr { expr, alias } => {
                    if let SqlExpr::Col { qual, name, at } = expr {
                        let phys = self.resolve(rel, qual, name, *at)?;
                        match alias {
                            Some(a) if *a != phys => {
                                renames.push((phys, a.clone()));
                                out.push(a.clone());
                            }
                            _ => out.push(phys),
                        }
                    } else {
                        let a = alias.clone().ok_or_else(|| {
                            self.err_expr(expr, "expression select item needs an AS alias")
                        })?;
                        let ex = self.lower_expr(rel, expr)?;
                        assigns.push((a.clone(), ex));
                        out.push(a);
                    }
                }
            }
        }
        if !assigns.is_empty() {
            for (name, _) in &assigns {
                rel.cols.push(BCol {
                    name: name.clone(),
                    qual: None,
                });
            }
            rel.h = rel.h.assign(assigns)?;
        }
        if !renames.is_empty() {
            for (from, to) in &renames {
                for c in &mut rel.cols {
                    if c.name == *from {
                        c.name = to.clone();
                    }
                }
            }
            rel.h = rel.h.rename(renames)?;
        }
        Ok(out)
    }

    /// Lowers a grouped select: pre-Assign for computed keys and aggregate
    /// arguments, one GroupbyAgg, HAVING filter, then post-Assign for items
    /// that combine aggregates arithmetically.
    fn lower_agg_select(&mut self, rel: &mut Rel<E>, q: &Select) -> XbResult<Vec<String>> {
        let mut pre: Vec<(String, Expr)> = Vec::new();
        let mut keys: Vec<String> = Vec::new();

        // Group keys: plain columns, or aliases of agg-free select items
        // (computed keys are pre-assigned under the alias, in GROUP BY order).
        for g in &q.group_by {
            let SqlExpr::Col { qual, name, at } = g else {
                return Err(self.err_expr(g, "GROUP BY must name a column or a select alias"));
            };
            if let Some(phys) = self.try_resolve(rel, qual, name) {
                keys.push(phys);
                continue;
            }
            let item = q.items.iter().find_map(|it| match it {
                SelectItem::Expr {
                    expr,
                    alias: Some(a),
                } if a == name => Some(expr),
                _ => None,
            });
            match item {
                Some(expr) if !contains_agg(expr) => {
                    let ex = self.lower_expr(rel, expr)?;
                    pre.push((name.clone(), ex));
                    keys.push(name.clone());
                }
                _ => return Err(self.serr(*at, format!("unknown GROUP BY column `{name}`"))),
            }
        }

        let mut specs: Vec<AggSpec> = Vec::new();
        let mut post_items: Vec<(String, SqlExpr)> = Vec::new();
        let mut out: Vec<String> = Vec::new();
        let mut sk = 0usize;
        for item in &q.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(XbError::Plan(
                    "SQL error: SELECT * cannot be combined with aggregates".into(),
                ));
            };
            if !contains_agg(expr) {
                if let SqlExpr::Col { qual, name, at } = expr {
                    if let Some(phys) = self.try_resolve(rel, qual, name) {
                        if !keys.contains(&phys) {
                            return Err(self.serr(
                                *at,
                                format!(
                                    "column `{name}` must appear in GROUP BY or in an aggregate"
                                ),
                            ));
                        }
                        out.push(alias.clone().unwrap_or(phys));
                        continue;
                    }
                }
                // A computed key defined by this item's alias (pre-assigned).
                match alias {
                    Some(a) if keys.contains(a) => out.push(a.clone()),
                    _ => {
                        return Err(self.err_expr(
                            expr,
                            "select item must be a group key or contain an aggregate",
                        ))
                    }
                }
            } else if let SqlExpr::Agg {
                func,
                arg,
                distinct,
                at,
            } = expr
            {
                let a = alias
                    .clone()
                    .ok_or_else(|| self.serr(*at, "aggregate select item needs an AS alias"))?;
                let argcol = self.agg_arg(rel, arg, &mut pre)?;
                specs.push(AggSpec::new(argcol, agg_func(*func, *distinct), a.clone()));
                out.push(a);
            } else {
                let a = alias
                    .clone()
                    .ok_or_else(|| self.err_expr(expr, "aggregate expression needs an AS alias"))?;
                let rewritten = self.rewrite_aggs(rel, expr, &mut pre, &mut specs, &mut sk)?;
                post_items.push((a.clone(), rewritten));
                out.push(a);
            }
        }

        if !pre.is_empty() {
            for (name, _) in &pre {
                rel.cols.push(BCol {
                    name: name.clone(),
                    qual: None,
                });
            }
            rel.h = rel.h.assign(pre)?;
        }
        rel.h = rel.h.groupby_agg(keys.clone(), specs.clone())?;
        rel.cols = keys
            .iter()
            .map(|k| BCol {
                name: k.clone(),
                qual: None,
            })
            .chain(specs.iter().map(|s| BCol {
                name: s.output.clone(),
                qual: None,
            }))
            .collect();

        if let Some(h) = &q.having {
            if contains_agg(h) {
                return Err(self.err_expr(
                    h,
                    "HAVING must reference aliased aggregates from the SELECT list",
                ));
            }
            let ex = self.lower_expr(rel, h)?;
            rel.h = rel.h.filter(ex)?;
        }

        if !post_items.is_empty() {
            let mut assigns = Vec::with_capacity(post_items.len());
            for (name, e) in &post_items {
                let ex = self.lower_expr(rel, e)?;
                assigns.push((name.clone(), ex));
            }
            for (name, _) in &assigns {
                rel.cols.push(BCol {
                    name: name.clone(),
                    qual: None,
                });
            }
            rel.h = rel.h.assign(assigns)?;
        }
        Ok(out)
    }

    /// Resolves an aggregate argument to a physical column, pre-assigning a
    /// `__aN` temp for non-column arguments (deduplicated by expression).
    fn agg_arg(
        &mut self,
        rel: &Rel<E>,
        arg: &SqlExpr,
        pre: &mut Vec<(String, Expr)>,
    ) -> XbResult<String> {
        if let SqlExpr::Col { qual, name, at } = arg {
            return self.resolve(rel, qual, name, *at);
        }
        if contains_agg(arg) {
            return Err(self.err_expr(arg, "aggregates cannot be nested"));
        }
        let ex = self.lower_expr(rel, arg)?;
        for (name, existing) in pre.iter() {
            if name.starts_with("__a") && *existing == ex {
                return Ok(name.clone());
            }
        }
        let name = format!(
            "__a{}",
            pre.iter().filter(|(n, _)| n.starts_with("__a")).count()
        );
        pre.push((name.clone(), ex));
        Ok(name)
    }

    /// Replaces every `Agg` node in `expr` with a reference to a hidden
    /// `__sK` aggregate output, appending the matching specs.
    fn rewrite_aggs(
        &mut self,
        rel: &Rel<E>,
        expr: &SqlExpr,
        pre: &mut Vec<(String, Expr)>,
        specs: &mut Vec<AggSpec>,
        sk: &mut usize,
    ) -> XbResult<SqlExpr> {
        Ok(match expr {
            SqlExpr::Agg {
                func,
                arg,
                distinct,
                at,
            } => {
                let argcol = self.agg_arg(rel, arg, pre)?;
                let name = format!("__s{sk}");
                *sk += 1;
                specs.push(AggSpec::new(
                    argcol,
                    agg_func(*func, *distinct),
                    name.clone(),
                ));
                SqlExpr::Col {
                    qual: None,
                    name,
                    at: *at,
                }
            }
            SqlExpr::Binary { op, lhs, rhs } => SqlExpr::Binary {
                op: *op,
                lhs: Box::new(self.rewrite_aggs(rel, lhs, pre, specs, sk)?),
                rhs: Box::new(self.rewrite_aggs(rel, rhs, pre, specs, sk)?),
            },
            SqlExpr::Not(e) => SqlExpr::Not(Box::new(self.rewrite_aggs(rel, e, pre, specs, sk)?)),
            SqlExpr::Neg(e) => SqlExpr::Neg(Box::new(self.rewrite_aggs(rel, e, pre, specs, sk)?)),
            other => other.clone(),
        })
    }

    // -- expressions --------------------------------------------------------

    fn lower_expr(&mut self, rel: &Rel<E>, e: &SqlExpr) -> XbResult<Expr> {
        Ok(match e {
            SqlExpr::Col { qual, name, at } => col(self.resolve(rel, qual, name, *at)?),
            SqlExpr::Lit(v) => lit(scalar_of(v)),
            SqlExpr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(self.lower_expr(rel, lhs)?),
                rhs: Box::new(self.lower_expr(rel, rhs)?),
            },
            SqlExpr::Not(inner) => self.lower_expr(rel, inner)?.not(),
            SqlExpr::Neg(inner) => self.lower_expr(rel, inner)?.neg(),
            SqlExpr::IsNull { expr, negated } => {
                let inner = self.lower_expr(rel, expr)?;
                if *negated {
                    inner.not_null()
                } else {
                    inner.is_null()
                }
            }
            SqlExpr::InList {
                expr,
                values,
                negated,
            } => {
                let inner = self.lower_expr(rel, expr)?;
                let e = Expr::IsIn {
                    expr: Box::new(inner),
                    values: values.iter().map(scalar_of).collect(),
                };
                if *negated {
                    e.not()
                } else {
                    e
                }
            }
            SqlExpr::Like {
                expr,
                pattern,
                negated,
                at,
            } => {
                let inner = self.lower_expr(rel, expr)?;
                let e = self.lower_like(inner, pattern, *at)?;
                if *negated {
                    e.not()
                } else {
                    e
                }
            }
            SqlExpr::Func { name, args, at } => self.lower_func(rel, *name, args, *at)?,
            SqlExpr::Agg { at, .. } => {
                return Err(self.serr(*at, "aggregate is not allowed in this context"))
            }
            SqlExpr::Subquery { query, at } => lit(self.scalar_subquery(query, *at)?),
        })
    }

    /// `%`-wildcards at the pattern ends map onto the vectorized string
    /// predicates; a bare pattern is an equality.
    fn lower_like(&self, inner: Expr, pattern: &str, at: usize) -> XbResult<Expr> {
        let starts = pattern.starts_with('%');
        let ends = pattern.len() >= 2 && pattern.ends_with('%');
        let core = match (starts, ends) {
            (true, true) => &pattern[1..pattern.len() - 1],
            (true, false) => &pattern[1..],
            (false, true) => &pattern[..pattern.len() - 1],
            (false, false) => pattern,
        };
        if core.contains('%') || core.contains('_') {
            return Err(self.serr(
                at,
                "only leading/trailing % wildcards are supported in LIKE",
            ));
        }
        Ok(match (starts, ends) {
            (true, true) => inner.call(Func::Contains(core.to_string())),
            (false, true) => inner.call(Func::StartsWith(core.to_string())),
            (true, false) => inner.call(Func::EndsWith(core.to_string())),
            (false, false) => inner.eq(lit(Scalar::Str(core.to_string()))),
        })
    }

    fn lower_func(
        &mut self,
        rel: &Rel<E>,
        name: FuncName,
        args: &[SqlExpr],
        at: usize,
    ) -> XbResult<Expr> {
        let one = |p: &mut Self, args: &[SqlExpr]| -> XbResult<Expr> {
            match args {
                [a] => p.lower_expr(rel, a),
                _ => Err(p.serr(at, "this function takes exactly one argument")),
            }
        };
        Ok(match name {
            FuncName::Year => one(self, args)?.call(Func::Year),
            FuncName::Month => one(self, args)?.call(Func::Month),
            FuncName::Day => one(self, args)?.call(Func::Day),
            FuncName::Length => one(self, args)?.call(Func::StrLen),
            FuncName::Lower => one(self, args)?.call(Func::Lower),
            FuncName::Upper => one(self, args)?.call(Func::Upper),
            FuncName::Trim => one(self, args)?.call(Func::Trim),
            FuncName::Abs => one(self, args)?.call(Func::Abs),
            FuncName::Substr => match args {
                [a, SqlExpr::Lit(super::ast::Value::Int(s)), SqlExpr::Lit(super::ast::Value::Int(l))]
                    if *s >= 1 && *l >= 0 =>
                {
                    let inner = self.lower_expr(rel, a)?;
                    inner.call(Func::Substr {
                        start: (*s - 1) as usize,
                        len: *l as usize,
                    })
                }
                _ => {
                    return Err(self.serr(
                        at,
                        "SUBSTR takes (string, start >= 1, len >= 0) with literal bounds",
                    ))
                }
            },
            FuncName::Round => match args {
                [a] => self.lower_expr(rel, a)?.call(Func::Round(0)),
                [a, SqlExpr::Lit(super::ast::Value::Int(nd))] if (0..=15).contains(nd) => {
                    self.lower_expr(rel, a)?.call(Func::Round(*nd as u32))
                }
                _ => return Err(self.serr(at, "ROUND takes (number, literal digits 0..=15)")),
            },
        })
    }

    /// Plans and eagerly executes a scalar subquery: one column, at most
    /// one row; zero rows yield NULL.
    fn scalar_subquery(&mut self, query: &Select, at: usize) -> XbResult<Scalar> {
        let rel = self.plan_select(query)?;
        let df = rel.h.fetch()?;
        let fields = df.schema().fields();
        if fields.len() != 1 {
            return Err(self.serr(
                at,
                format!(
                    "scalar subquery must produce exactly one column, got {}",
                    fields.len()
                ),
            ));
        }
        match df.num_rows() {
            0 => Ok(Scalar::Null),
            1 => {
                let name = fields[0].name.clone();
                Ok(df.column(&name).map_err(XbError::from)?.get(0))
            }
            n => Err(self.serr(
                at,
                format!("scalar subquery must produce at most one row, got {n}"),
            )),
        }
    }
}

// -- free helpers -----------------------------------------------------------

fn agg_func(f: AggName, distinct: bool) -> AggFunc {
    match (f, distinct) {
        (AggName::Count, true) => AggFunc::Nunique,
        (AggName::Count, false) => AggFunc::Count,
        (AggName::Sum, _) => AggFunc::Sum,
        (AggName::Avg, _) => AggFunc::Mean,
        (AggName::Min, _) => AggFunc::Min,
        (AggName::Max, _) => AggFunc::Max,
    }
}

fn scalar_of(v: &super::ast::Value) -> Scalar {
    use super::ast::Value;
    match v {
        Value::Int(n) => Scalar::Int(*n),
        Value::Float(x) => Scalar::Float(*x),
        Value::Str(s) => Scalar::Str(s.clone()),
        Value::Date(d) => Scalar::Date(*d),
        Value::Bool(b) => Scalar::Bool(*b),
        Value::Null => Scalar::Null,
    }
}

/// Flattens a top-level AND chain into conjuncts, preserving source order.
fn split_and(e: &SqlExpr) -> Vec<&SqlExpr> {
    match e {
        SqlExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let mut v = split_and(lhs);
            v.extend(split_and(rhs));
            v
        }
        other => vec![other],
    }
}

fn as_col(e: &SqlExpr) -> Option<(&Option<String>, &str, usize)> {
    match e {
        SqlExpr::Col { qual, name, at } => Some((qual, name, *at)),
        _ => None,
    }
}

/// Visits every column reference, not descending into subqueries (their
/// columns resolve in their own scope).
fn visit_cols<'e>(e: &'e SqlExpr, f: &mut impl FnMut(&'e Option<String>, &'e str)) {
    match e {
        SqlExpr::Col { qual, name, .. } => f(qual, name),
        SqlExpr::Lit(_) | SqlExpr::Subquery { .. } => {}
        SqlExpr::Binary { lhs, rhs, .. } => {
            visit_cols(lhs, f);
            visit_cols(rhs, f);
        }
        SqlExpr::Not(x) | SqlExpr::Neg(x) => visit_cols(x, f),
        SqlExpr::IsNull { expr, .. }
        | SqlExpr::InList { expr, .. }
        | SqlExpr::Like { expr, .. }
        | SqlExpr::Agg { arg: expr, .. } => visit_cols(expr, f),
        SqlExpr::Func { args, .. } => {
            for a in args {
                visit_cols(a, f);
            }
        }
    }
}

/// True when the expression contains an aggregate call (outside subqueries).
fn contains_agg(e: &SqlExpr) -> bool {
    match e {
        SqlExpr::Agg { .. } => true,
        SqlExpr::Col { .. } | SqlExpr::Lit(_) | SqlExpr::Subquery { .. } => false,
        SqlExpr::Binary { lhs, rhs, .. } => contains_agg(lhs) || contains_agg(rhs),
        SqlExpr::Not(x) | SqlExpr::Neg(x) => contains_agg(x),
        SqlExpr::IsNull { expr, .. }
        | SqlExpr::InList { expr, .. }
        | SqlExpr::Like { expr, .. } => contains_agg(expr),
        SqlExpr::Func { args, .. } => args.iter().any(contains_agg),
    }
}

/// First source offset found in the expression, for error positioning.
fn expr_at(e: &SqlExpr) -> usize {
    match e {
        SqlExpr::Col { at, .. }
        | SqlExpr::Like { at, .. }
        | SqlExpr::Func { at, .. }
        | SqlExpr::Agg { at, .. }
        | SqlExpr::Subquery { at, .. } => *at,
        SqlExpr::Lit(_) => 0,
        SqlExpr::Binary { lhs, .. } => expr_at(lhs),
        SqlExpr::Not(x) | SqlExpr::Neg(x) => expr_at(x),
        SqlExpr::IsNull { expr, .. } | SqlExpr::InList { expr, .. } => expr_at(expr),
    }
}
