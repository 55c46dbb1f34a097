//! SQL frontend over the tileable graph.
//!
//! A hand-written recursive-descent parser for an analytic SQL subset
//! (SELECT lists with expressions and aliases, FROM with INNER/LEFT/SEMI/
//! ANTI equi-joins, WHERE, GROUP BY with SUM/AVG/MIN/MAX/COUNT and
//! COUNT(DISTINCT), HAVING, ORDER BY, LIMIT, WITH common table
//! expressions, and scalar subqueries) plus a typed binder that lowers
//! statements onto the *existing* tileable-graph builders. Because the
//! lowering reuses the same Filter/Assign/Merge/GroupbyAgg operators and
//! [`Expr`](xorbits_dataframe::expr::Expr) trees a hand-written program
//! would build, fused vectorized evaluation, `required_columns` pruning,
//! tiling, and every executor apply unchanged — and results are
//! bit-identical to the equivalent hand-built plan.
//!
//! [`SqlFrontend`] adds a plan cache keyed on the normalized token text
//! (whitespace/case-insensitive): a hit short-circuits parse + plan.
//! Alias-renamed texts are different keys; their results meet again in
//! the session's result cache, whose key is alias-blind. See `DESIGN.md`
//! §17.

pub mod ast;
mod cache;
pub(crate) mod lexer;
pub(crate) mod parser;
mod plan;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use xorbits_dataframe::DataFrame;

pub use cache::PlanCacheStats;

use crate::error::{XbError, XbResult};
use crate::session::{DfHandle, Executor, Session};
use crate::tileable::DfSource;

/// Internal positioned error carrying only a byte offset; converted to a
/// [`SqlError`] (line/column) at the public boundary.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RawError {
    /// Byte offset into the source text.
    pub at: usize,
    /// Human-readable message.
    pub msg: String,
}

impl RawError {
    pub fn new(at: usize, msg: impl Into<String>) -> Self {
        RawError {
            at,
            msg: msg.into(),
        }
    }
}

/// Translates a byte offset into 1-based (line, column).
pub fn line_col(text: &str, offset: usize) -> (usize, usize) {
    let mut line = 1;
    let mut col = 1;
    for (i, ch) in text.char_indices() {
        if i >= offset {
            break;
        }
        if ch == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// A positioned SQL parse/bind error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub column: usize,
    /// Byte offset into the submitted text.
    pub offset: usize,
    /// What went wrong.
    pub msg: String,
}

impl SqlError {
    pub(crate) fn from_raw(raw: RawError, text: &str) -> Self {
        let (line, column) = line_col(text, raw.at);
        SqlError {
            line,
            column,
            offset: raw.at,
            msg: raw.msg,
        }
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SQL error at line {}, column {}: {}",
            self.line, self.column, self.msg
        )
    }
}

impl From<SqlError> for XbError {
    fn from(e: SqlError) -> Self {
        XbError::Plan(e.to_string())
    }
}

/// Parses `text` into a [`Statement`](ast::Statement) without planning it.
pub fn parse(text: &str) -> Result<ast::Statement, SqlError> {
    lexer::lex(text)
        .and_then(|toks| parser::parse(&toks, text.len()))
        .map_err(|r| SqlError::from_raw(r, text))
}

/// Returns the whitespace/case-normalized token rendering of `text` — the
/// plan-cache key.
pub fn normalize(text: &str) -> Result<String, SqlError> {
    let toks = lexer::lex(text).map_err(|r| SqlError::from_raw(r, text))?;
    Ok(lexer::normalized_text(&toks))
}

/// A table registered in a [`Catalog`]: its source plus sniffed columns.
pub struct Table {
    /// Where the rows come from (shared with every query that scans it).
    pub source: DfSource,
    /// Column names in frame order.
    pub columns: Vec<String>,
}

/// Maps table names to data sources for the binder.
#[derive(Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers `source` under `name` (case-insensitive) with its
    /// [`DfSource::column_names`].
    pub fn add(&mut self, name: impl Into<String>, source: DfSource) -> XbResult<()> {
        let columns = source.column_names()?;
        self.tables
            .insert(name.into().to_ascii_lowercase(), Table { source, columns });
        Ok(())
    }

    /// Looks up a table by (lowercase) name.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }
}

/// One-shot execution: parse, plan, and fetch `text` without caching.
pub fn run_sql<E: Executor>(
    session: &Session<E>,
    catalog: &Catalog,
    text: &str,
) -> XbResult<DataFrame> {
    plan_sql(session, catalog, text)?.fetch()
}

/// Parses and plans `text`, returning the lazy handle (no execution).
pub fn plan_sql<E: Executor>(
    session: &Session<E>,
    catalog: &Catalog,
    text: &str,
) -> XbResult<DfHandle<E>> {
    let stmt = parse(text)?;
    plan::plan_statement(session, catalog, text, &stmt)
}

/// A session-scoped SQL entry point with a plan cache.
///
/// `plan` (and `query`) lex the text once: its normalized rendering is the
/// cache key, and a hit returns the cached handle without parsing. A miss
/// parses the same tokens and lowers them onto the tileable graph. Cached
/// plans are lazy handles into this frontend's [`Session`], so re-fetching
/// them flows through the session's result cache (serving-layer lineage
/// cache) when one is set — which is also where an alias-renamed text,
/// a plan-cache miss, finds its result.
pub struct SqlFrontend<E: Executor> {
    session: Session<E>,
    catalog: Catalog,
    state: Mutex<cache::CacheState<E>>,
}

impl<E: Executor> SqlFrontend<E> {
    /// Wraps a session and catalog.
    pub fn new(session: Session<E>, catalog: Catalog) -> Self {
        SqlFrontend {
            session,
            catalog,
            state: Mutex::new(cache::CacheState::default()),
        }
    }

    /// The underlying session.
    pub fn session(&self) -> &Session<E> {
        &self.session
    }

    /// The catalog queries resolve against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Parses/plans `text` through the cache, returning the lazy handle.
    pub fn plan(&self, text: &str) -> XbResult<DfHandle<E>> {
        let sql_err = |r| XbError::from(SqlError::from_raw(r, text));
        let toks = lexer::lex(text).map_err(sql_err)?;
        let norm = lexer::normalized_text(&toks);
        if let Some(h) = self
            .state
            .lock()
            .expect("plan cache poisoned")
            .lookup(&norm)
        {
            return Ok(h);
        }
        let stmt = parser::parse(&toks, text.len()).map_err(sql_err)?;
        let handle = plan::plan_statement(&self.session, &self.catalog, text, &stmt)?;
        let mut st = self.state.lock().expect("plan cache poisoned");
        st.insert(norm, handle.clone());
        Ok(handle)
    }

    /// Plans and executes `text`, returning the result frame.
    pub fn query(&self, text: &str) -> XbResult<DataFrame> {
        self.plan(text)?.fetch()
    }

    /// Current plan-cache counters.
    pub fn cache_stats(&self) -> PlanCacheStats {
        self.state.lock().expect("plan cache poisoned").stats
    }
}
