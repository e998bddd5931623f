//! Recursive-descent SQL parser.
//!
//! The parser is intentionally reusable as a *component*: the `sqloop`
//! middleware drives it to parse the pieces (`R0`, `Ri`, `Qf`, termination
//! expressions) of its extended CTE grammar. For that reason sub-parses stop
//! gracefully at the first token they do not understand, leaving the cursor
//! in place; [`Parser::expect_eof`] enforces full consumption when a whole
//! statement is required.

use crate::ast::*;
use crate::error::{DbError, DbResult};
use crate::lexer::{tokenize, Sym, Token};
use crate::types::DataType;
use crate::value::Value;
use std::borrow::Cow;

/// Parses a single SQL statement (a trailing `;` is allowed).
///
/// # Errors
/// Returns [`DbError::Parse`] when the text is not a single valid statement.
///
/// # Examples
/// ```
/// let stmt = sqldb::parser::parse_statement("SELECT 1 + 1").unwrap();
/// assert!(matches!(stmt, sqldb::ast::Statement::Select(_)));
/// ```
pub fn parse_statement(sql: &str) -> DbResult<Statement> {
    let mut p = Parser::from_sql(sql)?;
    let stmt = p.parse_statement()?;
    p.skip_semicolons();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parses a `;`-separated script into statements (empty statements skipped).
///
/// # Errors
/// Returns [`DbError::Parse`] on the first malformed statement.
pub fn parse_script(sql: &str) -> DbResult<Vec<Statement>> {
    let mut p = Parser::from_sql(sql)?;
    let mut out = Vec::new();
    loop {
        p.skip_semicolons();
        if p.is_eof() {
            return Ok(out);
        }
        out.push(p.parse_statement()?);
    }
}

/// Parses a full query (`SELECT …` / `VALUES …` with optional set operators).
///
/// # Errors
/// Returns [`DbError::Parse`] when the text is not a valid query.
pub fn parse_query(sql: &str) -> DbResult<SelectStmt> {
    let mut p = Parser::from_sql(sql)?;
    let q = p.parse_query()?;
    p.skip_semicolons();
    p.expect_eof()?;
    Ok(q)
}

/// Parses a standalone scalar expression.
///
/// # Errors
/// Returns [`DbError::Parse`] when the text is not a valid expression.
pub fn parse_expression(sql: &str) -> DbResult<Expr> {
    let mut p = Parser::from_sql(sql)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Token-stream parser with an explicit cursor.
#[derive(Debug)]
pub struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// `?` placeholders seen so far; assigns each its 0-based index.
    params: usize,
}

impl<'a> Parser<'a> {
    /// Tokenizes `sql` and positions the cursor at the start.
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] when tokenization fails.
    pub fn from_sql(sql: &'a str) -> DbResult<Parser<'a>> {
        Ok(Parser {
            tokens: tokenize(sql)?,
            pos: 0,
            params: 0,
        })
    }

    /// True when every token has been consumed.
    pub fn is_eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Fails unless the whole input was consumed.
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] naming the dangling token.
    pub fn expect_eof(&self) -> DbResult<()> {
        if self.is_eof() {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "unexpected trailing input: {:?}",
                self.tokens[self.pos]
            )))
        }
    }

    /// Consumes any number of `;` tokens.
    pub fn skip_semicolons(&mut self) {
        while self.eat_sym(Sym::Semicolon) {}
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&Token<'a>> {
        self.tokens.get(self.pos + off)
    }

    /// Moves the next token out of the stream: the cursor never goes
    /// back, so the slot it leaves behind is never read again.
    fn next_token(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(t, Token::Symbol(Sym::Semicolon)))
    }

    /// Consumes the next token if it is the given keyword.
    pub fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// True when the next token is the given keyword (not consumed).
    pub fn peek_keyword(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_keyword(kw)).unwrap_or(false)
    }

    /// Consumes the next token, failing unless it is the given keyword.
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] on mismatch.
    pub fn expect_keyword(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {}, found {:?}",
                kw.to_uppercase(),
                self.peek()
            )))
        }
    }

    fn eat_sym(&mut self, sym: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_sym(&self, sym: Sym) -> bool {
        matches!(self.peek(), Some(Token::Symbol(s)) if *s == sym)
    }

    fn expect_sym(&mut self, sym: Sym) -> DbResult<()> {
        if self.eat_sym(sym) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {sym:?}, found {:?}",
                self.peek()
            )))
        }
    }

    /// Consumes an identifier (quoted or not).
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] when the next token is not an identifier.
    pub fn expect_ident(&mut self) -> DbResult<String> {
        match self.next_token() {
            Some(Token::Ident(s)) | Some(Token::QuotedIdent(s)) => Ok(s.into_owned()),
            other => Err(DbError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Token helpers for embedding grammars (used by the SQLoop middleware)
    // ------------------------------------------------------------------

    /// Consumes a `,` if present.
    pub fn eat_symbol_comma(&mut self) -> bool {
        self.eat_sym(Sym::Comma)
    }

    /// Consumes a `(` if present.
    pub fn eat_symbol_lparen(&mut self) -> bool {
        self.eat_sym(Sym::LParen)
    }

    /// Consumes a `)` if present.
    pub fn eat_symbol_rparen(&mut self) -> bool {
        self.eat_sym(Sym::RParen)
    }

    /// Consumes a `<` if present.
    pub fn eat_symbol_lt(&mut self) -> bool {
        self.eat_sym(Sym::Lt)
    }

    /// Consumes a `=` if present.
    pub fn eat_symbol_eq(&mut self) -> bool {
        self.eat_sym(Sym::Eq)
    }

    /// Consumes a `>` if present.
    pub fn eat_symbol_gt(&mut self) -> bool {
        self.eat_sym(Sym::Gt)
    }

    /// True when the next tokens are `(` followed by an identifier that is
    /// not `SELECT`/`VALUES` — i.e. a column list, not a subquery. Consumes
    /// the `(` when it returns true.
    pub fn peek_lparen_ident(&mut self) -> bool {
        if !self.peek_sym(Sym::LParen) {
            return false;
        }
        match self.peek_at(1) {
            Some(t) if t.ident_text().is_some() => {
                if t.is_keyword("select") || t.is_keyword("values") {
                    false
                } else {
                    self.pos += 1;
                    true
                }
            }
            _ => false,
        }
    }

    /// Consumes a non-negative integer literal if present.
    pub fn eat_integer_token(&mut self) -> Option<u64> {
        match self.peek() {
            Some(Token::Int(n)) if *n >= 0 => {
                let n = *n as u64;
                self.pos += 1;
                Some(n)
            }
            _ => None,
        }
    }

    /// Consumes a literal value (number, string, boolean, NULL, Infinity)
    /// with optional leading minus, if present.
    pub fn eat_literal_token(&mut self) -> Option<Value> {
        let neg = matches!(self.peek(), Some(Token::Symbol(Sym::Minus)));
        let off = usize::from(neg);
        let v = match self.peek_at(off) {
            Some(Token::Int(n)) => Value::Int(*n),
            Some(Token::Float(f)) => Value::Float(*f),
            Some(Token::Str(s)) if !neg => Value::Text(s.to_string()),
            Some(Token::Ident(w)) if !neg => match w.as_ref() {
                "null" => Value::Null,
                "true" => Value::Bool(true),
                "false" => Value::Bool(false),
                "infinity" => Value::Float(f64::INFINITY),
                _ => return None,
            },
            Some(Token::Ident(w)) if neg && w == "infinity" => Value::Float(f64::INFINITY),
            _ => return None,
        };
        self.pos += off + 1;
        if neg {
            Some(v.neg().expect("numeric literal"))
        } else {
            Some(v)
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Parses one statement, leaving the cursor after it.
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] on malformed input.
    pub fn parse_statement(&mut self) -> DbResult<Statement> {
        if self.eat_keyword("explain") {
            let analyze = self.eat_keyword("analyze");
            let inner = self.parse_statement()?;
            return Ok(Statement::Explain {
                analyze,
                stmt: Box::new(inner),
            });
        }
        if self.peek_keyword("create") {
            return self.parse_create();
        }
        if self.peek_keyword("drop") {
            return self.parse_drop();
        }
        if self.eat_keyword("truncate") {
            self.eat_keyword("table");
            let name = self.expect_ident()?;
            return Ok(Statement::Truncate { name });
        }
        if self.eat_keyword("insert") {
            return self.parse_insert();
        }
        if self.eat_keyword("update") {
            return self.parse_update();
        }
        if self.eat_keyword("delete") {
            self.expect_keyword("from")?;
            let table = self.expect_ident()?;
            let selection = if self.eat_keyword("where") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            return Ok(Statement::Delete { table, selection });
        }
        if self.eat_keyword("begin") {
            self.eat_keyword("transaction");
            self.eat_keyword("work");
            return Ok(Statement::Begin);
        }
        if self.eat_keyword("start") {
            self.expect_keyword("transaction")?;
            return Ok(Statement::Begin);
        }
        if self.eat_keyword("commit") {
            return Ok(Statement::Commit);
        }
        if self.eat_keyword("rollback") {
            return Ok(Statement::Rollback);
        }
        if self.peek_keyword("select") || self.peek_keyword("values") || self.peek_sym(Sym::LParen)
        {
            return Ok(Statement::Select(self.parse_query()?));
        }
        Err(DbError::Parse(format!(
            "unrecognized statement start: {:?}",
            self.peek()
        )))
    }

    fn parse_create(&mut self) -> DbResult<Statement> {
        self.expect_keyword("create")?;
        let unique = self.eat_keyword("unique");
        if self.eat_keyword("index") {
            let if_not_exists = self.eat_if_not_exists();
            let name = self.expect_ident()?;
            self.expect_keyword("on")?;
            let table = self.expect_ident()?;
            self.expect_sym(Sym::LParen)?;
            let column = self.expect_ident()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Statement::CreateIndex(CreateIndex {
                name,
                table,
                column,
                unique,
                if_not_exists,
            }));
        }
        if unique {
            return Err(DbError::Parse("UNIQUE only valid for CREATE INDEX".into()));
        }
        let or_replace = if self.eat_keyword("or") {
            self.expect_keyword("replace")?;
            true
        } else {
            false
        };
        if self.eat_keyword("view") {
            let name = self.expect_ident()?;
            self.expect_keyword("as")?;
            let query = Box::new(self.parse_query()?);
            return Ok(Statement::CreateView(CreateView {
                name,
                query,
                or_replace,
            }));
        }
        if or_replace {
            return Err(DbError::Parse(
                "OR REPLACE only valid for CREATE VIEW".into(),
            ));
        }
        let unlogged = self.eat_keyword("unlogged");
        self.eat_keyword("temporary");
        self.eat_keyword("temp");
        self.expect_keyword("table")?;
        let if_not_exists = self.eat_if_not_exists();
        let name = self.expect_ident()?;
        if self.eat_keyword("as") {
            let q = Box::new(self.parse_query()?);
            return Ok(Statement::CreateTable(CreateTable {
                name,
                columns: Vec::new(),
                if_not_exists,
                as_select: Some(q),
                unlogged,
            }));
        }
        self.expect_sym(Sym::LParen)?;
        let mut columns: Vec<ColumnDef> = Vec::new();
        let mut table_pk: Option<String> = None;
        loop {
            if self.eat_keyword("primary") {
                self.expect_keyword("key")?;
                self.expect_sym(Sym::LParen)?;
                table_pk = Some(self.expect_ident()?);
                self.expect_sym(Sym::RParen)?;
            } else {
                let col_name = self.expect_ident()?;
                let data_type = self.parse_data_type()?;
                let mut primary_key = false;
                loop {
                    if self.eat_keyword("primary") {
                        self.expect_keyword("key")?;
                        primary_key = true;
                    } else if self.eat_keyword("not") {
                        self.expect_keyword("null")?;
                    } else if self.eat_keyword("null") {
                        // nullable (default)
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef {
                    name: col_name,
                    data_type,
                    primary_key,
                });
            }
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        self.expect_sym(Sym::RParen)?;
        // MySQL table options: ENGINE = MyISAM etc. — accepted and ignored.
        while self.peek_keyword("engine") || self.peek_keyword("charset") {
            self.pos += 1;
            self.eat_sym(Sym::Eq);
            let _ = self.expect_ident()?;
        }
        if let Some(pk) = table_pk {
            for c in &mut columns {
                if c.name == pk {
                    c.primary_key = true;
                }
            }
        }
        Ok(Statement::CreateTable(CreateTable {
            name,
            columns,
            if_not_exists,
            as_select: None,
            unlogged,
        }))
    }

    fn eat_if_not_exists(&mut self) -> bool {
        if self.peek_keyword("if") {
            self.pos += 1;
            let _ = self.eat_keyword("not");
            let _ = self.eat_keyword("exists");
            true
        } else {
            false
        }
    }

    fn parse_data_type(&mut self) -> DbResult<DataType> {
        let name = self.expect_ident()?;
        // `DOUBLE PRECISION`
        if name == "double" {
            self.eat_keyword("precision");
        }
        let dt = DataType::parse(&name)
            .ok_or_else(|| DbError::Parse(format!("unknown type '{name}'")))?;
        // length arguments: VARCHAR(255), NUMERIC(10, 2) — parsed, ignored
        if self.eat_sym(Sym::LParen) {
            while !self.eat_sym(Sym::RParen) {
                if self.next_token().is_none() {
                    return Err(DbError::Parse("unterminated type arguments".into()));
                }
            }
        }
        Ok(dt)
    }

    fn parse_drop(&mut self) -> DbResult<Statement> {
        self.expect_keyword("drop")?;
        let kind = self.expect_ident()?;
        let if_exists = if self.eat_keyword("if") {
            self.expect_keyword("exists")?;
            true
        } else {
            false
        };
        let name = self.expect_ident()?;
        match kind.as_str() {
            "table" => Ok(Statement::DropTable { name, if_exists }),
            "view" => Ok(Statement::DropView { name, if_exists }),
            "index" => Ok(Statement::DropIndex { name, if_exists }),
            other => Err(DbError::Parse(format!("cannot DROP {other}"))),
        }
    }

    fn parse_insert(&mut self) -> DbResult<Statement> {
        self.expect_keyword("into")?;
        let table = self.expect_ident()?;
        let columns = if self.peek_sym(Sym::LParen)
            && !matches!(self.peek_at(1), Some(t) if t.is_keyword("select") || t.is_keyword("values"))
        {
            self.expect_sym(Sym::LParen)?;
            let mut cols = vec![self.expect_ident()?];
            while self.eat_sym(Sym::Comma) {
                cols.push(self.expect_ident()?);
            }
            self.expect_sym(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        let source = if self.peek_keyword("values") {
            self.pos += 1;
            InsertSource::Values(self.parse_values_rows()?)
        } else {
            InsertSource::Select(Box::new(self.parse_query()?))
        };
        Ok(Statement::Insert(Insert {
            table,
            columns,
            source,
        }))
    }

    fn parse_values_rows(&mut self) -> DbResult<Vec<Vec<Expr>>> {
        let mut rows = Vec::new();
        loop {
            self.expect_sym(Sym::LParen)?;
            let mut row = vec![self.parse_expr()?];
            while self.eat_sym(Sym::Comma) {
                row.push(self.parse_expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            rows.push(row);
            if !self.eat_sym(Sym::Comma) {
                return Ok(rows);
            }
        }
    }

    fn parse_update(&mut self) -> DbResult<Statement> {
        let table = self.expect_ident()?;
        let alias = if self.eat_keyword("as")
            || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved_after_table(s))
        {
            Some(self.expect_ident()?)
        } else {
            None
        };
        // MySQL form: UPDATE t [alias] JOIN f ON cond SET ...
        let mut from = Vec::new();
        let mut join_on = None;
        if self.eat_keyword("join") || {
            if self.peek_keyword("inner")
                && self
                    .peek_at(1)
                    .map(|t| t.is_keyword("join"))
                    .unwrap_or(false)
            {
                self.pos += 2;
                true
            } else {
                false
            }
        } {
            let factor = self.parse_table_factor()?;
            self.expect_keyword("on")?;
            join_on = Some(self.parse_expr()?);
            from.push(TableRef {
                base: factor,
                joins: Vec::new(),
            });
        }
        self.expect_keyword("set")?;
        let mut assignments = Vec::new();
        loop {
            // allow optional target qualifier: SET t.col = …
            let first = self.expect_ident()?;
            let col = if self.eat_sym(Sym::Dot) {
                self.expect_ident()?
            } else {
                first
            };
            self.expect_sym(Sym::Eq)?;
            let e = self.parse_expr()?;
            assignments.push((col, e));
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        // PostgreSQL form: ... FROM table_refs
        if self.eat_keyword("from") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            alias,
            assignments,
            from,
            join_on,
            selection,
        }))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Parses a query, stopping gracefully at the first token that cannot
    /// continue it (so it can be embedded in larger grammars).
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] on malformed input.
    pub fn parse_query(&mut self) -> DbResult<SelectStmt> {
        let mut body = self.parse_set_term()?;
        loop {
            if self.peek_keyword("union") {
                self.pos += 1;
                let op = if self.eat_keyword("all") {
                    SetOperator::UnionAll
                } else {
                    SetOperator::Union
                };
                let right = self.parse_set_term()?;
                body = SetExpr::SetOp {
                    op,
                    left: Box::new(body),
                    right: Box::new(right),
                };
            } else {
                break;
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("order") {
            self.expect_keyword("by")?;
            loop {
                let expr = self.parse_expr()?;
                let asc = if self.eat_keyword("desc") {
                    false
                } else {
                    self.eat_keyword("asc");
                    true
                };
                order_by.push(OrderByExpr { expr, asc });
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("limit") {
            match self.next_token() {
                Some(Token::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(DbError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            body,
            order_by,
            limit,
        })
    }

    fn parse_set_term(&mut self) -> DbResult<SetExpr> {
        if self.eat_keyword("values") {
            return Ok(SetExpr::Values(self.parse_values_rows()?));
        }
        if self.peek_sym(Sym::LParen) {
            // parenthesized query as a set term
            self.expect_sym(Sym::LParen)?;
            let q = self.parse_query()?;
            self.expect_sym(Sym::RParen)?;
            // flatten: a parenthesized query without order/limit is just its body
            if q.order_by.is_empty() && q.limit.is_none() {
                return Ok(q.body);
            }
            // keep ordering/limit by wrapping as derived select
            return Ok(SetExpr::Select(Box::new(Select {
                distinct: false,
                projections: vec![SelectItem::Wildcard],
                from: vec![TableRef {
                    base: TableFactor::Derived {
                        subquery: Box::new(q),
                        alias: "__sub".into(),
                    },
                    joins: Vec::new(),
                }],
                selection: None,
                group_by: Vec::new(),
                having: None,
            })));
        }
        self.expect_keyword("select")?;
        let distinct = self.eat_keyword("distinct");
        self.eat_keyword("all");
        let mut projections = Vec::new();
        loop {
            projections.push(self.parse_select_item()?);
            if !self.eat_sym(Sym::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_keyword("from") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_keyword("where") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("group") {
            self.expect_keyword("by")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_sym(Sym::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("having") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(SetExpr::Select(Box::new(Select {
            distinct,
            projections,
            from,
            selection,
            group_by,
            having,
        })))
    }

    fn parse_select_item(&mut self) -> DbResult<SelectItem> {
        if self.eat_sym(Sym::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.*
        if let (
            Some(Token::Ident(_)),
            Some(Token::Symbol(Sym::Dot)),
            Some(Token::Symbol(Sym::Star)),
        ) = (self.peek(), self.peek_at(1), self.peek_at(2))
        {
            let t = self.expect_ident()?;
            self.pos += 2;
            return Ok(SelectItem::QualifiedWildcard(t));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_keyword("as")
            || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved_projection_follower(s))
        {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    /// Parses one `FROM` item with its chain of joins.
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] on malformed input.
    pub fn parse_table_ref(&mut self) -> DbResult<TableRef> {
        let base = self.parse_table_factor()?;
        let mut joins = Vec::new();
        loop {
            let join_type = if self.peek_keyword("join") || self.peek_keyword("inner") {
                self.eat_keyword("inner");
                self.expect_keyword("join")?;
                JoinType::Inner
            } else if self.peek_keyword("left") {
                self.pos += 1;
                self.eat_keyword("outer");
                self.expect_keyword("join")?;
                JoinType::Left
            } else if self.peek_keyword("cross") {
                self.pos += 1;
                self.expect_keyword("join")?;
                JoinType::Cross
            } else {
                break;
            };
            let factor = self.parse_table_factor()?;
            let on = if join_type != JoinType::Cross {
                self.expect_keyword("on")?;
                Some(self.parse_expr()?)
            } else {
                None
            };
            joins.push(Join {
                join_type,
                factor,
                on,
            });
        }
        Ok(TableRef { base, joins })
    }

    fn parse_table_factor(&mut self) -> DbResult<TableFactor> {
        if self.eat_sym(Sym::LParen) {
            let subquery = Box::new(self.parse_query()?);
            self.expect_sym(Sym::RParen)?;
            self.eat_keyword("as");
            let alias = self.expect_ident()?;
            return Ok(TableFactor::Derived { subquery, alias });
        }
        let name = self.expect_ident()?;
        let alias = if self.eat_keyword("as")
            || matches!(self.peek(), Some(Token::Ident(s)) if !is_reserved_after_table(s))
        {
            Some(self.expect_ident()?)
        } else {
            None
        };
        Ok(TableFactor::Table { name, alias })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    /// Parses a scalar expression.
    ///
    /// # Errors
    /// Returns [`DbError::Parse`] on malformed input.
    pub fn parse_expr(&mut self) -> DbResult<Expr> {
        self.parse_above(0)
    }

    /// An expression whose operators all bind tighter than `min`
    /// (precedence climbing): `OR` 1, `AND` 2, prefix `NOT` 3, one
    /// comparison 4 (`=` `<>` `<` `<=` `>` `>=`, `IS [NOT] NULL`,
    /// `[NOT] IN`, `[NOT] BETWEEN`), `+ - ||` 5, `* / %` 6, and prefix
    /// `-` / `+`. After an operator only one binding no tighter follows,
    /// and after a comparison or a `NOT` only `AND` and `OR`.
    fn parse_above(&mut self, min: u8) -> DbResult<Expr> {
        let (mut left, mut limit) = if min < 3 && self.eat_keyword("not") {
            let inner = Box::new(self.parse_above(2)?);
            (
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: inner,
                },
                2,
            )
        } else {
            (self.parse_unary()?, 6)
        };
        while let Some((power, op)) = self.infix() {
            if power <= min || power > limit {
                break;
            }
            left = match op {
                Some(op) => {
                    self.pos += 1;
                    let right = self.parse_above(power)?;
                    left.binary(op, right)
                }
                None => self.parse_predicate(left)?,
            };
            limit = if power == 4 { 3 } else { power };
        }
        Ok(left)
    }

    /// The binding power of the operator at the cursor, and its
    /// [`BinaryOp`] unless it is one of the comparison forms
    /// [`Self::parse_predicate`] reads.
    fn infix(&self) -> Option<(u8, Option<BinaryOp>)> {
        let binary = |power, op| Some((power, Some(op)));
        match self.peek()? {
            Token::Symbol(sym) => match sym {
                Sym::Star => binary(6, BinaryOp::Mul),
                Sym::Slash => binary(6, BinaryOp::Div),
                Sym::Percent => binary(6, BinaryOp::Mod),
                Sym::Plus => binary(5, BinaryOp::Add),
                Sym::Minus => binary(5, BinaryOp::Sub),
                Sym::Concat => binary(5, BinaryOp::Concat),
                Sym::Eq => binary(4, BinaryOp::Eq),
                Sym::NotEq => binary(4, BinaryOp::NotEq),
                Sym::Lt => binary(4, BinaryOp::Lt),
                Sym::LtEq => binary(4, BinaryOp::LtEq),
                Sym::Gt => binary(4, BinaryOp::Gt),
                Sym::GtEq => binary(4, BinaryOp::GtEq),
                _ => None,
            },
            Token::Ident(word) => match word.as_ref() {
                "or" => binary(1, BinaryOp::Or),
                "and" => binary(2, BinaryOp::And),
                "is" | "in" | "between" => Some((4, None)),
                "not" => matches!(self.peek_at(1), Some(t) if t.is_keyword("in") || t.is_keyword("between"))
                    .then_some((4, None)),
                _ => None,
            },
            _ => None,
        }
    }

    /// `IS [NOT] NULL`, `[NOT] IN (…)` or `[NOT] BETWEEN … AND …` after
    /// `left`.
    fn parse_predicate(&mut self, left: Expr) -> DbResult<Expr> {
        if self.eat_keyword("is") {
            let negated = self.eat_keyword("not");
            self.expect_keyword("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = self.eat_keyword("not");
        if self.eat_keyword("in") {
            self.expect_sym(Sym::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat_sym(Sym::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        self.expect_keyword("between")?;
        let low = self.parse_above(4)?;
        self.expect_keyword("and")?;
        let high = self.parse_above(4)?;
        Ok(Expr::Between {
            expr: Box::new(left),
            low: Box::new(low),
            high: Box::new(high),
            negated,
        })
    }

    fn parse_unary(&mut self) -> DbResult<Expr> {
        if self.eat_sym(Sym::Minus) {
            let inner = self.parse_unary()?;
            // fold numeric literals so `-5` parses as a literal, keeping
            // rendered SQL round-trippable
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) if i != i64::MIN => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat_sym(Sym::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> DbResult<Expr> {
        match self.next_token() {
            Some(Token::Int(v)) => Ok(Expr::Literal(Value::Int(v))),
            Some(Token::Float(v)) => Ok(Expr::Literal(Value::Float(v))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s.into_owned()))),
            Some(Token::Symbol(Sym::LParen)) => {
                let e = self.parse_expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Some(Token::Symbol(Sym::Question)) => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Param(idx))
            }
            Some(Token::Ident(word)) => self.parse_ident_expr(word),
            Some(Token::QuotedIdent(word)) => self.finish_column_ref(word.into_owned()),
            other => Err(DbError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    /// An expression that starts with the (consumed) unquoted word `word`.
    fn parse_ident_expr(&mut self, word: Cow<'a, str>) -> DbResult<Expr> {
        // keyword literals
        match word.as_ref() {
            "null" => return Ok(Expr::Literal(Value::Null)),
            "true" => return Ok(Expr::Literal(Value::Bool(true))),
            "false" => return Ok(Expr::Literal(Value::Bool(false))),
            "infinity" => return Ok(Expr::Literal(Value::Float(f64::INFINITY))),
            "case" => return self.parse_case(),
            "cast" => {
                self.expect_sym(Sym::LParen)?;
                let e = self.parse_expr()?;
                self.expect_keyword("as")?;
                let dt = self.parse_data_type()?;
                self.expect_sym(Sym::RParen)?;
                return Ok(Expr::Cast {
                    expr: Box::new(e),
                    data_type: dt,
                });
            }
            _ => {}
        }
        // function call?
        if self.eat_sym(Sym::LParen) {
            let mut args = Vec::new();
            // COUNT(*)
            if self.eat_sym(Sym::Star) {
                args.push(FunctionArg::Wildcard);
            } else if !self.peek_sym(Sym::RParen) {
                self.eat_keyword("distinct"); // accepted, treated as plain
                loop {
                    args.push(FunctionArg::Expr(self.parse_expr()?));
                    if !self.eat_sym(Sym::Comma) {
                        break;
                    }
                }
            }
            self.expect_sym(Sym::RParen)?;
            return Ok(Expr::Function {
                name: word.into_owned(),
                args,
            });
        }
        self.finish_column_ref(word.into_owned())
    }

    fn finish_column_ref(&mut self, first: String) -> DbResult<Expr> {
        if self.eat_sym(Sym::Dot) {
            let col = self.expect_ident()?;
            Ok(Expr::Column {
                table: Some(first),
                name: col,
            })
        } else {
            Ok(Expr::Column {
                table: None,
                name: first,
            })
        }
    }

    fn parse_case(&mut self) -> DbResult<Expr> {
        let mut branches = Vec::new();
        while self.eat_keyword("when") {
            let cond = self.parse_expr()?;
            self.expect_keyword("then")?;
            let result = self.parse_expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(DbError::Parse("CASE requires at least one WHEN".into()));
        }
        let else_result = if self.eat_keyword("else") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_keyword("end")?;
        Ok(Expr::Case {
            branches,
            else_result,
        })
    }
}

/// Keywords that may directly follow a table name and therefore must not be
/// mistaken for an implicit alias.
fn is_reserved_after_table(word: &str) -> bool {
    matches!(
        word,
        "join"
            | "inner"
            | "left"
            | "right"
            | "cross"
            | "outer"
            | "on"
            | "where"
            | "group"
            | "having"
            | "order"
            | "limit"
            | "union"
            | "set"
            | "as"
            | "using"
            | "from"
            | "iterate"
            | "until"
    )
}

/// Keywords that may directly follow a projection and therefore must not be
/// mistaken for an implicit alias.
fn is_reserved_projection_follower(word: &str) -> bool {
    matches!(
        word,
        "from" | "where" | "group" | "having" | "order" | "limit" | "union" | "iterate" | "until"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_select() {
        let q =
            parse_query("SELECT a, b AS bee FROM t WHERE a > 1 ORDER BY a DESC LIMIT 10").unwrap();
        assert_eq!(q.limit, Some(10));
        assert_eq!(q.order_by.len(), 1);
        assert!(!q.order_by[0].asc);
        match q.body {
            SetExpr::Select(s) => {
                assert_eq!(s.projections.len(), 2);
                assert!(s.selection.is_some());
            }
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn parse_left_join_with_alias() {
        let q = parse_query(
            "SELECT pr.node FROM pr LEFT JOIN edges AS e ON pr.node = e.dst GROUP BY pr.node",
        )
        .unwrap();
        match q.body {
            SetExpr::Select(s) => {
                assert_eq!(s.from.len(), 1);
                assert_eq!(s.from[0].joins.len(), 1);
                assert_eq!(s.from[0].joins[0].join_type, JoinType::Left);
                assert_eq!(s.group_by.len(), 1);
            }
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn parse_union_all_tree() {
        let q =
            parse_query("SELECT src FROM e UNION SELECT dst FROM e UNION ALL VALUES (1)").unwrap();
        match q.body {
            SetExpr::SetOp { op, left, .. } => {
                assert_eq!(op, SetOperator::UnionAll);
                assert!(matches!(
                    *left,
                    SetExpr::SetOp {
                        op: SetOperator::Union,
                        ..
                    }
                ));
            }
            _ => panic!("expected set op"),
        }
    }

    #[test]
    fn parse_derived_table() {
        let q = parse_query(
            "SELECT src FROM (SELECT src FROM edges UNION SELECT dst FROM edges) AS alledges GROUP BY src",
        )
        .unwrap();
        match q.body {
            SetExpr::Select(s) => match &s.from[0].base {
                TableFactor::Derived { alias, .. } => assert_eq!(alias, "alledges"),
                _ => panic!("expected derived"),
            },
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn parse_pagerank_iterative_body() {
        // the iterative part of the paper's Example 2
        let q = parse_query(
            "SELECT PageRank.Node, \
             COALESCE(PageRank.Rank + PageRank.Delta, 0.15), \
             COALESCE(0.85 * SUM(IncomingRank.Delta * IncomingEdges.weight), 0.0) \
             FROM PageRank \
             LEFT JOIN edges AS IncomingEdges ON PageRank.Node = IncomingEdges.dst \
             LEFT JOIN PageRank AS IncomingRank ON IncomingRank.Node = IncomingEdges.src \
             GROUP BY PageRank.Node",
        )
        .unwrap();
        match q.body {
            SetExpr::Select(s) => {
                assert_eq!(s.projections.len(), 3);
                assert_eq!(s.from[0].joins.len(), 2);
                let agg_item = &s.projections[2];
                if let SelectItem::Expr { expr, .. } = agg_item {
                    assert!(expr.contains_aggregate());
                } else {
                    panic!("expected expr");
                }
            }
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn parse_case_when_and_least() {
        let e = parse_expression("CASE WHEN src = 1 THEN 0 ELSE Infinity END").unwrap();
        assert!(matches!(e, Expr::Case { .. }));
        let e = parse_expression("LEAST(a.distance, a.delta)").unwrap();
        assert!(matches!(e, Expr::Function { .. }));
    }

    #[test]
    fn parse_create_table_with_pk() {
        let s = parse_statement(
            "CREATE TABLE pagerank (node INT PRIMARY KEY, rank FLOAT, delta FLOAT)",
        )
        .unwrap();
        match s {
            Statement::CreateTable(ct) => {
                assert_eq!(ct.columns.len(), 3);
                assert!(ct.columns[0].primary_key);
            }
            _ => panic!("expected create table"),
        }
    }

    #[test]
    fn parse_create_table_mysql_options() {
        let s = parse_statement("CREATE TABLE t (a INT) ENGINE = MyISAM").unwrap();
        assert!(matches!(s, Statement::CreateTable(_)));
    }

    #[test]
    fn parse_insert_forms() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert(i) => {
                assert_eq!(i.columns.as_ref().unwrap().len(), 2);
                assert!(matches!(i.source, InsertSource::Values(ref v) if v.len() == 2));
            }
            _ => panic!(),
        }
        let s = parse_statement("INSERT INTO t SELECT * FROM u").unwrap();
        assert!(matches!(
            s,
            Statement::Insert(Insert {
                source: InsertSource::Select(_),
                ..
            })
        ));
    }

    #[test]
    fn parse_update_postgres_form() {
        let s =
            parse_statement("UPDATE r SET delta = m.v FROM msg AS m WHERE r.id = m.id").unwrap();
        match s {
            Statement::Update(u) => {
                assert_eq!(u.table, "r");
                assert_eq!(u.from.len(), 1);
                assert!(u.join_on.is_none());
                assert!(u.selection.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_update_mysql_form() {
        let s =
            parse_statement("UPDATE r JOIN msg ON r.id = msg.id SET delta = msg.v WHERE msg.v > 0")
                .unwrap();
        match s {
            Statement::Update(u) => {
                assert!(u.join_on.is_some());
                assert_eq!(u.from.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_values_as_query() {
        let q = parse_query("VALUES (0, 1), (2, 3)").unwrap();
        assert!(matches!(q.body, SetExpr::Values(ref v) if v.len() == 2));
    }

    #[test]
    fn parse_between_and_in() {
        let e = parse_expression("x BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { negated: false, .. }));
        let e = parse_expression("x NOT IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
    }

    #[test]
    fn parse_is_null() {
        let e = parse_expression("a.b IS NOT NULL").unwrap();
        assert!(matches!(e, Expr::IsNull { negated: true, .. }));
    }

    #[test]
    fn parse_script_multiple_statements() {
        let stmts =
            parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT * FROM t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn implicit_alias_not_confused_with_keywords() {
        let q = parse_query("SELECT t.a FROM tbl t WHERE t.a = 1").unwrap();
        match q.body {
            SetExpr::Select(s) => match &s.from[0].base {
                TableFactor::Table { name, alias } => {
                    assert_eq!(name, "tbl");
                    assert_eq!(alias.as_deref(), Some("t"));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse_statement("SELECT 1 extra garbage !!!").is_err());
    }

    #[test]
    fn count_star() {
        let e = parse_expression("COUNT(*)").unwrap();
        match e {
            Expr::Function { name, args } => {
                assert_eq!(name, "count");
                assert_eq!(args, vec![FunctionArg::Wildcard]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn operator_precedence() {
        // 1 + 2 * 3 = 7, not 9
        let e = parse_expression("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinaryOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    *right,
                    Expr::Binary {
                        op: BinaryOp::Mul,
                        ..
                    }
                ));
            }
            _ => panic!(),
        }
        // NOT binds tighter than AND
        let e = parse_expression("NOT a AND b").unwrap();
        assert!(matches!(
            e,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn precedence_climbing_keeps_the_grammar_of_its_levels() {
        let same = |sql: &str, grouped: &str| {
            assert_eq!(parse_expression(sql), parse_expression(grouped), "{sql}");
        };
        // NOT takes a whole comparison, AND binds tighter than OR
        same("NOT a = b AND c OR d", "((NOT (a = b)) AND c) OR d");
        same(
            "a + 1 IS NULL AND b NOT BETWEEN 1 AND 2 + c",
            "((a + 1) IS NULL) AND (b NOT BETWEEN 1 AND (2 + c))",
        );
        same("a - b - c * d % e", "(a - b) - ((c * d) % e)");
        same("NOT NOT a IN (1, 2)", "NOT (NOT (a IN (1, 2)))");
        same("- a * b || c", "((-a) * b) || c");
        // one comparison per level: only AND / OR continue after it (or after NOT)
        for bad in [
            "a = b = c",
            "a IS NULL + 1",
            "a IS NULL IS NULL",
            "x AND a >= b = c",
            "NOT a IS NULL IS NULL",
            "a = NOT b",
        ] {
            assert!(parse_expression(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn transaction_statements() {
        assert!(matches!(
            parse_statement("BEGIN").unwrap(),
            Statement::Begin
        ));
        assert!(matches!(
            parse_statement("START TRANSACTION").unwrap(),
            Statement::Begin
        ));
        assert!(matches!(
            parse_statement("COMMIT").unwrap(),
            Statement::Commit
        ));
        assert!(matches!(
            parse_statement("ROLLBACK").unwrap(),
            Statement::Rollback
        ));
    }

    #[test]
    fn create_index_and_drop() {
        let s = parse_statement("CREATE UNIQUE INDEX idx_t_a ON t (a)").unwrap();
        match s {
            Statement::CreateIndex(ci) => {
                assert!(ci.unique);
                assert_eq!(ci.table, "t");
                assert_eq!(ci.column, "a");
            }
            _ => panic!(),
        }
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable {
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn parse_query_stops_at_unknown_keyword() {
        let mut p = Parser::from_sql("SELECT a FROM t ITERATE SELECT b FROM t").unwrap();
        let q = p.parse_query().unwrap();
        assert!(matches!(q.body, SetExpr::Select(_)));
        assert!(p.eat_keyword("iterate"));
        let q2 = p.parse_query().unwrap();
        assert!(matches!(q2.body, SetExpr::Select(_)));
        assert!(p.is_eof());
    }
}
