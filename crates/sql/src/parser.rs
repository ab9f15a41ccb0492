//! Recursive-descent parser for the JOB SQL dialect.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! script     := script_stmt (';' script_stmt)* [';']
//! script_stmt:= statement
//!             | PREPARE ident AS statement
//!             | EXECUTE ident ['(' [const (',' const)*] ')']
//!             | DEALLOCATE ident
//!             | EXPLAIN [ANALYZE] statement
//! statement  := SELECT items FROM tables [WHERE expr]
//! items      := item (',' item)*
//! item       := '*' | ident '(' ('*' | colref) ')' [AS ident] | colref [AS ident]
//! tables     := factor (',' factor)*
//! factor     := table (join)*
//! join       := [INNER] JOIN table ON expr | CROSS JOIN table
//! table      := ident [AS] [ident]
//! expr       := and_expr (OR and_expr)*
//! and_expr   := unary (AND unary)*
//! unary      := NOT unary | '(' expr ')' | predicate
//! predicate  := operand cmp_op operand
//!             | colref [NOT] BETWEEN literal AND literal
//!             | colref [NOT] IN '(' literal (',' literal)* ')'
//!             | colref [NOT] LIKE literal
//!             | colref IS [NOT] NULL
//! operand    := colref | literal
//! literal    := const | '?' | '$' int
//! const      := ['-'] int | string | NULL
//! ```
//!
//! `INNER JOIN ... ON` and `CROSS JOIN` are normalised at parse time: the
//! joined tables are appended to the `FROM` list in text order and the `ON`
//! conditions are conjoined in front of the `WHERE` clause, so the statement
//! binds to exactly the spec its comma-separated form would.
//!
//! Parameter placeholders are positional `?` (slots assigned left to right)
//! or numbered `$1`, `$2`, … — the two styles cannot be mixed in one
//! statement.

use qob_storage::CmpOp;

use crate::ast::{
    ColumnRef, Expr, Literal, LiteralValue, Operand, ScriptStatement, SelectExpr, SelectItem,
    SelectStatement, TableRef,
};
use crate::error::{ErrorKind, Span, SqlError};
use crate::lexer::tokenize;
use crate::token::{Tok, Token};

/// Parses a single statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<SelectStatement, SqlError> {
    let mut parser = Parser::new(sql)?;
    let stmt = parser.statement()?;
    parser.eat_if(&Tok::Semi);
    parser.expect_eof()?;
    Ok(stmt)
}

/// Parses one script statement: a `SELECT`, or one of the
/// prepared-statement commands (`PREPARE name AS ...`, `EXECUTE name(...)`,
/// `DEALLOCATE name`).  A trailing `;` is allowed.
pub fn parse_script_statement(sql: &str) -> Result<ScriptStatement, SqlError> {
    let mut parser = Parser::new(sql)?;
    let stmt = parser.script_statement()?;
    parser.eat_if(&Tok::Semi);
    parser.expect_eof()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `?` placeholders seen in the current statement (slots assigned in
    /// text order).
    positional_params: u32,
    /// Highest `$n` seen in the current statement.
    max_numbered_param: u32,
}

impl Parser {
    fn new(sql: &str) -> Result<Self, SqlError> {
        Ok(Parser { tokens: tokenize(sql)?, pos: 0, positional_params: 0, max_numbered_param: 0 })
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn advance(&mut self) -> Token {
        let token = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    fn eat_if(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Tok, context: &str) -> Result<Token, SqlError> {
        if self.peek() == &tok {
            Ok(self.advance())
        } else {
            Err(self.unexpected(context))
        }
    }

    fn expect_eof(&self) -> Result<(), SqlError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(self.unexpected("end of statement"))
        }
    }

    fn unexpected(&self, context: &str) -> SqlError {
        SqlError::new(
            ErrorKind::Parse,
            format!("expected {context}, found {}", self.peek().describe()),
            self.span(),
        )
    }

    fn ident(&mut self, context: &str) -> Result<(String, Span), SqlError> {
        match self.peek() {
            Tok::Ident(_) => {
                let token = self.advance();
                let Tok::Ident(name) = token.tok else { unreachable!() };
                Ok((name, token.span))
            }
            _ => Err(self.unexpected(context)),
        }
    }

    // -- statement ---------------------------------------------------------

    fn script_statement(&mut self) -> Result<ScriptStatement, SqlError> {
        match self.peek() {
            Tok::Prepare => {
                self.advance();
                let (name, _) = self.ident("a statement name after `PREPARE`")?;
                self.expect(Tok::As, "`AS` after the statement name")?;
                let statement = self.statement()?;
                let params = self.param_slots();
                Ok(ScriptStatement::Prepare { name, statement, params })
            }
            Tok::Execute => {
                self.advance();
                let (name, _) = self.ident("a statement name after `EXECUTE`")?;
                let mut args = Vec::new();
                if self.eat_if(&Tok::LParen) {
                    if self.peek() != &Tok::RParen {
                        args.push(self.const_literal()?);
                        while self.eat_if(&Tok::Comma) {
                            args.push(self.const_literal()?);
                        }
                    }
                    self.expect(Tok::RParen, "`)` closing the argument list")?;
                }
                Ok(ScriptStatement::Execute { name, args })
            }
            Tok::Deallocate => {
                self.advance();
                let (name, _) = self.ident("a statement name after `DEALLOCATE`")?;
                Ok(ScriptStatement::Deallocate { name })
            }
            Tok::Explain => {
                self.advance();
                let analyze = self.eat_if(&Tok::Analyze);
                let statement = self.statement()?;
                Ok(ScriptStatement::Explain { analyze, statement })
            }
            _ => Ok(ScriptStatement::Select(self.statement()?)),
        }
    }

    /// Number of parameter slots the just-parsed statement uses.
    fn param_slots(&self) -> usize {
        self.positional_params.max(self.max_numbered_param) as usize
    }

    fn statement(&mut self) -> Result<SelectStatement, SqlError> {
        self.expect(Tok::Select, "`SELECT`")?;
        let mut items = vec![self.select_item()?];
        while self.eat_if(&Tok::Comma) {
            items.push(self.select_item()?);
        }
        self.expect(Tok::From, "`FROM`")?;
        let mut from = Vec::new();
        let mut on_conditions: Vec<Expr> = Vec::new();
        loop {
            self.table_factor(&mut from, &mut on_conditions)?;
            if !self.eat_if(&Tok::Comma) {
                break;
            }
        }
        let where_expr = if self.eat_if(&Tok::Where) { Some(self.expr()?) } else { None };
        // `ON` conditions are WHERE conjuncts in everything but position:
        // conjoin them (in text order) in front of the WHERE expression so
        // the bound form matches the comma-separated equivalent.
        let mut selection: Option<Expr> = None;
        for condition in on_conditions.into_iter().chain(where_expr) {
            selection = Some(match selection {
                None => condition,
                Some(acc) => Expr::And(Box::new(acc), Box::new(condition)),
            });
        }
        Ok(SelectStatement { items, from, selection })
    }

    /// One `FROM` factor: a table followed by any chain of explicit joins.
    fn table_factor(
        &mut self,
        from: &mut Vec<TableRef>,
        on_conditions: &mut Vec<Expr>,
    ) -> Result<(), SqlError> {
        from.push(self.table_ref()?);
        loop {
            match self.peek() {
                Tok::Cross => {
                    self.advance();
                    self.expect(Tok::Join, "`JOIN` after `CROSS`")?;
                    from.push(self.table_ref()?);
                }
                Tok::Inner | Tok::Join => {
                    if self.eat_if(&Tok::Inner) {
                        self.expect(Tok::Join, "`JOIN` after `INNER`")?;
                    } else {
                        self.advance();
                    }
                    from.push(self.table_ref()?);
                    self.expect(Tok::On, "`ON` after the joined table")?;
                    on_conditions.push(self.expr()?);
                }
                _ => return Ok(()),
            }
        }
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.eat_if(&Tok::Star) {
            return Ok(SelectItem { expr: SelectExpr::Star, alias: None });
        }
        // `ident (` is an aggregate call; otherwise a column reference.
        let expr = if matches!(self.peek(), Tok::Ident(_)) && self.peek2() == &Tok::LParen {
            let (func, func_span) = self.ident("aggregate function")?;
            self.expect(Tok::LParen, "`(`")?;
            let expr = if self.eat_if(&Tok::Star) {
                let upper = func.to_ascii_uppercase();
                if upper != "COUNT" {
                    return Err(SqlError::new(
                        ErrorKind::Parse,
                        format!("`*` is only valid inside COUNT, not {func}"),
                        func_span,
                    ));
                }
                SelectExpr::CountStar
            } else {
                let arg = self.column_ref()?;
                SelectExpr::Aggregate { func: func.to_ascii_uppercase(), arg }
            };
            self.expect(Tok::RParen, "`)`")?;
            expr
        } else {
            SelectExpr::Column(self.column_ref()?)
        };
        let alias = if self.eat_if(&Tok::As) {
            Some(self.ident("output alias after `AS`")?.0)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let (table, span) = self.ident("table name")?;
        let explicit_as = self.eat_if(&Tok::As);
        let alias = match self.peek() {
            Tok::Ident(_) => {
                let (alias, alias_span) = self.ident("alias")?;
                return Ok(TableRef { table, alias: Some(alias), span: span.merge(alias_span) });
            }
            _ if explicit_as => return Err(self.unexpected("alias after `AS`")),
            _ => None,
        };
        Ok(TableRef { table, alias, span })
    }

    // -- expressions -------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.and_expr()?;
        while self.eat_if(&Tok::Or) {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, SqlError> {
        let mut left = self.unary()?;
        while self.eat_if(&Tok::And) {
            let right = self.unary()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr, SqlError> {
        if self.eat_if(&Tok::Not) {
            return Ok(Expr::Not(Box::new(self.unary()?)));
        }
        if self.eat_if(&Tok::LParen) {
            let inner = self.expr()?;
            self.expect(Tok::RParen, "`)`")?;
            return Ok(Expr::Paren(Box::new(inner)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<Expr, SqlError> {
        let left = self.operand()?;
        // Column-only suffix predicates.
        if let Operand::Column(column) = &left {
            let negated = matches!(self.peek(), Tok::Not)
                && matches!(self.peek2(), Tok::Between | Tok::In | Tok::Like);
            if negated {
                self.advance();
            }
            match self.peek() {
                Tok::Between => {
                    self.advance();
                    let low = self.literal()?;
                    self.expect(Tok::And, "`AND` in BETWEEN")?;
                    let high = self.literal()?;
                    return Ok(Expr::Between { column: column.clone(), negated, low, high });
                }
                Tok::In => {
                    self.advance();
                    self.expect(Tok::LParen, "`(` after IN")?;
                    let mut items = vec![self.literal()?];
                    while self.eat_if(&Tok::Comma) {
                        items.push(self.literal()?);
                    }
                    self.expect(Tok::RParen, "`)` closing the IN list")?;
                    return Ok(Expr::InList { column: column.clone(), negated, items });
                }
                Tok::Like => {
                    self.advance();
                    let pattern = self.literal()?;
                    return Ok(Expr::Like { column: column.clone(), negated, pattern });
                }
                Tok::Is => {
                    self.advance();
                    let negated = self.eat_if(&Tok::Not);
                    self.expect(Tok::Null, "`NULL` after IS")?;
                    return Ok(Expr::IsNull { column: column.clone(), negated });
                }
                Tok::Not => return Err(self.unexpected("`BETWEEN`, `IN` or `LIKE` after `NOT`")),
                _ => {}
            }
        }
        // Plain comparison.
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return Err(self.unexpected("a comparison operator")),
        };
        self.advance();
        let right = self.operand()?;
        Ok(Expr::Cmp { left, op, right })
    }

    fn operand(&mut self) -> Result<Operand, SqlError> {
        match self.peek() {
            Tok::Ident(_) => Ok(Operand::Column(self.column_ref()?)),
            _ => Ok(Operand::Literal(self.literal()?)),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, SqlError> {
        let (first, first_span) = self.ident("column reference")?;
        if self.eat_if(&Tok::Dot) {
            let (column, col_span) = self.ident("column name after `.`")?;
            Ok(ColumnRef { qualifier: Some(first), column, span: first_span.merge(col_span) })
        } else {
            Ok(ColumnRef { qualifier: None, column: first, span: first_span })
        }
    }

    fn literal(&mut self) -> Result<Literal, SqlError> {
        if let Tok::Param(numbered) = self.peek() {
            let numbered = *numbered;
            let span = self.span();
            self.advance();
            let index = match numbered {
                None => {
                    if self.max_numbered_param > 0 {
                        return Err(SqlError::new(
                            ErrorKind::Parse,
                            "cannot mix `?` and `$n` parameters in one statement",
                            span,
                        ));
                    }
                    let index = self.positional_params;
                    self.positional_params += 1;
                    index
                }
                Some(n) => {
                    if self.positional_params > 0 {
                        return Err(SqlError::new(
                            ErrorKind::Parse,
                            "cannot mix `?` and `$n` parameters in one statement",
                            span,
                        ));
                    }
                    if n == 0 {
                        return Err(SqlError::new(
                            ErrorKind::Parse,
                            "parameters are numbered from `$1`",
                            span,
                        ));
                    }
                    self.max_numbered_param = self.max_numbered_param.max(n);
                    n - 1
                }
            };
            return Ok(Literal { value: LiteralValue::Param(index), span });
        }
        self.const_literal()
    }

    /// A literal that must be a concrete value (no parameter placeholders) —
    /// the only form allowed as an `EXECUTE` argument.
    fn const_literal(&mut self) -> Result<Literal, SqlError> {
        let start = self.span();
        if self.eat_if(&Tok::Minus) {
            return match self.peek() {
                Tok::Int(v) => {
                    let v = *v;
                    let span = start.merge(self.span());
                    self.advance();
                    Ok(Literal { value: LiteralValue::Int(-v), span })
                }
                _ => Err(self.unexpected("an integer after `-`")),
            };
        }
        match self.peek().clone() {
            Tok::Int(v) => {
                let span = self.advance().span;
                Ok(Literal { value: LiteralValue::Int(v), span })
            }
            Tok::Str(s) => {
                let span = self.advance().span;
                Ok(Literal { value: LiteralValue::Str(s), span })
            }
            Tok::Null => {
                let span = self.advance().span;
                Ok(Literal { value: LiteralValue::Null, span })
            }
            _ => Err(self.unexpected("a literal")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_job_shaped_query() {
        let stmt = parse_statement(
            "SELECT MIN(t.title) AS movie_title, COUNT(*) \
             FROM title AS t, movie_companies mc, company_name cn \
             WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
               AND cn.country_code = '[us]' AND t.production_year > 2000;",
        )
        .unwrap();
        assert_eq!(stmt.items.len(), 2);
        assert_eq!(stmt.items[0].alias.as_deref(), Some("movie_title"));
        assert!(matches!(stmt.items[1].expr, SelectExpr::CountStar));
        assert_eq!(stmt.from.len(), 3);
        assert_eq!(stmt.from[0].alias.as_deref(), Some("t"));
        assert_eq!(stmt.from[1].alias.as_deref(), Some("mc"), "alias without AS");
        let selection = stmt.selection.unwrap();
        // Left-associative AND chain.
        assert!(matches!(selection, Expr::And(..)));
    }

    #[test]
    fn parses_every_predicate_form() {
        let stmt = parse_statement(
            "SELECT * FROM t x WHERE x.a BETWEEN 1990 AND -5 \
             AND x.b IN ('p', 'q') AND x.c NOT IN ('r') \
             AND x.d LIKE '%seq%' AND x.e NOT LIKE 'a_' \
             AND x.f IS NULL AND x.g IS NOT NULL \
             AND x.h NOT BETWEEN 1 AND 2 \
             AND NOT (x.i = 3 OR x.j <> 4)",
        )
        .unwrap();
        let mut conjuncts = Vec::new();
        fn flatten(e: Expr, out: &mut Vec<Expr>) {
            if let Expr::And(l, r) = e {
                flatten(*l, out);
                flatten(*r, out);
            } else {
                out.push(e);
            }
        }
        flatten(stmt.selection.unwrap(), &mut conjuncts);
        assert_eq!(conjuncts.len(), 9);
        assert!(matches!(
            &conjuncts[0],
            Expr::Between { negated: false, low, .. }
                if low.value == LiteralValue::Int(1990)
        ));
        assert!(matches!(&conjuncts[2], Expr::InList { negated: true, .. }));
        assert!(matches!(&conjuncts[4], Expr::Like { negated: true, .. }));
        assert!(matches!(&conjuncts[5], Expr::IsNull { negated: false, .. }));
        assert!(matches!(&conjuncts[6], Expr::IsNull { negated: true, .. }));
        assert!(matches!(&conjuncts[7], Expr::Between { negated: true, .. }));
        assert!(matches!(&conjuncts[8], Expr::Not(inner) if matches!(**inner, Expr::Paren(_))));
    }

    #[test]
    fn or_has_lower_precedence_than_and() {
        let stmt = parse_statement("SELECT * FROM t WHERE t.a = 1 AND t.b = 2 OR t.c = 3").unwrap();
        // (a AND b) OR c
        assert!(matches!(stmt.selection.unwrap(), Expr::Or(l, _) if matches!(*l, Expr::And(..))));
    }

    #[test]
    fn error_paths_are_spanned() {
        for (sql, needle) in [
            ("FROM t", "expected `SELECT`"),
            ("SELECT FROM t", "column reference"),
            ("SELECT * FROM", "table name"),
            ("SELECT * FROM t WHERE", "a literal"),
            ("SELECT * FROM t WHERE t.a >", "a literal"),
            ("SELECT * FROM t WHERE t.a BETWEEN 1 OR 2", "`AND` in BETWEEN"),
            ("SELECT * FROM t WHERE t.a IN 'x'", "`(` after IN"),
            ("SELECT * FROM t WHERE t.a NOT NULL", "after `NOT`"),
            ("SELECT * FROM t WHERE t.a IS 3", "`NULL` after IS"),
            ("SELECT MIN(*) FROM t", "only valid inside COUNT"),
            ("SELECT * FROM t AS WHERE", "alias after `AS`"),
            ("SELECT * FROM t extra junk", "end of statement"),
            ("SELECT * FROM t WHERE t.a = - 'x'", "an integer after `-`"),
        ] {
            let err = parse_statement(sql).unwrap_err();
            assert!(
                err.message.contains(needle),
                "for `{sql}` expected message containing `{needle}`, got `{}`",
                err.message
            );
            assert!(err.span.is_some(), "error for `{sql}` should be spanned");
        }
    }

    #[test]
    fn explicit_join_syntax_normalises_to_the_comma_form() {
        // ASTs carry source spans, so compare the span-free shape: the FROM
        // order and the flattened conjunct sequence.  (Bound-spec equality
        // against the comma form is pinned in the crate-level tests.)
        let shape = |sql: &str| {
            let stmt = parse_statement(sql).unwrap();
            let from: Vec<String> = stmt
                .from
                .iter()
                .map(|t| format!("{} {}", t.table, t.alias.clone().unwrap_or_default()))
                .collect();
            let mut conjuncts = Vec::new();
            fn flatten(e: Expr, out: &mut Vec<String>) {
                if let Expr::And(l, r) = e {
                    flatten(*l, out);
                    flatten(*r, out);
                } else if let Expr::Cmp { left, right, op } = e {
                    out.push(format!(
                        "{:?} {op:?} {:?}",
                        operand_name(&left),
                        operand_name(&right)
                    ));
                } else {
                    out.push(format!("{e:?}").split('{').next().unwrap_or_default().to_owned());
                }
            }
            fn operand_name(op: &Operand) -> String {
                match op {
                    Operand::Column(c) => c.display_name(),
                    Operand::Literal(l) => format!("{:?}", l.value),
                }
            }
            let mut conjs = Vec::new();
            if let Some(selection) = stmt.selection {
                flatten(selection, &mut conjs);
            }
            conjuncts.extend(conjs);
            (from, conjuncts)
        };
        let comma = shape(
            "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
             WHERE mc.movie_id = t.id AND mc.company_id = cn.id AND cn.country_code = '[us]'",
        );
        for sql in [
            // INNER JOIN ... ON with the WHERE carrying the base predicate.
            "SELECT COUNT(*) FROM title t INNER JOIN movie_companies mc ON mc.movie_id = t.id \
             INNER JOIN company_name cn ON mc.company_id = cn.id \
             WHERE cn.country_code = '[us]'",
            // Bare JOIN is INNER JOIN.
            "SELECT COUNT(*) FROM title t JOIN movie_companies mc ON mc.movie_id = t.id \
             JOIN company_name cn ON mc.company_id = cn.id WHERE cn.country_code = '[us]'",
        ] {
            assert_eq!(shape(sql), comma, "for `{sql}`");
        }
    }

    #[test]
    fn cross_join_and_multi_condition_on_parse() {
        let stmt = parse_statement(
            "SELECT * FROM a x CROSS JOIN b y \
             INNER JOIN c z ON z.id = x.id AND z.b_id = y.id AND z.kind = 'k'",
        )
        .unwrap();
        assert_eq!(stmt.from.len(), 3);
        assert_eq!(stmt.from[1].alias.as_deref(), Some("y"));
        // The three ON conjuncts land as a left-associative AND chain.
        let mut conjuncts = Vec::new();
        fn flatten(e: Expr, out: &mut Vec<Expr>) {
            if let Expr::And(l, r) = e {
                flatten(*l, out);
                flatten(*r, out);
            } else {
                out.push(e);
            }
        }
        flatten(stmt.selection.unwrap(), &mut conjuncts);
        assert_eq!(conjuncts.len(), 3);

        // Joins chain after a comma factor too.
        let stmt = parse_statement("SELECT * FROM a, b JOIN c ON c.id = b.id WHERE a.id = b.a_id")
            .unwrap();
        assert_eq!(stmt.from.len(), 3);
        let mut conjuncts = Vec::new();
        flatten(stmt.selection.unwrap(), &mut conjuncts);
        assert_eq!(conjuncts.len(), 2, "ON condition precedes the WHERE conjunct");
        assert!(
            matches!(&conjuncts[0], Expr::Cmp { left: Operand::Column(c), .. } if c.qualifier.as_deref() == Some("c"))
        );
    }

    #[test]
    fn join_syntax_error_paths() {
        for (sql, needle) in [
            ("SELECT * FROM a CROSS b", "`JOIN` after `CROSS`"),
            ("SELECT * FROM a CROSS JOIN", "table name"),
            ("SELECT * FROM a JOIN b", "`ON` after the joined table"),
            ("SELECT * FROM a INNER b ON a.x = b.y", "`JOIN` after `INNER`"),
            ("SELECT * FROM a JOIN b ON", "a literal"),
        ] {
            let err = parse_statement(sql).unwrap_err();
            assert!(
                err.message.contains(needle),
                "for `{sql}` expected `{needle}`, got `{}`",
                err.message
            );
        }
    }

    #[test]
    fn positional_and_numbered_params_assign_slots() {
        let stmt = parse_statement(
            "SELECT COUNT(*) FROM t x WHERE x.a > ? AND x.b = ? AND x.c BETWEEN ? AND ?",
        )
        .unwrap();
        let mut params = Vec::new();
        fn collect(e: &Expr, out: &mut Vec<u32>) {
            match e {
                Expr::And(l, r) | Expr::Or(l, r) => {
                    collect(l, out);
                    collect(r, out);
                }
                Expr::Not(i) | Expr::Paren(i) => collect(i, out),
                Expr::Cmp { left, right, .. } => {
                    for op in [left, right] {
                        if let Operand::Literal(Literal { value: LiteralValue::Param(i), .. }) = op
                        {
                            out.push(*i);
                        }
                    }
                }
                Expr::Between { low, high, .. } => {
                    for l in [low, high] {
                        if let LiteralValue::Param(i) = l.value {
                            out.push(i);
                        }
                    }
                }
                Expr::InList { items, .. } => {
                    for l in items {
                        if let LiteralValue::Param(i) = l.value {
                            out.push(i);
                        }
                    }
                }
                Expr::Like { pattern, .. } => {
                    if let LiteralValue::Param(i) = pattern.value {
                        out.push(i);
                    }
                }
                Expr::IsNull { .. } => {}
            }
        }
        collect(stmt.selection.as_ref().unwrap(), &mut params);
        assert_eq!(params, vec![0, 1, 2, 3], "`?` slots assign left to right");

        let stmt =
            parse_statement("SELECT * FROM t x WHERE x.a = $2 AND x.b LIKE $1 AND x.c IN ($2)")
                .unwrap();
        let mut params = Vec::new();
        collect(stmt.selection.as_ref().unwrap(), &mut params);
        assert_eq!(params, vec![1, 0, 1], "`$n` is 1-based and reusable");
    }

    #[test]
    fn param_misuse_is_rejected() {
        for (sql, needle) in [
            ("SELECT * FROM t x WHERE x.a = ? AND x.b = $1", "cannot mix"),
            ("SELECT * FROM t x WHERE x.a = $1 AND x.b = ?", "cannot mix"),
            ("SELECT * FROM t x WHERE x.a = $0", "numbered from `$1`"),
        ] {
            let err = parse_statement(sql).unwrap_err();
            assert!(err.message.contains(needle), "for `{sql}`: {}", err.message);
        }
    }

    #[test]
    fn prepared_statement_commands_parse() {
        let stmt =
            parse_script_statement("PREPARE by_year AS SELECT COUNT(*) FROM t x WHERE x.a > ?;")
                .unwrap();
        match stmt {
            ScriptStatement::Prepare { name, params, .. } => {
                assert_eq!(name, "by_year");
                assert_eq!(params, 1);
            }
            other => panic!("expected PREPARE, got {other:?}"),
        }
        let stmt = parse_script_statement("PREPARE two AS SELECT COUNT(*) FROM t x WHERE x.a = $3")
            .unwrap();
        assert!(matches!(stmt, ScriptStatement::Prepare { params: 3, .. }));

        let stmt = parse_script_statement("EXECUTE by_year(2000, 'x', NULL, -5)").unwrap();
        match stmt {
            ScriptStatement::Execute { name, args } => {
                assert_eq!(name, "by_year");
                let values: Vec<LiteralValue> = args.into_iter().map(|a| a.value).collect();
                assert_eq!(
                    values,
                    vec![
                        LiteralValue::Int(2000),
                        LiteralValue::Str("x".into()),
                        LiteralValue::Null,
                        LiteralValue::Int(-5),
                    ]
                );
            }
            other => panic!("expected EXECUTE, got {other:?}"),
        }
        assert!(matches!(
            parse_script_statement("EXECUTE noargs").unwrap(),
            ScriptStatement::Execute { args, .. } if args.is_empty()
        ));
        assert!(matches!(
            parse_script_statement("EXECUTE noargs()").unwrap(),
            ScriptStatement::Execute { args, .. } if args.is_empty()
        ));
        assert!(matches!(
            parse_script_statement("DEALLOCATE by_year;").unwrap(),
            ScriptStatement::Deallocate { name } if name == "by_year"
        ));
        assert!(matches!(
            parse_script_statement("SELECT * FROM t").unwrap(),
            ScriptStatement::Select(_)
        ));

        for (sql, needle) in [
            ("PREPARE AS SELECT * FROM t", "statement name after `PREPARE`"),
            ("PREPARE q SELECT * FROM t", "`AS` after the statement name"),
            ("EXECUTE q(?)", "a literal"),
            ("EXECUTE q(1", "`)` closing the argument list"),
            ("DEALLOCATE", "statement name after `DEALLOCATE`"),
        ] {
            let err = parse_script_statement(sql).unwrap_err();
            assert!(err.message.contains(needle), "for `{sql}`: {}", err.message);
        }
    }

    #[test]
    fn explain_statements_parse() {
        let stmt = parse_script_statement("EXPLAIN SELECT COUNT(*) FROM t x;").unwrap();
        assert!(matches!(stmt, ScriptStatement::Explain { analyze: false, .. }), "{stmt:?}");
        let stmt = parse_script_statement("explain analyze SELECT COUNT(*) FROM t x WHERE x.a > 3")
            .unwrap();
        match stmt {
            ScriptStatement::Explain { analyze, statement } => {
                assert!(analyze);
                assert!(statement.selection.is_some());
            }
            other => panic!("expected EXPLAIN ANALYZE, got {other:?}"),
        }
        // ANALYZE alone is not a statement; EXPLAIN requires a SELECT body.
        assert!(parse_script_statement("ANALYZE SELECT * FROM t").is_err());
        let err = parse_script_statement("EXPLAIN ANALYZE").unwrap_err();
        assert!(err.message.contains("SELECT"), "{}", err.message);
    }

    #[test]
    fn unary_minus_binds_to_integer_literals() {
        let stmt = parse_statement("SELECT * FROM t WHERE t.a = -42").unwrap();
        match stmt.selection.unwrap() {
            Expr::Cmp { right: Operand::Literal(lit), .. } => {
                assert_eq!(lit.value, LiteralValue::Int(-42));
            }
            other => panic!("expected comparison, got {other:?}"),
        }
    }
}
