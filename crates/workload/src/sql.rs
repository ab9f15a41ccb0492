//! SQL workload loading and emission.
//!
//! Every SQL workload enters here: the built-in `sql/*.sql` files, a user's
//! `.sql` file, a CLI script and a wire statement.  This module splits a
//! script into statements safely (string literals may contain `;`),
//! honouring a `-- name: <query>` comment convention, parses each through
//! the `qob-sql` frontend and binds it against a catalog.  It also emits
//! any list of bound queries back out as a script, which makes a workload a
//! plain text artefact.

use std::path::Path;

use qob_plan::QuerySpec;
use qob_sql::{emit_query, parse_script_statement, ErrorKind, ScriptStatement, SqlError};
use qob_storage::Database;

/// An error from loading a SQL workload: either I/O or a frontend
/// diagnostic, tagged with the statement it came from.
#[derive(Debug)]
pub enum SqlLoadError {
    /// Reading the file failed.
    Io(std::io::Error),
    /// A statement failed to parse or bind.
    Sql {
        /// Name of the failing statement (`-- name:` or `q<N>`).
        name: String,
        /// The frontend diagnostic.
        error: SqlError,
        /// The statement's text (for rendering the diagnostic).
        text: String,
    },
}

impl std::fmt::Display for SqlLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlLoadError::Io(e) => write!(f, "cannot read workload: {e}"),
            SqlLoadError::Sql { name, error, text } => {
                write!(f, "query `{name}`: {}", error.render(text))
            }
        }
    }
}

impl std::error::Error for SqlLoadError {}

/// Splits a script into `(name, text)` statements on top-level `;`,
/// tracking string literals and `--` comments.  A statement is named by the
/// nearest preceding `-- name:` comment, or `q<N>` by position; its text
/// has no terminating `;`, and empty statements are dropped.
fn split_statements(script: &str) -> Vec<(String, String)> {
    let mut statements = Vec::new();
    let mut pending_name: Option<String> = None;
    let mut current = String::new();
    let mut chars = script.chars().peekable();
    let mut in_string = false;
    while let Some(ch) = chars.next() {
        if in_string {
            current.push(ch);
            if ch == '\'' {
                // `''` stays inside the literal.
                if chars.peek() == Some(&'\'') {
                    current.push(chars.next().expect("peeked"));
                } else {
                    in_string = false;
                }
            }
            continue;
        }
        match ch {
            '\'' => {
                in_string = true;
                current.push(ch);
            }
            '-' if chars.peek() == Some(&'-') => {
                // Comment to end of line; capture `-- name: x` annotations.
                let mut comment = String::new();
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                    comment.push(c);
                }
                let comment = comment.trim_start_matches('-').trim();
                if let Some(name) = comment.strip_prefix("name:") {
                    pending_name = Some(name.trim().to_owned());
                }
                current.push('\n');
            }
            ';' => {
                flush(&mut current, &mut pending_name, &mut statements);
            }
            _ => current.push(ch),
        }
    }
    flush(&mut current, &mut pending_name, &mut statements);
    statements
}

fn flush(current: &mut String, pending_name: &mut Option<String>, out: &mut Vec<(String, String)>) {
    let text = std::mem::take(current);
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return;
    }
    let name = pending_name.take().unwrap_or_else(|| format!("q{}", out.len() + 1));
    out.push((name, trimmed.to_owned()));
}

/// A statement that has passed the syntactic stages (split + parse) but has
/// not yet been bound against a catalog.
///
/// Splitting parsing from binding lets hosts surface syntax errors *before*
/// paying for catalog construction — the `qob` CLI parses the whole script
/// first and only then generates (or snapshot-loads) the database.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedStatement {
    /// Name from the nearest preceding `-- name:` comment, or `q<N>`.
    pub name: String,
    /// The statement text (for rendering later bind diagnostics).
    pub text: String,
    /// The parsed statement: a query, or one of the prepared-statement
    /// commands (`PREPARE` / `EXECUTE` / `DEALLOCATE`).
    pub statement: ScriptStatement,
}

impl ParsedStatement {
    /// Builds the load error for a frontend diagnostic against this
    /// statement's text.
    pub fn error(&self, error: SqlError) -> Box<SqlLoadError> {
        Box::new(SqlLoadError::Sql { name: self.name.clone(), error, text: self.text.clone() })
    }
}

/// Splits and parses a script without touching any catalog: every statement
/// is syntax checked, none is bound.
pub fn parse_script(script: &str) -> Result<Vec<ParsedStatement>, Box<SqlLoadError>> {
    split_statements(script)
        .into_iter()
        .map(|(name, text)| match parse_script_statement(&text) {
            Ok(statement) => Ok(ParsedStatement { name, text, statement }),
            Err(error) => Err(Box::new(SqlLoadError::Sql { name, error, text })),
        })
        .collect()
}

/// Binds already-parsed statements against `db` — the second half of
/// [`load_sql_str`].
///
/// Only plain queries can be bound standalone: prepared-statement commands
/// carry session state (the registry of prepared names), so a workload
/// containing `PREPARE`/`EXECUTE`/`DEALLOCATE` must run through a
/// `qob-core` session instead.
pub fn bind_parsed(
    db: &Database,
    parsed: &[ParsedStatement],
) -> Result<Vec<QuerySpec>, Box<SqlLoadError>> {
    parsed
        .iter()
        .map(|p| match &p.statement {
            ScriptStatement::Select(statement) => {
                qob_sql::bind(db, statement, p.name.clone()).map_err(|error| p.error(error))
            }
            ScriptStatement::Prepare { .. }
            | ScriptStatement::Execute { .. }
            | ScriptStatement::Deallocate { .. } => Err(p.error(SqlError::spanless(
                ErrorKind::Unsupported,
                "PREPARE/EXECUTE/DEALLOCATE need a session; run the script through \
                 the qob CLI or a server connection",
            ))),
            ScriptStatement::Explain { .. } => Err(p.error(SqlError::spanless(
                ErrorKind::Unsupported,
                "EXPLAIN produces a report, not a workload query; run it through \
                 the qob CLI or a server connection",
            ))),
        })
        .collect()
}

/// Loads a workload from SQL text: every statement is parsed and bound
/// against `db`.
pub fn load_sql_str(db: &Database, script: &str) -> Result<Vec<QuerySpec>, Box<SqlLoadError>> {
    let parsed = parse_script(script)?;
    bind_parsed(db, &parsed)
}

/// Loads a workload from a `.sql` file.
pub fn load_sql_file(
    db: &Database,
    path: impl AsRef<Path>,
) -> Result<Vec<QuerySpec>, Box<SqlLoadError>> {
    let script = std::fs::read_to_string(path).map_err(|e| Box::new(SqlLoadError::Io(e)))?;
    load_sql_str(db, &script)
}

/// Emits bound queries as a `.sql` script with `-- name:` annotations —
/// the inverse of [`load_sql_str`].
pub fn emit_script(db: &Database, queries: &[QuerySpec]) -> String {
    let mut out = String::new();
    for query in queries {
        out.push_str("-- name: ");
        out.push_str(&query.name);
        out.push('\n');
        out.push_str(&emit_query(db, query));
        out.push_str("\n\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_datagen::{generate_imdb, Scale};

    #[test]
    fn parse_script_splits_names_and_skips_empty_segments() {
        let parsed = parse_script(
            "-- name: first\nSELECT * FROM a;\n\
             -- a plain comment\n\
             SELECT * FROM b x WHERE x.y = 'semi;colon';;\n\
             -- name: third\nSELECT * FROM c\n",
        )
        .unwrap();
        let names: Vec<&str> = parsed.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["first", "q2", "third"], "unnamed statements are numbered");
        let ScriptStatement::Select(second) = &parsed[1].statement else { panic!("a SELECT") };
        assert_eq!(second.from[0].alias.as_deref(), Some("x"));
        assert!(parsed[1].text.contains("'semi;colon'"));
        assert!(parse_script(" -- name: orphan\n ;;; ").unwrap().is_empty());
    }

    #[test]
    fn parameter_slots_are_counted_per_statement() {
        // `?` in one statement and `$n` in the next never mix.
        let parsed = parse_script(
            "PREPARE a AS SELECT * FROM t x WHERE x.a = ?;\n\
             PREPARE b AS SELECT * FROM t x WHERE x.a = $1 AND x.b = $2;",
        )
        .unwrap();
        let slots: Vec<usize> = parsed
            .iter()
            .map(|p| match p.statement {
                ScriptStatement::Prepare { params, .. } => params,
                _ => panic!("a PREPARE"),
            })
            .collect();
        assert_eq!(slots, [1, 2]);
    }

    #[test]
    fn parse_script_needs_no_catalog_and_bind_finishes_the_job() {
        // Syntax errors surface with no database in sight...
        let err = parse_script("-- name: broken\nSELECT COUNT(* FROM title t").unwrap_err();
        assert!(err.to_string().contains("broken"), "{err}");
        // ...while well-formed statements parse and bind later.
        let script = "-- name: ok\nSELECT COUNT(*) FROM title t WHERE t.production_year > 2000;";
        let parsed = parse_script(script).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].name, "ok");
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let bound = bind_parsed(&db, &parsed).unwrap();
        assert_eq!(bound, load_sql_str(&db, script).unwrap());
        // Bind errors render with the statement name and the unknown table.
        let unknown = parse_script("-- name: bad\nSELECT COUNT(*) FROM nope n").unwrap();
        let message = bind_parsed(&db, &unknown).unwrap_err().to_string();
        assert!(message.starts_with("query `bad`") && message.contains("nope"), "{message}");
    }

    #[test]
    fn emit_script_round_trips_through_load() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let original = load_sql_str(
            &db,
            "-- name: a\nSELECT COUNT(*) FROM title t, movie_keyword mk \
             WHERE mk.movie_id = t.id AND t.production_year > 2000;\n\
             -- name: b\nSELECT COUNT(*) FROM keyword k, movie_keyword mk \
             WHERE mk.keyword_id = k.id AND k.keyword LIKE '%love%';",
        )
        .unwrap();
        let script = emit_script(&db, &original);
        let reloaded = load_sql_str(&db, &script).unwrap();
        assert_eq!(original, reloaded);
    }
}
