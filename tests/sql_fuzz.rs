//! Property tests: the text path never panics.
//!
//! Whatever bytes arrive — arbitrary Unicode, truncated SQL, keyword soup —
//! the lexer, the script parser and the binder must either succeed or
//! return a diagnostic, never panic.  `qob_workload::parse_script` is where
//! raw text enters: the `qob` CLI (stdin, `-e`, `.sql` files) and the
//! server's `query` requests hand it whole scripts, which it splits into
//! statements and parses one by one with `parse_script_statement`
//! (queries plus `PREPARE`, `EXECUTE`, `DEALLOCATE` and `EXPLAIN`).  The
//! server's `prepare` request parses its body with `parse_statement`.  So
//! this is a real robustness boundary, not just hygiene.

use proptest::prelude::*;
use qob_datagen::{generate_imdb, Scale};
use qob_sql::{bind, parse_statement, tokenize, ScriptStatement};
use qob_workload::parse_script;

/// Fragments biased toward the grammar so generated soup reaches deep
/// parser states (half-finished predicates, dangling operators, stray
/// quotes) far more often than uniform random text would.
const FRAGMENTS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "AS",
    "BETWEEN",
    "IN",
    "LIKE",
    "IS",
    "NULL",
    "MIN",
    "COUNT",
    "PREPARE",
    "EXECUTE",
    "DEALLOCATE",
    "EXPLAIN",
    "ANALYZE",
    "?",
    "$1",
    "$2",
    "$0",
    "(",
    ")",
    ",",
    ".",
    ";",
    "*",
    "=",
    "<",
    "<=",
    ">",
    ">=",
    "<>",
    "!=",
    "-",
    "t",
    "mc",
    "title",
    "movie_companies",
    "id",
    "movie_id",
    "production_year",
    "'x'",
    "''",
    "'it''s'",
    "'unterminated",
    "1999",
    "0",
    "99999999999999999999999",
    "--",
    "-- name: x",
    "\n",
    "~",
    "🙂",
    "é",
];

proptest! {
    /// Arbitrary Unicode never panics the lexer.
    #[test]
    fn lexer_never_panics_on_arbitrary_input(input in any::<String>()) {
        let _ = tokenize(&input);
    }

    /// Arbitrary Unicode never panics the script parser or the
    /// single-statement parser.
    #[test]
    fn parser_never_panics_on_arbitrary_input(input in any::<String>()) {
        let _ = parse_script(&input);
        let _ = parse_statement(&input);
    }

    /// SQL-shaped token soup never panics the script parser.
    #[test]
    fn parser_never_panics_on_sql_shaped_soup(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..48),
    ) {
        let soup: Vec<&str> = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let input = soup.join(" ");
        let _ = parse_script(&input);
        let _ = parse_statement(&input);
        // Also without separating spaces, to hit token-adjacency paths.
        let dense = soup.concat();
        let _ = parse_script(&dense);
    }
}

/// SQL-shaped soup never panics the binder either: every query body that
/// parses — plain, `EXPLAIN`ed or `PREPARE`d — must bind to `Ok` or a
/// diagnostic.  (The catalog is built once — outside the `proptest!` macro
/// — because data generation dominates the runtime.)
#[test]
fn binder_never_panics_on_sql_shaped_soup() {
    let db = generate_imdb(&Scale::tiny()).unwrap();
    let mut rng = TestRng::deterministic("binder_never_panics");
    for _ in 0..512 {
        let len = rng.below(48);
        let soup: Vec<&str> = (0..len).map(|_| FRAGMENTS[rng.below(FRAGMENTS.len())]).collect();
        let Ok(parsed) = parse_script(&soup.join(" ")) else { continue };
        for statement in &parsed {
            match &statement.statement {
                ScriptStatement::Select(body)
                | ScriptStatement::Explain { statement: body, .. }
                | ScriptStatement::Prepare { statement: body, .. } => {
                    let _ = bind(&db, body, "fuzz");
                }
                ScriptStatement::Execute { .. } | ScriptStatement::Deallocate { .. } => {}
            }
        }
    }
}
