//! Structural query fingerprints — automatic literal parameterization.
//!
//! A [`Fingerprint`] identifies the *shape* of a bound [`QuerySpec`]: which
//! tables are joined under which aliases, which join edges connect them, and
//! which predicate forms restrict each relation — but **not** the literal
//! values those predicates compare against.  Two executions of the same
//! parameterized statement with different parameter values therefore hash to
//! the same fingerprint, which is what lets the plan cache recognise a
//! repeated query without any textual parameter syntax: the bound spec itself
//! is parameterized automatically.
//!
//! The fingerprint is deliberately *structure-sensitive*: a different table,
//! alias order, join edge, predicate kind, column, comparison operator,
//! `IN`-list arity or boolean nesting all produce a different fingerprint.
//! Only the payload of a literal (the `i64` or the string bytes) is excluded.
//!
//! Hashing is 128 bits (two independent FNV-1a 64 lanes over a tagged
//! pre-order encoding), so accidental collisions are not a practical concern
//! for cache-sized populations.

use qob_plan::QuerySpec;
use qob_storage::encoding::{FNV1A64_OFFSET, FNV1A64_PRIME};
use qob_storage::{CmpOp, Predicate};

/// A 128-bit structural hash of a bound query, invariant to literal values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// Folds extra context (e.g. the estimator profile a plan was optimized
    /// with) into the fingerprint, producing a derived cache key.
    pub fn mix(self, salt: u64) -> Fingerprint {
        let mut h = Hasher { a: self.0, b: self.1 };
        h.u64(salt);
        Fingerprint(h.a, h.b)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Two independent FNV-1a 64 lanes fed the same byte stream.
struct Hasher {
    a: u64,
    b: u64,
}

// A second lane with a different, odd offset basis: the streams stay
// decorrelated because the avalanche paths start from different states.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142 ^ 0x9e37_79b9_7f4a_7c15;

impl Hasher {
    fn new() -> Self {
        Hasher { a: FNV1A64_OFFSET, b: FNV_OFFSET_B }
    }

    fn byte(&mut self, byte: u8) {
        self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV1A64_PRIME);
        self.b = (self.b ^ u64::from(byte)).wrapping_mul(FNV1A64_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.byte(byte);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A length-prefixed string, so `("ab","c")` and `("a","bc")` differ.
    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// A structural tag separating node kinds in the pre-order encoding.
    fn tag(&mut self, t: u8) {
        self.byte(t);
    }
}

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

/// Hashes one predicate's structure: kind, column, operator and arity — every
/// literal *value* (`i64` payloads, string bytes) is skipped.
fn hash_predicate(h: &mut Hasher, predicate: &Predicate) {
    match predicate {
        Predicate::IntCmp { column, op, value: _ } => {
            h.tag(1);
            h.usize(column.index());
            h.tag(cmp_op_tag(*op));
        }
        Predicate::IntBetween { column, low: _, high: _ } => {
            h.tag(2);
            h.usize(column.index());
        }
        Predicate::StrEq { column, value: _ } => {
            h.tag(3);
            h.usize(column.index());
        }
        Predicate::StrIn { column, values } => {
            h.tag(4);
            h.usize(column.index());
            // Arity is structure: `IN (a)` and `IN (a, b)` estimate (and can
            // plan) differently even before the values are known.
            h.usize(values.len());
        }
        Predicate::Like { column, pattern: _ } => {
            h.tag(5);
            h.usize(column.index());
        }
        Predicate::IsNull { column } => {
            h.tag(6);
            h.usize(column.index());
        }
        Predicate::IsNotNull { column } => {
            h.tag(7);
            h.usize(column.index());
        }
        Predicate::And(parts) => {
            h.tag(8);
            h.usize(parts.len());
            for p in parts {
                hash_predicate(h, p);
            }
        }
        Predicate::Or(parts) => {
            h.tag(9);
            h.usize(parts.len());
            for p in parts {
                hash_predicate(h, p);
            }
        }
        Predicate::Not(inner) => {
            h.tag(10);
            hash_predicate(h, inner);
        }
    }
}

/// Computes the structural fingerprint of a bound query.
///
/// The query *name* is excluded (the same statement loaded under different
/// `-- name:` annotations is still the same statement); everything else that
/// shapes planning — relations, aliases, join edges, predicate structure —
/// is included.
pub fn fingerprint_query(query: &QuerySpec) -> Fingerprint {
    let mut h = Hasher::new();
    h.usize(query.relations.len());
    for rel in &query.relations {
        h.tag(b'R');
        h.u64(u64::from(rel.table.0));
        // Aliases participate: they are how the text identifies range
        // variables, and including them keeps the fingerprint aligned with
        // the statement a client actually repeats.
        h.str(&rel.alias);
        h.usize(rel.predicates.len());
        for predicate in &rel.predicates {
            hash_predicate(&mut h, predicate);
        }
    }
    h.usize(query.joins.len());
    for edge in &query.joins {
        h.tag(b'J');
        h.usize(edge.left);
        h.usize(edge.left_column.index());
        h.usize(edge.right);
        h.usize(edge.right_column.index());
    }
    Fingerprint(h.a, h.b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::{BaseRelation, JoinEdge};
    use qob_storage::{ColumnId, TableId};

    fn base_query() -> QuerySpec {
        QuerySpec::new(
            "q",
            vec![
                BaseRelation::filtered(
                    TableId(0),
                    "t",
                    vec![Predicate::IntCmp { column: ColumnId(1), op: CmpOp::Gt, value: 2000 }],
                ),
                BaseRelation::filtered(
                    TableId(1),
                    "mc",
                    vec![Predicate::StrEq { column: ColumnId(2), value: "[us]".into() }],
                ),
            ],
            vec![JoinEdge {
                left: 1,
                left_column: ColumnId(1),
                right: 0,
                right_column: ColumnId(0),
            }],
        )
    }

    #[test]
    fn literal_values_do_not_change_the_fingerprint() {
        let a = base_query();
        let mut b = base_query();
        b.relations[0].predicates[0] =
            Predicate::IntCmp { column: ColumnId(1), op: CmpOp::Gt, value: 1950 };
        b.relations[1].predicates[0] =
            Predicate::StrEq { column: ColumnId(2), value: "[gb]".into() };
        assert_eq!(fingerprint_query(&a), fingerprint_query(&b));
    }

    #[test]
    fn the_name_does_not_change_the_fingerprint() {
        let a = base_query();
        let mut b = base_query();
        b.name = "other".into();
        assert_eq!(fingerprint_query(&a), fingerprint_query(&b));
    }

    #[test]
    fn structure_changes_the_fingerprint() {
        let base = fingerprint_query(&base_query());

        let mut op = base_query();
        op.relations[0].predicates[0] =
            Predicate::IntCmp { column: ColumnId(1), op: CmpOp::Lt, value: 2000 };
        assert_ne!(fingerprint_query(&op), base, "comparison operator is structure");

        let mut col = base_query();
        col.relations[0].predicates[0] =
            Predicate::IntCmp { column: ColumnId(0), op: CmpOp::Gt, value: 2000 };
        assert_ne!(fingerprint_query(&col), base, "predicate column is structure");

        let mut table = base_query();
        table.relations[0].table = TableId(7);
        assert_ne!(fingerprint_query(&table), base, "base table is structure");

        let mut alias = base_query();
        alias.relations[0].alias = "t2".into();
        assert_ne!(fingerprint_query(&alias), base, "alias is structure");

        let mut edge = base_query();
        edge.joins[0].left_column = ColumnId(2);
        assert_ne!(fingerprint_query(&edge), base, "join column is structure");

        let mut dropped = base_query();
        dropped.relations[1].predicates.clear();
        assert_ne!(fingerprint_query(&dropped), base, "predicate presence is structure");

        let mut arity = base_query();
        arity.relations[1].predicates[0] =
            Predicate::StrIn { column: ColumnId(2), values: vec!["[us]".into(), "[gb]".into()] };
        assert_ne!(fingerprint_query(&arity), base, "IN replaces equality");
    }

    #[test]
    fn in_list_arity_is_structure_but_its_values_are_not() {
        let mk = |values: Vec<&str>| {
            let mut q = base_query();
            q.relations[1].predicates[0] = Predicate::StrIn {
                column: ColumnId(2),
                values: values.into_iter().map(String::from).collect(),
            };
            fingerprint_query(&q)
        };
        assert_eq!(mk(vec!["a", "b"]), mk(vec!["x", "y"]));
        assert_ne!(mk(vec!["a", "b"]), mk(vec!["a", "b", "c"]));
    }

    #[test]
    fn nested_groups_hash_their_shape() {
        let grouped = |pred: Predicate| {
            let mut q = base_query();
            q.relations[0].predicates = vec![pred];
            fingerprint_query(&q)
        };
        let flat_and = grouped(Predicate::And(vec![
            Predicate::IsNotNull { column: ColumnId(1) },
            Predicate::IsNull { column: ColumnId(0) },
        ]));
        let flat_or = grouped(Predicate::Or(vec![
            Predicate::IsNotNull { column: ColumnId(1) },
            Predicate::IsNull { column: ColumnId(0) },
        ]));
        let negated = grouped(Predicate::Not(Box::new(Predicate::IsNull { column: ColumnId(0) })));
        assert_ne!(flat_and, flat_or);
        assert_ne!(flat_and, negated);
        assert_ne!(flat_or, negated);
    }

    #[test]
    fn mix_derives_distinct_keys() {
        let fp = fingerprint_query(&base_query());
        assert_ne!(fp.mix(0), fp.mix(1));
        assert_ne!(fp.mix(0), fp);
        assert_eq!(fp.mix(3), fp.mix(3));
        assert!(!fp.to_string().is_empty());
    }
}
