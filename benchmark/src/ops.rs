//! Workloads, their pinned statement domains (`benchmark/expected/*.json`)
//! and the seeded op lists drawn from them.
//!
//! A domain file is the workload's definition: every statement it may issue
//! (SQL text, parameter tuples) with the pinned answer of each, plus the
//! checksum of the fixture those answers hold for.  `--seed` never changes the
//! domain — it picks, parameterizes and orders ops from it — so every answer
//! is checkable under every seed, and the program only ever receives SQL.

use std::path::{Path, PathBuf};

use qob_server::Json;

use crate::rng::{Rng, Zipf};

/// The four workloads.  Names are fixed: later issues refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plan all 113 JOB statements, never execute; plan cache off.
    JobPlan,
    /// Plan and execute all 113 JOB statements; plan cache off.
    JobExec,
    /// Selectivity-swept single-table and two-table scans; plan cache on.
    ScanFilter,
    /// Prepared point lookups over the wire, Zipf parameters; plan cache on.
    WireHot,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::JobPlan, Workload::JobExec, Workload::ScanFilter, Workload::WireHot];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::JobPlan => "job_plan",
            Workload::JobExec => "job_exec",
            Workload::ScanFilter => "scan_filter",
            Workload::WireHot => "wire_hot",
        }
    }

    /// Parses a fixed name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether sessions of this workload use the shared plan cache.  The two
    /// JOB workloads keep it off so that every statement plans cold (the
    /// larger-than-cache extreme); the other two fit in it.
    pub fn plan_cache(self) -> bool {
        matches!(self, Workload::ScanFilter | Workload::WireHot)
    }

    /// Whether statements execute (`job_plan` stops after planning).
    pub fn executes(self) -> bool {
        self != Workload::JobPlan
    }
}

/// The fixture scale a run uses; each has its own pinned domain files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixtureScale {
    /// 50 000 movies (≈ 1.47 M rows): the measured scale.
    Full,
    /// 2 000 movies: the `--smoke` scale, seconds end to end.
    Smoke,
}

impl FixtureScale {
    /// `title` rows.
    pub fn movies(self) -> usize {
        match self {
            FixtureScale::Full => 50_000,
            FixtureScale::Smoke => 2_000,
        }
    }

    /// Where this scale's domain file of `workload` lives, relative to the
    /// repository root.
    pub fn domain_path(self, workload: Workload) -> PathBuf {
        let dir = match self {
            FixtureScale::Full => "benchmark/expected",
            FixtureScale::Smoke => "benchmark/expected/smoke",
        };
        Path::new(dir).join(format!("{}.json", workload.name()))
    }
}

/// One statement of a domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Stable identifier (`6a`, `s03.p010.v1`, `w05`).
    pub key: String,
    /// Statements of one group are interchangeable draws (the same template
    /// at the same selectivity with other literals); a pass issues one
    /// statement per group and round.
    pub group: String,
    /// The SQL text; parameterized (`$1`) iff `params` is non-empty.
    pub sql: String,
    /// Parameter tuples the statement may be executed with.
    pub params: Vec<Vec<i64>>,
    /// The pinned answer per parameter tuple (one answer when unparameterized):
    /// result rows, or for `job_plan` the number of relations planned.
    pub answers: Vec<u64>,
}

/// A workload's pinned statement domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// `title` rows of the fixture the answers hold for.
    pub movies: usize,
    /// FNV-1a 64 checksum of that fixture's CSV export.
    pub fixture_fnv: u64,
    /// The statements.
    pub statements: Vec<Statement>,
}

impl Domain {
    /// Reads a domain file.
    pub fn load(path: &Path) -> Result<Domain, String> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            format!(
                "cannot read `{}` ({e}); run from the repository root, or regenerate with --bless",
                path.display()
            )
        })?;
        Domain::from_json(&text).map_err(|e| format!("`{}`: {e}", path.display()))
    }

    fn from_json(text: &str) -> Result<Domain, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let movies = doc.get("movies").and_then(Json::as_u64).ok_or("missing `movies`")? as usize;
        let fnv = doc.get("fixture_fnv").and_then(Json::as_str).ok_or("missing `fixture_fnv`")?;
        let fixture_fnv = u64::from_str_radix(fnv, 16).map_err(|e| format!("fixture_fnv: {e}"))?;
        let mut statements = Vec::new();
        for item in doc.get("statements").and_then(Json::as_array).ok_or("missing `statements`")? {
            let text = |field: &str| {
                item.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("statement lacks string `{field}`"))
            };
            let ints = |value: &Json| -> Option<Vec<i64>> {
                value.as_array()?.iter().map(|v| v.as_f64().map(|n| n as i64)).collect()
            };
            let params = match item.get("params") {
                None => Vec::new(),
                Some(list) => list
                    .as_array()
                    .and_then(|tuples| tuples.iter().map(ints).collect::<Option<Vec<_>>>())
                    .ok_or("malformed `params`")?,
            };
            let answers: Vec<u64> = item
                .get("answers")
                .and_then(|list| list.as_array()?.iter().map(Json::as_u64).collect())
                .ok_or("malformed `answers`")?;
            if answers.len() != params.len().max(1) {
                return Err(format!(
                    "statement `{}`: one answer per parameter tuple",
                    text("key")?
                ));
            }
            statements.push(Statement {
                key: text("key")?,
                group: text("group")?,
                sql: text("sql")?,
                params,
                answers,
            });
        }
        if statements.is_empty() {
            return Err("no statements".into());
        }
        Ok(Domain { movies, fixture_fnv, statements })
    }

    /// Serialises the domain, one statement per line so diffs stay readable.
    pub fn to_json(&self, workload: Workload) -> String {
        let ints =
            |values: &[i64]| Json::Arr(values.iter().map(|v| Json::Num(*v as f64)).collect());
        let mut out = format!(
            "{{\"workload\":\"{}\",\"movies\":{},\"fixture_fnv\":\"{:016x}\",\"statements\":[\n",
            workload.name(),
            self.movies,
            self.fixture_fnv
        );
        for (i, s) in self.statements.iter().enumerate() {
            let mut pairs = vec![
                ("key", Json::str(s.key.clone())),
                ("group", Json::str(s.group.clone())),
                ("sql", Json::str(s.sql.clone())),
            ];
            if !s.params.is_empty() {
                pairs.push(("params", Json::Arr(s.params.iter().map(|p| ints(p)).collect())));
            }
            pairs.push((
                "answers",
                Json::Arr(s.answers.iter().map(|a| Json::Num(*a as f64)).collect()),
            ));
            out.push_str(&Json::obj(pairs).to_string());
            out.push_str(if i + 1 < self.statements.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }

    /// The groups, in order of first appearance, as statement-index lists.
    fn groups(&self) -> Vec<Vec<usize>> {
        let mut names: Vec<&str> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, s) in self.statements.iter().enumerate() {
            match names.iter().position(|n| *n == s.group) {
                Some(g) => groups[g].push(i),
                None => {
                    names.push(&s.group);
                    groups.push(vec![i]);
                }
            }
        }
        groups
    }
}

/// One op of a pass: a statement of the domain and which of its parameter
/// tuples (0 when unparameterized) to run it with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Domain::statements`].
    pub statement: usize,
    /// Index into the statement's `params` / `answers`.
    pub variant: usize,
}

/// Rounds of one `scan_filter` pass: each round issues one statement of every
/// (template, selectivity) group.
const SCAN_ROUNDS: usize = 2;

/// Ops one `wire_hot` connection issues per pass.
const WIRE_PASS_OPS: usize = 400;

/// Exponent of the `wire_hot` parameter popularity.
const WIRE_ZIPF_S: f64 = 1.0;

/// The op list of one pass, derived from `seed` alone.  `stream` tells the
/// connections of `wire_hot` apart (each draws its own list); the in-process
/// workloads use stream 0.
pub fn op_list(workload: Workload, domain: &Domain, seed: u64, stream: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, stream);
    match workload {
        // The JOB statements are the paper's, fixed; the seed orders them.
        Workload::JobPlan | Workload::JobExec => {
            let mut ops: Vec<Op> = (0..domain.statements.len())
                .map(|statement| Op { statement, variant: 0 })
                .collect();
            rng.shuffle(&mut ops);
            ops
        }
        // Every pass covers every (template, selectivity) group the same
        // number of times, so the mix is the same under every seed; the seed
        // picks the literals and the order.
        Workload::ScanFilter => {
            let groups = domain.groups();
            let mut ops = Vec::with_capacity(SCAN_ROUNDS * groups.len());
            for _ in 0..SCAN_ROUNDS {
                for members in &groups {
                    ops.push(Op { statement: members[rng.below(members.len())], variant: 0 });
                }
            }
            rng.shuffle(&mut ops);
            ops
        }
        // Statements uniform, parameters Zipf: a few hot keys, a long tail.
        Workload::WireHot => {
            let samplers: Vec<Zipf> = domain
                .statements
                .iter()
                .map(|s| Zipf::new(s.params.len().max(1), WIRE_ZIPF_S))
                .collect();
            (0..WIRE_PASS_OPS)
                .map(|_| {
                    let statement = rng.below(domain.statements.len());
                    Op { statement, variant: samplers[statement].sample(&mut rng) }
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain(groups: usize, per_group: usize, params: usize) -> Domain {
        let mut statements = Vec::new();
        for g in 0..groups {
            for v in 0..per_group {
                statements.push(Statement {
                    key: format!("g{g}.v{v}"),
                    group: format!("g{g}"),
                    sql: format!("SELECT COUNT(*) FROM title t WHERE t.id = {}", g * 10 + v),
                    params: (0..params).map(|p| vec![p as i64 + 1]).collect(),
                    answers: vec![1; params.max(1)],
                });
            }
        }
        Domain { movies: 2_000, fixture_fnv: 0xDEAD_BEEF, statements }
    }

    /// The list as the program would receive it: statement text plus values.
    fn render(domain: &Domain, ops: &[Op]) -> String {
        ops.iter()
            .map(|op| {
                let s = &domain.statements[op.statement];
                format!("{} {:?}\n", s.sql, s.params.get(op.variant))
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_a_byte_identical_list_and_another_seed_another() {
        for (workload, d) in [
            (Workload::JobExec, domain(113, 1, 0)),
            (Workload::ScanFilter, domain(12, 3, 0)),
            (Workload::WireHot, domain(16, 1, 64)),
        ] {
            let a = render(&d, &op_list(workload, &d, 42, 0));
            assert_eq!(a, render(&d, &op_list(workload, &d, 42, 0)), "{workload:?}");
            assert_ne!(a, render(&d, &op_list(workload, &d, 43, 0)), "{workload:?}");
        }
        // Connections of one seed draw different lists.
        let d = domain(16, 1, 64);
        assert_ne!(op_list(Workload::WireHot, &d, 42, 0), op_list(Workload::WireHot, &d, 42, 1));
    }

    #[test]
    fn every_pass_has_the_same_mix() {
        let d = domain(113, 1, 0);
        let mut ops = op_list(Workload::JobPlan, &d, 9, 0);
        ops.sort_by_key(|op| op.statement);
        assert_eq!(
            ops.iter().map(|op| op.statement).collect::<Vec<_>>(),
            (0..113).collect::<Vec<_>>()
        );

        let d = domain(12, 3, 0);
        for seed in 0..5 {
            let ops = op_list(Workload::ScanFilter, &d, seed, 0);
            assert_eq!(ops.len(), SCAN_ROUNDS * 12);
            for g in 0..12 {
                let hits =
                    ops.iter().filter(|op| d.statements[op.statement].group == format!("g{g}"));
                assert_eq!(hits.count(), SCAN_ROUNDS, "seed {seed} group g{g}");
            }
        }

        let d = domain(16, 1, 64);
        let ops = op_list(Workload::WireHot, &d, 1, 0);
        assert_eq!(ops.len(), WIRE_PASS_OPS);
        assert!(ops.iter().all(|op| op.statement < 16 && op.variant < 64));
    }

    #[test]
    fn domain_files_round_trip() {
        for d in [domain(3, 2, 0), domain(2, 1, 5)] {
            let text = d.to_json(Workload::WireHot);
            assert_eq!(Domain::from_json(&text).unwrap(), d);
        }
        assert!(
            Domain::from_json("{\"movies\":1,\"fixture_fnv\":\"0\",\"statements\":[]}").is_err()
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("job"), None);
        assert!(!Workload::JobExec.plan_cache() && Workload::WireHot.plan_cache());
        assert!(!Workload::JobPlan.executes() && Workload::ScanFilter.executes());
    }
}
