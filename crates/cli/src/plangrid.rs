//! `qob plangrid`: rank every estimator x cost-model x enumerator
//! combination against the true plan-space optimum.

use std::process::ExitCode;
use std::time::Instant;

use qob_server::Json;

use crate::flags::{count_of, obtain_context, value_of, ContextFlags};
use crate::round6;

pub(crate) struct Options {
    /// `--scale`, `--indexes` and `--snapshot`; plan-space runs never
    /// ingest, so `--data-dir` stays unset.
    context: ContextFlags,
    seed: u64,
    job_limit: usize,
    random_count: usize,
    max_rels: usize,
    samples: usize,
    quickpick: usize,
    output: String,
    require_true_optimal: bool,
}

pub(crate) fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        context: ContextFlags::default(),
        seed: 0,
        job_limit: 4,
        random_count: 4,
        max_rels: 8,
        samples: 1000,
        quickpick: 100,
        output: "BENCH_planspace.json".to_owned(),
        require_true_optimal: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--seed" => {
                let raw = value_of(args, &mut i, "--seed")?;
                options.seed =
                    raw.parse().map_err(|_| format!("--seed needs a number, got `{raw}`"))?
            }
            "--job-limit" => options.job_limit = count_of(args, &mut i, "--job-limit")?,
            "--random-count" => options.random_count = count_of(args, &mut i, "--random-count")?,
            "--max-rels" => options.max_rels = count_of(args, &mut i, "--max-rels")?.max(2),
            "--samples" => options.samples = count_of(args, &mut i, "--samples")?.max(1),
            "--quickpick" => options.quickpick = count_of(args, &mut i, "--quickpick")?.max(1),
            "--output" => options.output = value_of(args, &mut i, "--output")?,
            "--require-true-optimal" => options.require_true_optimal = true,
            "--data-dir" => return Err("unknown plangrid flag `--data-dir`".to_owned()),
            _ if options.context.take(args, &mut i)? => {}
            flag => return Err(format!("unknown plangrid flag `{flag}`")),
        }
        i += 1;
    }
    Ok(options)
}

pub(crate) fn run(options: Options) -> Result<ExitCode, String> {
    let (ctx, _) = obtain_context(&options.context)?;

    // The workload: small JOB queries plus seeded random queries over the
    // same FK graph — all bounded by --max-rels so the plan space stays
    // exhaustively enumerable by default.
    let mut queries: Vec<qob_plan::QuerySpec> = ctx
        .queries()
        .iter()
        .filter(|q| q.rel_count() <= options.max_rels)
        .take(options.job_limit)
        .cloned()
        .collect();
    if options.random_count > 0 {
        let generator_options = qob_plangrid::GeneratorOptions {
            min_relations: 2,
            max_relations: options.max_rels.min(6),
            ..Default::default()
        };
        let generated = qob_plangrid::generate_many(
            ctx.db(),
            &generator_options,
            options.random_count,
            options.seed,
            "rand",
        )
        .map_err(|e| format!("query generation failed: {e}"))?;
        for g in &generated {
            eprintln!("generated {}: {}", g.spec.name, g.sql.replace('\n', " "));
        }
        queries.extend(generated.into_iter().map(|g| g.spec));
    }
    if queries.is_empty() {
        return Err("no queries selected (raise --job-limit or --random-count)".to_owned());
    }

    let grid_options = qob_plangrid::GridOptions {
        seed: options.seed,
        space: qob_plangrid::PlanSpaceOptions {
            max_exhaustive_relations: options.max_rels,
            samples: options.samples,
            ..Default::default()
        },
        quickpick_runs: options.quickpick,
    };
    let started = Instant::now();
    let report =
        qob_plangrid::run_grid(&ctx, &queries, &grid_options).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();

    // The CI invariant: with perfect estimates, exhaustive DP provably
    // finds the optimum — every (true, *, dpccp) cell must be at 1.0.
    let true_dpccp_optimal = report
        .cells
        .iter()
        .filter(|c| c.estimator == "true" && c.enumerator == "dpccp")
        .all(|c| c.optimal_plan_ratio == 1.0);

    let spaces: Vec<Json> = report
        .spaces
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("query", Json::str(s.query.clone())),
                ("cost_model", Json::str(s.cost_model)),
                ("relations", Json::Num(s.relations as f64)),
                ("exhaustive", Json::Bool(s.exhaustive)),
                // u128 exceeds f64 precision; emit as a string.
                ("plan_count", Json::str(s.plan_count.to_string())),
                ("explored", Json::Num(s.explored as f64)),
            ])
        })
        .collect();
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("estimator", Json::str(c.estimator)),
                ("cost_model", Json::str(c.cost_model)),
                ("enumerator", Json::str(c.enumerator)),
                ("queries", Json::Num(c.queries as f64)),
                ("optimal_queries", Json::Num(c.optimal_queries as f64)),
                ("optimal_plan_ratio", Json::Num(round6(c.optimal_plan_ratio))),
                ("geo_mean_cost_ratio", Json::Num(round6(c.geo_mean_cost_ratio))),
                ("median_rank", Json::Num(round6(c.median_rank))),
                ("mean_subplan_optimality", Json::Num(round6(c.mean_subplan_optimality))),
            ])
        })
        .collect();
    let per_query: Vec<Json> = report
        .per_query
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("query", Json::str(c.query.clone())),
                ("estimator", Json::str(c.estimator)),
                ("cost_model", Json::str(c.cost_model)),
                ("enumerator", Json::str(c.enumerator)),
                ("cost_ratio", Json::Num(round6(c.cost_ratio))),
                ("rank", Json::Num(round6(c.rank))),
                ("subplan_optimality", Json::Num(round6(c.subplan_optimality))),
                ("optimal", Json::Bool(c.optimal)),
            ])
        })
        .collect();
    let out = Json::obj(vec![
        ("bench", Json::str("planspace")),
        ("seed", Json::Num(options.seed as f64)),
        ("scale_movies", Json::Num(ctx.scale().movies as f64)),
        ("indexes", Json::str(ctx.db().index_config().label())),
        ("max_rels", Json::Num(options.max_rels as f64)),
        ("queries", Json::Arr(queries.iter().map(|q| Json::str(q.name.clone())).collect())),
        ("true_dpccp_optimal", Json::Bool(true_dpccp_optimal)),
        ("spaces", Json::Arr(spaces)),
        ("cells", Json::Arr(cells)),
        ("per_query", Json::Arr(per_query)),
    ]);
    std::fs::write(&options.output, format!("{out}\n"))
        .map_err(|e| format!("cannot write `{}`: {e}", options.output))?;

    eprintln!(
        "plangrid: {} queries x {} estimators x 3 cost models x 4 enumerators in {:.3?} → {}",
        queries.len(),
        qob_plangrid::grid::estimator_names().len(),
        elapsed,
        options.output
    );
    for cell in report.cells.iter().filter(|c| c.cost_model == "cmm") {
        eprintln!(
            "  [{:>13} | {:>9}] optimal {:>5.1}% geo-ratio {:>8.2} median-rank {:.3} subplan {:.3}",
            cell.estimator,
            cell.enumerator,
            cell.optimal_plan_ratio * 100.0,
            cell.geo_mean_cost_ratio,
            cell.median_rank,
            cell.mean_subplan_optimality
        );
    }
    if options.require_true_optimal && !true_dpccp_optimal {
        return Err(
            "--require-true-optimal: dpccp under true cardinalities missed the optimum".to_owned()
        );
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::args;

    #[test]
    fn plangrid_flags_parse() {
        let options = parse_args(&args(&[
            "--seed",
            "7",
            "--job-limit",
            "2",
            "--random-count",
            "3",
            "--max-rels",
            "6",
            "--samples",
            "500",
            "--quickpick",
            "50",
            "--require-true-optimal",
            "--output",
            "out.json",
        ]))
        .unwrap();
        assert_eq!(options.seed, 7);
        assert_eq!(options.job_limit, 2);
        assert_eq!(options.random_count, 3);
        assert_eq!(options.max_rels, 6);
        assert_eq!(options.samples, 500);
        assert_eq!(options.quickpick, 50);
        assert!(options.require_true_optimal);
        assert_eq!(options.output, "out.json");

        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.seed, 0);
        assert_eq!(defaults.job_limit, 4);
        assert_eq!(defaults.random_count, 4);
        assert_eq!(defaults.max_rels, 8);
        assert_eq!(defaults.output, "BENCH_planspace.json");
        assert!(!defaults.require_true_optimal);

        assert!(parse_args(&args(&["--seed", "x"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert_eq!(parse_args(&args(&["--help"])).err().unwrap(), "");
    }
}
