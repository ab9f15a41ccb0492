//! The synthetic IMDB-like database generator.
//!
//! Generates all 21 tables of the IMDB schema used by the Join Order
//! Benchmark, at a configurable scale, with the statistical pathologies the
//! paper attributes to the real data set: skewed value distributions,
//! correlated attributes and skewed foreign-key fan-out.  See the crate-level
//! documentation of [`crate`] and `DESIGN.md` for the substitution argument.

pub mod core_tables;
pub mod fact_tables;
pub mod vocab;

use rand::Rng;

use qob_storage::{ColumnMeta, DataType, Database, Result, StorageError, TableSchema};

use crate::rng::{chance, stream_rng, weighted_choice, Zipf};
use crate::scale::Scale;

/// Latent per-movie attributes shared by all fact-table generators.
///
/// These latent variables are what create the *join-crossing correlations*:
/// the same `region`/`popularity` values drive `company_name.country_code`,
/// `movie_info` languages and `movie_info_idx` rating availability.
#[derive(Debug, Clone)]
pub struct MovieProfile {
    /// Index into [`vocab::MOVIE_KINDS`].
    pub kind: usize,
    /// Production year (None for ~6% of movies).
    pub year: Option<i64>,
    /// Index into [`vocab::REGIONS`].
    pub region: usize,
    /// Primary genre: index into [`vocab::GENRES`].
    pub genre: usize,
    /// Popularity score in `[0, 1]`; 1 is the most popular movie.
    pub popularity: f64,
    /// Whether a rating row exists in `movie_info_idx`.
    pub has_rating: bool,
    /// Rating multiplied by 10 (e.g. 72 = "7.2").
    pub rating_x10: i64,
    /// Vote count.
    pub votes: i64,
}

/// Latent per-person attributes.
#[derive(Debug, Clone)]
pub struct PersonProfile {
    /// 'm', 'f' or None.
    pub gender: Option<&'static str>,
    /// Index into [`vocab::REGIONS`]; people mostly act in movies of their
    /// own region, another join-crossing correlation.
    pub region: usize,
}

/// Latent per-company attributes.
#[derive(Debug, Clone)]
pub struct CompanyProfile {
    /// Index into [`vocab::REGIONS`].
    pub region: usize,
    /// Index into [`vocab::COMPANY_TYPES`] this company most often acts as.
    pub preferred_type: usize,
}

/// All latent profiles generated before the tables themselves.
#[derive(Debug)]
pub struct Profiles {
    /// One profile per `title` row.
    pub movies: Vec<MovieProfile>,
    /// One profile per `name` row.
    pub people: Vec<PersonProfile>,
    /// One profile per `company_name` row.
    pub companies: Vec<CompanyProfile>,
}

impl Profiles {
    /// Generates the latent profiles for the given scale.
    pub fn generate(scale: &Scale) -> Profiles {
        Profiles {
            movies: generate_movie_profiles(scale),
            people: generate_person_profiles(scale),
            companies: generate_company_profiles(scale),
        }
    }
}

fn region_weights() -> Vec<u32> {
    vocab::REGIONS.iter().map(|(_, _, _, w)| *w).collect()
}

fn generate_movie_profiles(scale: &Scale) -> Vec<MovieProfile> {
    let mut rng = stream_rng(scale.seed, "movie-profiles");
    let n = scale.movies;
    let kind_weights: Vec<u32> = vocab::MOVIE_KINDS.iter().map(|(_, w)| *w).collect();
    let genre_weights: Vec<u32> = vocab::GENRES.iter().map(|(_, w)| *w).collect();
    let regions = region_weights();
    // Popularity: a random permutation of zipf ranks so that movie ids do not
    // encode popularity.
    let zipf = Zipf::new(n.max(1), 0.9);
    let mut profiles = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = zipf.sample(&mut rng);
        // Popularity score in [0,1]; rank 0 -> 1.0, decays with rank.
        let popularity = 1.0 / (1.0 + rank as f64).powf(0.45);
        let kind = weighted_choice(&mut rng, &kind_weights);
        let region = weighted_choice(&mut rng, &regions);
        let genre = weighted_choice(&mut rng, &genre_weights);
        // Years skew recent; 'episode' and 'video game' kinds skew even more
        // recent (correlation between kind and production year).
        let year = if chance(&mut rng, 0.06) {
            None
        } else {
            let base: i64 = if matches!(vocab::MOVIE_KINDS[kind].0, "episode" | "video game") {
                1990
            } else if chance(&mut rng, 0.68) {
                1985
            } else {
                1925
            };
            let span = 2013 - base;
            // Quadratic skew toward the end of the span (recent years).
            let u: f64 = rng.gen::<f64>();
            Some(base + (u.sqrt() * span as f64) as i64)
        };
        let recent = year.map(|y| y >= 1990).unwrap_or(false);
        let has_rating = chance(
            &mut rng,
            (0.22 + 0.55 * popularity + if recent { 0.12 } else { 0.0 }).min(0.95),
        );
        let genre_bonus: i64 = match vocab::GENRES[genre].0 {
            "Drama" | "Biography" | "Documentary" => 6,
            "Horror" => -8,
            "Comedy" => -2,
            _ => 0,
        };
        let rating_x10 = (48.0 + 28.0 * popularity + rng.gen_range(-8.0..8.0)) as i64 + genre_bonus;
        let rating_x10 = rating_x10.clamp(10, 98);
        let votes = (10.0_f64.powf(1.2 + 3.3 * popularity) * rng.gen_range(0.5..1.5)) as i64 + 5;
        profiles.push(MovieProfile {
            kind,
            year,
            region,
            genre,
            popularity,
            has_rating,
            rating_x10,
            votes,
        });
    }
    profiles
}

fn generate_person_profiles(scale: &Scale) -> Vec<PersonProfile> {
    let mut rng = stream_rng(scale.seed, "person-profiles");
    let regions = region_weights();
    (0..scale.people())
        .map(|_| {
            let gender = if chance(&mut rng, 0.58) {
                Some("m")
            } else if chance(&mut rng, 0.88) {
                Some("f")
            } else {
                None
            };
            PersonProfile { gender, region: weighted_choice(&mut rng, &regions) }
        })
        .collect()
}

fn generate_company_profiles(scale: &Scale) -> Vec<CompanyProfile> {
    let mut rng = stream_rng(scale.seed, "company-profiles");
    let regions = region_weights();
    (0..scale.companies())
        .map(|_| {
            // Most companies act as production companies or distributors.
            let preferred_type = weighted_choice(&mut rng, &[30, 52, 6, 12]);
            CompanyProfile { region: weighted_choice(&mut rng, &regions), preferred_type }
        })
        .collect()
}

/// Generates the complete synthetic IMDB database (21 tables) with key
/// declarations; indexes are *not* built — the caller picks an
/// [`qob_storage::IndexConfig`] and calls [`Database::build_indexes`].
pub fn generate_imdb(scale: &Scale) -> Result<Database> {
    let profiles = Profiles::generate(scale);
    let mut db = Database::new();

    // Dimension tables.
    db.add_table(core_tables::kind_type_table())?;
    db.add_table(core_tables::info_type_table())?;
    db.add_table(core_tables::company_type_table())?;
    db.add_table(core_tables::role_type_table())?;
    db.add_table(core_tables::link_type_table())?;
    db.add_table(core_tables::comp_cast_type_table())?;

    // Entity tables.
    db.add_table(core_tables::title_table(scale, &profiles.movies))?;
    db.add_table(core_tables::name_table(scale, &profiles.people))?;
    db.add_table(core_tables::char_name_table(scale))?;
    db.add_table(core_tables::company_name_table(scale, &profiles.companies))?;
    db.add_table(core_tables::keyword_table(scale))?;
    db.add_table(core_tables::aka_name_table(scale, &profiles.people))?;
    db.add_table(core_tables::aka_title_table(scale, &profiles.movies))?;

    // Fact / bridge tables.
    db.add_table(fact_tables::movie_companies_table(scale, &profiles))?;
    db.add_table(fact_tables::movie_info_table(scale, &profiles.movies))?;
    db.add_table(fact_tables::movie_info_idx_table(scale, &profiles.movies))?;
    db.add_table(fact_tables::movie_keyword_table(scale, &profiles.movies))?;
    db.add_table(fact_tables::cast_info_table(scale, &profiles))?;
    db.add_table(fact_tables::person_info_table(scale, &profiles.people))?;
    db.add_table(fact_tables::complete_cast_table(scale, &profiles.movies))?;
    db.add_table(fact_tables::movie_link_table(scale, &profiles.movies))?;

    declare_imdb_keys(&mut db)?;
    Ok(db)
}

/// The JOB foreign-key join edges as `(table, column, referenced table)`.
const IMDB_FOREIGN_KEYS: &[(&str, &str, &str)] = &[
    ("title", "kind_id", "kind_type"),
    ("aka_name", "person_id", "name"),
    ("aka_title", "movie_id", "title"),
    ("aka_title", "kind_id", "kind_type"),
    ("movie_companies", "movie_id", "title"),
    ("movie_companies", "company_id", "company_name"),
    ("movie_companies", "company_type_id", "company_type"),
    ("movie_info", "movie_id", "title"),
    ("movie_info", "info_type_id", "info_type"),
    ("movie_info_idx", "movie_id", "title"),
    ("movie_info_idx", "info_type_id", "info_type"),
    ("movie_keyword", "movie_id", "title"),
    ("movie_keyword", "keyword_id", "keyword"),
    ("cast_info", "movie_id", "title"),
    ("cast_info", "person_id", "name"),
    ("cast_info", "person_role_id", "char_name"),
    ("cast_info", "role_id", "role_type"),
    ("person_info", "person_id", "name"),
    ("person_info", "info_type_id", "info_type"),
    ("complete_cast", "movie_id", "title"),
    ("complete_cast", "subject_id", "comp_cast_type"),
    ("complete_cast", "status_id", "comp_cast_type"),
    ("movie_link", "movie_id", "title"),
    ("movie_link", "linked_movie_id", "title"),
    ("movie_link", "link_type_id", "link_type"),
];

/// Declares the IMDB primary keys (surrogate `id` on every table) and the
/// JOB foreign-key edges on `db`, whose tables may come from the generator
/// *or* from CSV ingestion — any database whose tables match
/// [`imdb_schema`].
pub fn declare_imdb_keys(db: &mut Database) -> Result<()> {
    let tid = |db: &Database, name: &str| {
        db.table_id(name).ok_or_else(|| StorageError::UnknownTable(name.to_owned()))
    };
    for schema in imdb_schema() {
        let t = tid(db, &schema.name)?;
        db.declare_primary_key(t, "id")?;
    }
    for &(table, column, referenced) in IMDB_FOREIGN_KEYS {
        let t = tid(db, table)?;
        let r = tid(db, referenced)?;
        db.declare_foreign_key(t, column, r)?;
    }
    Ok(())
}

/// The schemas of all 21 IMDB tables in generation order, for ingesting a
/// CSV export of the database (`qob ingest`).  Column order matches the
/// generator exactly; a test pins the two in sync.
pub fn imdb_schema() -> Vec<TableSchema> {
    let int = |n: &str| ColumnMeta::new(n, DataType::Int);
    let str_ = |n: &str| ColumnMeta::new(n, DataType::Str);
    vec![
        TableSchema::new("kind_type", vec![int("id"), str_("kind")]),
        TableSchema::new("info_type", vec![int("id"), str_("info")]),
        TableSchema::new("company_type", vec![int("id"), str_("kind")]),
        TableSchema::new("role_type", vec![int("id"), str_("role")]),
        TableSchema::new("link_type", vec![int("id"), str_("link")]),
        TableSchema::new("comp_cast_type", vec![int("id"), str_("kind")]),
        TableSchema::new(
            "title",
            vec![
                int("id"),
                str_("title"),
                int("kind_id"),
                int("production_year"),
                int("episode_of_id"),
                int("season_nr"),
                str_("imdb_index"),
            ],
        ),
        TableSchema::new(
            "name",
            vec![
                int("id"),
                str_("name"),
                str_("gender"),
                str_("imdb_index"),
                str_("name_pcode_cf"),
            ],
        ),
        TableSchema::new("char_name", vec![int("id"), str_("name")]),
        TableSchema::new("company_name", vec![int("id"), str_("name"), str_("country_code")]),
        TableSchema::new("keyword", vec![int("id"), str_("keyword"), str_("phonetic_code")]),
        TableSchema::new("aka_name", vec![int("id"), int("person_id"), str_("name")]),
        TableSchema::new(
            "aka_title",
            vec![int("id"), int("movie_id"), str_("title"), int("kind_id")],
        ),
        TableSchema::new(
            "movie_companies",
            vec![
                int("id"),
                int("movie_id"),
                int("company_id"),
                int("company_type_id"),
                str_("note"),
            ],
        ),
        TableSchema::new(
            "movie_info",
            vec![int("id"), int("movie_id"), int("info_type_id"), str_("info"), str_("note")],
        ),
        TableSchema::new(
            "movie_info_idx",
            vec![int("id"), int("movie_id"), int("info_type_id"), str_("info")],
        ),
        TableSchema::new("movie_keyword", vec![int("id"), int("movie_id"), int("keyword_id")]),
        TableSchema::new(
            "cast_info",
            vec![
                int("id"),
                int("person_id"),
                int("movie_id"),
                int("person_role_id"),
                str_("note"),
                int("nr_order"),
                int("role_id"),
            ],
        ),
        TableSchema::new(
            "person_info",
            vec![int("id"), int("person_id"), int("info_type_id"), str_("info"), str_("note")],
        ),
        TableSchema::new(
            "complete_cast",
            vec![int("id"), int("movie_id"), int("subject_id"), int("status_id")],
        ),
        TableSchema::new(
            "movie_link",
            vec![int("id"), int("movie_id"), int("linked_movie_id"), int("link_type_id")],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_sizes_and_ranges() {
        let scale = Scale::tiny();
        let p = Profiles::generate(&scale);
        assert_eq!(p.movies.len(), scale.movies);
        assert_eq!(p.people.len(), scale.people());
        assert_eq!(p.companies.len(), scale.companies());
        for m in &p.movies {
            assert!(m.kind < vocab::MOVIE_KINDS.len());
            assert!(m.region < vocab::REGIONS.len());
            assert!(m.genre < vocab::GENRES.len());
            assert!(m.popularity > 0.0 && m.popularity <= 1.0);
            assert!(m.rating_x10 >= 10 && m.rating_x10 <= 98);
            assert!(m.votes > 0);
            if let Some(y) = m.year {
                assert!((1925..=2013).contains(&y));
            }
        }
    }

    #[test]
    fn profiles_are_deterministic() {
        let scale = Scale::tiny();
        let a = Profiles::generate(&scale);
        let b = Profiles::generate(&scale);
        assert_eq!(a.movies.len(), b.movies.len());
        for (x, y) in a.movies.iter().zip(&b.movies) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.year, y.year);
            assert_eq!(x.votes, y.votes);
        }
        let c = Profiles::generate(&scale.with_seed(7));
        let same = a
            .movies
            .iter()
            .zip(&c.movies)
            .filter(|(x, y)| x.year == y.year && x.kind == y.kind)
            .count();
        assert!(same < a.movies.len(), "different seed should change profiles");
    }

    #[test]
    fn movie_years_skew_recent() {
        let p = Profiles::generate(&Scale::small());
        let years: Vec<i64> = p.movies.iter().filter_map(|m| m.year).collect();
        let recent = years.iter().filter(|&&y| y >= 1990).count();
        assert!(
            recent as f64 > years.len() as f64 * 0.5,
            "more than half of the movies should be from 1990+, got {recent}/{}",
            years.len()
        );
    }

    #[test]
    fn popularity_correlates_with_rating_availability() {
        let p = Profiles::generate(&Scale::small());
        let (mut pop_with, mut pop_total, mut unpop_with, mut unpop_total) = (0, 0, 0, 0);
        for m in &p.movies {
            if m.popularity > 0.5 {
                pop_total += 1;
                if m.has_rating {
                    pop_with += 1;
                }
            } else {
                unpop_total += 1;
                if m.has_rating {
                    unpop_with += 1;
                }
            }
        }
        let pop_rate = pop_with as f64 / pop_total.max(1) as f64;
        let unpop_rate = unpop_with as f64 / unpop_total.max(1) as f64;
        assert!(
            pop_rate > unpop_rate,
            "popular movies should be rated more often ({pop_rate:.2} vs {unpop_rate:.2})"
        );
    }

    #[test]
    fn imdb_schema_matches_the_generator_exactly() {
        // `qob ingest` trusts `imdb_schema()` for names, column order and
        // types; this pins it to what the generator actually emits.
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let schemas = imdb_schema();
        assert_eq!(schemas.len(), db.table_count());
        for schema in &schemas {
            let table = db
                .table_by_name(&schema.name)
                .unwrap_or_else(|| panic!("generator lacks table {}", schema.name));
            assert_eq!(
                table.schema(),
                schema.columns.as_slice(),
                "schema drift in `{}`",
                schema.name
            );
        }
    }

    #[test]
    fn declared_keys_match_by_name_and_by_id() {
        // declare_imdb_keys on an ingested-style database (same tables, added
        // fresh) must reproduce the generator's key declarations.
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let mut rebuilt = Database::new();
        for (_, t) in db.tables() {
            rebuilt.add_table(t.clone()).unwrap();
        }
        declare_imdb_keys(&mut rebuilt).unwrap();
        for (tid, t) in db.tables() {
            let rid = rebuilt.table_id(t.name()).unwrap();
            assert_eq!(db.keys(tid).primary_key, rebuilt.keys(rid).primary_key);
            assert_eq!(db.keys(tid).foreign_keys.len(), rebuilt.keys(rid).foreign_keys.len());
        }
    }

    #[test]
    fn generate_imdb_produces_all_21_tables() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        assert_eq!(db.table_count(), 21);
        for name in [
            "kind_type",
            "info_type",
            "company_type",
            "role_type",
            "link_type",
            "comp_cast_type",
            "title",
            "name",
            "char_name",
            "company_name",
            "keyword",
            "aka_name",
            "aka_title",
            "movie_companies",
            "movie_info",
            "movie_info_idx",
            "movie_keyword",
            "cast_info",
            "person_info",
            "complete_cast",
            "movie_link",
        ] {
            let tid = db.table_id(name).unwrap_or_else(|| panic!("missing table {name}"));
            assert!(db.keys(tid).primary_key.is_some(), "{name} has a primary key");
        }
        // Fact tables declare foreign keys.
        let ci = db.table_id("cast_info").unwrap();
        assert_eq!(db.keys(ci).foreign_keys.len(), 4);
        assert!(db.total_rows() > db.table_by_name("title").unwrap().row_count() * 5);
    }
}
