//! # qob-datagen
//!
//! Deterministic synthetic data generators for the JOB reproduction.
//!
//! The original paper loads a May-2013 snapshot of the IMDB data set
//! (3.6 GB of CSV, 21 tables).  That data cannot be redistributed here, so
//! this crate generates a *synthetic stand-in with the same schema and the
//! same statistical pathologies* the paper attributes to IMDB:
//!
//! * non-uniform value distributions (zipfian popularity of movies, skewed
//!   production years, a handful of dominant genres/countries/companies),
//! * correlated attributes within tables (production year ↔ kind, rating
//!   availability ↔ popularity),
//! * join-crossing correlations (companies of a region produce movies with
//!   that region's language/country info; popular movies attract more cast,
//!   keywords and info rows),
//! * skewed foreign-key fan-out (a few movies have hundreds of cast entries,
//!   most have a handful).
//!
//! A second generator produces a TPC-H-like database whose columns are
//! uniform and independent — exactly the property the paper exploits in
//! Figure 4 to show that synthetic benchmarks are too easy for cardinality
//! estimators.
//!
//! All generators are deterministic: the same [`Scale`] always produces the
//! same database.

pub mod imdb;
pub mod rng;
pub mod scale;
pub mod tpch;

pub use imdb::{declare_imdb_keys, generate_imdb, imdb_schema};
pub use scale::Scale;
pub use tpch::generate_tpch;
