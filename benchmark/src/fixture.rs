//! The fixture: the synthetic IMDB database at a pinned scale and seed,
//! exported to CSV — the on-disk input every set-up starts from.
//!
//! The fixture does not depend on `--seed`.  The seed draws *ops* from a
//! pinned domain; the database under them is the same in every run, which is
//! what lets answers be pinned, keeps `plan_cost_geomean` and
//! `stored_bytes_per_row` exact, and keeps runs of different seeds comparable.
//! A checksum over the exported bytes guards the pin: if the generator or the
//! CSV writer changes, numbers stop being comparable and the run fails as
//! input drift instead of reporting them.

use std::io::Read;
use std::path::Path;
use std::time::{Duration, Instant};

use qob_core::BenchmarkContext;
use qob_datagen::Scale;
use qob_storage::IndexConfig;

use crate::ops::FixtureScale;

/// The generator seed of the fixture (the generator's own default).
const FIXTURE_SEED: u64 = 42;

/// The physical design every workload runs on: primary- and foreign-key
/// indexes, the paper's second configuration — `wire_hot`'s point lookups need
/// the foreign-key indexes, and one design keeps set-up comparable.
pub const INDEXES: IndexConfig = IndexConfig::PrimaryAndForeignKey;

/// A generated and exported fixture.
pub struct Fixture {
    /// FNV-1a 64 over the exported CSV files (names and bytes, name order).
    pub fnv: u64,
    /// Rows across all 21 tables.
    pub rows: usize,
    /// Time to generate and export — input generation, not a metric.
    pub elapsed: Duration,
}

/// Generates the fixture at `scale` and exports it as CSV files into `dir`.
pub fn generate(scale: FixtureScale, dir: &Path) -> Result<Fixture, String> {
    let started = Instant::now();
    let datagen_scale = Scale::with_movies(scale.movies()).with_seed(FIXTURE_SEED);
    let db = qob_datagen::generate_imdb(&datagen_scale).map_err(|e| format!("datagen: {e}"))?;
    qob_storage::export_csv_dir(&db, dir).map_err(|e| format!("csv export: {e}"))?;
    let rows = db.total_rows();
    drop(db);
    let fnv = checksum_dir(dir)?;
    Ok(Fixture { fnv, rows, elapsed: started.elapsed() })
}

/// Fails with an "input drift" error unless the fixture matches the checksum
/// the pinned answers were computed for.
pub fn check_pinned(
    fixture: &Fixture,
    expected_fnv: u64,
    domain_file: &Path,
) -> Result<(), String> {
    if fixture.fnv == expected_fnv {
        return Ok(());
    }
    Err(format!(
        "input drift: the generated fixture hashes to {:016x} but `{}` was pinned for {:016x}. \
         The data generator or CSV writer changed, so numbers are no longer comparable with \
         earlier runs; re-pin with --bless in a change of its own and re-measure the baseline.",
        fixture.fnv,
        domain_file.display(),
        expected_fnv
    ))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for byte in bytes {
        hash = (hash ^ u64::from(*byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a 64 over every file of `dir` in file-name order: each name, then
/// each file's bytes.
pub fn checksum_dir(dir: &Path) -> Result<u64, String> {
    let io = |e: std::io::Error| format!("checksumming `{}`: {e}", dir.display());
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(io)?
        .map(|entry| entry.map(|e| e.file_name()))
        .collect::<Result<_, _>>()
        .map_err(io)?;
    names.sort();
    let mut hash = FNV_OFFSET;
    let mut buffer = vec![0u8; 1 << 16];
    for name in names {
        hash = fnv1a(hash, name.as_encoded_bytes());
        let mut file = std::fs::File::open(dir.join(&name)).map_err(io)?;
        loop {
            let n = file.read(&mut buffer).map_err(io)?;
            if n == 0 {
                break;
            }
            hash = fnv1a(hash, &buffer[..n]);
        }
    }
    Ok(hash)
}

/// Ingests the fixture's CSV files through the same facade `qob ingest` uses:
/// parse, encode, declare keys, build indexes, ANALYZE.
pub fn ingest(csv_dir: &Path, threads: usize) -> Result<BenchmarkContext, String> {
    BenchmarkContext::ingest_csv_dir(csv_dir, INDEXES, threads)
        .map(|(ctx, _report)| ctx)
        .map_err(|e| format!("ingest: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn checksum_sees_names_bytes_and_order() {
        let dir = std::env::temp_dir().join(format!("qob-benchmark-fnv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.csv"), "1,2\n").unwrap();
        std::fs::write(dir.join("b.csv"), "3\n").unwrap();
        let first = checksum_dir(&dir).unwrap();
        assert_eq!(first, checksum_dir(&dir).unwrap());
        std::fs::write(dir.join("b.csv"), "4\n").unwrap();
        assert_ne!(first, checksum_dir(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
