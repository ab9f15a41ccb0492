#!/usr/bin/env bash
# Smoke-checks the benchmark itself: builds it, runs every workload at the
# small scale (2 000 movies, 1 s each) untraced and traced, and fails unless
# the output names every metric x workload that BENCHMARK.json promises, with
# finite values and no failed statement.  Takes about half a minute once
# built.  The JSON documents go to standard output, problems to standard error.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke "$@"
