#!/usr/bin/env bash
# Ingestion smoke: exercise the checked-in 21-table CSV fixture through
# `qob ingest`, then generate a tiny synthetic database, export it to CSV,
# ingest it back with a snapshot leg, and assert the summary tells the
# story docs/STORAGE.md claims: the encoded form is smaller than the plain
# layout, the snapshot round-trips every row and is byte-identical at 1
# and 4 ingest threads, a damaged snapshot is refused with a typed error,
# and the lazy point query faults in only a fraction of the snapshot file.
#
# CI runs this on every push; it checks behaviour, the measured numbers
# are `stored_bytes_per_row` / `storage.lazy_read_share` in benchmark/.
#
# Usage: scripts/ingest_smoke.sh [path-to-qob-binary]
set -euo pipefail

QOB=${1:-./target/release/qob}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
OUT=${QOB_INGEST_OUT:-$WORK/ingest.json}

# The fixture is tiny but exercises every parser edge (quoted commas,
# escaped quotes, embedded newlines, NULL vs "" fields, a .tsv file).
"$QOB" ingest tests/fixtures/imdb_csv --output "$WORK/fixture.json"
jq -e '.rows > 0 and (.tables | length) == 21' "$WORK/fixture.json"
jq -e '[.tables[] | select(.table == "title")][0].rows == 6' "$WORK/fixture.json"

# Tables ingest in parallel, each in record order: the snapshot must not
# depend on the thread count.
for threads in 1 4; do
  "$QOB" ingest tests/fixtures/imdb_csv --threads "$threads" \
    --snapshot "$WORK/fixture-$threads.qob" --output "$WORK/fixture-$threads.json"
  jq -e --argjson t "$threads" '.threads == $t' "$WORK/fixture-$threads.json"
done
cmp "$WORK/fixture-1.qob" "$WORK/fixture-4.qob"

# A damaged snapshot is a typed error, never a panic: flip the last byte
# (inside the pages blob, so only a page check can see it) and expect the
# load to fail with "corrupt snapshot".  The undamaged file answers.
QUERY='SELECT COUNT(*) FROM title t'
"$QOB" --snapshot "$WORK/fixture-1.qob" -e "$QUERY" > /dev/null 2>&1
size=$(wc -c < "$WORK/fixture-1.qob")
last=$(tail -c 1 "$WORK/fixture-1.qob" | od -An -tu1 | tr -d ' ')
head -c $((size - 1)) "$WORK/fixture-1.qob" > "$WORK/bad.qob"
printf "\\$(printf '%03o' $((last ^ 255)))" >> "$WORK/bad.qob"
if "$QOB" --snapshot "$WORK/bad.qob" -e "$QUERY" > /dev/null 2> "$WORK/bad.err"; then
  echo "a corrupt snapshot was accepted" >&2
  exit 1
fi
grep -q 'corrupt snapshot' "$WORK/bad.err" || { cat "$WORK/bad.err" >&2; exit 1; }
if grep -q panicked "$WORK/bad.err"; then
  cat "$WORK/bad.err" >&2
  exit 1
fi

# The measured run: generate → export CSV → ingest → snapshot → lazy probe.
"$QOB" ingest "$WORK/csv" --generate tiny \
  --snapshot "$WORK/db.qob" --output "$OUT"

jq -e '.bench == "ingest" and .rows > 1000' "$OUT"
jq -e '(.tables | length) == 21' "$OUT"
# Auto encoding must beat the plain layout on the synthetic IMDB data.
jq -e '.encoded_bytes > 0 and .encoded_bytes < .plain_bytes' "$OUT"
jq -e '.compression_ratio > 1' "$OUT"
# The snapshot leg: save + full reload round-tripped (the binary exits
# non-zero on row loss), and the lazy point query reads less than the file.
jq -e '.snapshot.file_bytes > 0' "$OUT"
jq -e '.snapshot.lazy_point_query_rows == 1' "$OUT"
jq -e '.snapshot.lazy_bytes_read < .snapshot.file_bytes' "$OUT"
jq -e '.snapshot.lazy_fraction_of_file < 0.5' "$OUT"

echo "ingest smoke OK"
