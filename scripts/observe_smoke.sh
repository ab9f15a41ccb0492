#!/usr/bin/env bash
# Observability smoke: start a warm server, run a fixed query mix (plain,
# traced, EXPLAIN ANALYZE, adaptive), scrape the metrics endpoint, assert
# the exposition parses and the counters — in the text body and in the
# response's JSON `summary` — match exactly what just ran.  A second
# server with a tiny --regression-ratio then forces the regression
# detector end-to-end, and its scheduler timeline exports as Chrome
# trace-event JSON (validated with jq).  CI runs this on every push; it
# checks behaviour, not speed (perf evidence: benchmark/README.md).
#
# Usage: scripts/observe_smoke.sh [path-to-qob-binary]
set -euo pipefail

QOB=${1:-./target/release/qob}
ADDR=${QOB_SMOKE_ADDR:-127.0.0.1:4549}
REG_ADDR=${QOB_SMOKE_REG_ADDR:-127.0.0.1:4550}
TRACE_OUT=observe-trace.json

SQL="SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
     WHERE mc.movie_id = t.id AND mc.company_id = cn.id
       AND cn.country_code = '[us]' AND t.production_year > 2000"
# The year filter makes the estimates diverge enough to re-plan at a 1.5x
# threshold (same query as the CI adaptive smoke).
ADAPT="SELECT MIN(t.title) FROM title t, movie_info mi, info_type it,
              cast_info ci, name n
       WHERE mi.movie_id = t.id AND mi.info_type_id = it.id
         AND ci.movie_id = t.id AND ci.person_id = n.id
         AND it.info = 'genres' AND t.production_year > 2005"

"$QOB" serve --addr "$ADDR" --threads 1 --plan-cache --slow-query-ms 10000 \
  > observe-serve.log 2>&1 &
SERVER_PID=$!
trap 'kill $SERVER_PID 2>/dev/null || true' EXIT
for i in $(seq 1 100); do
  "$QOB" connect --addr "$ADDR" --ping >/dev/null 2>&1 && break
  sleep 0.1
done

# Five warm runs populate the latency histograms and the plan cache...
for i in 1 2 3 4 5; do
  echo "$SQL" | "$QOB" connect --addr "$ADDR" > observe-run$i.out
done
grep -q '^plan cache: miss' observe-run1.out
grep -q '^plan cache: hit' observe-run5.out

# ...a traced session exposes phase spans and per-operator times...
echo "$SQL" | "$QOB" connect --addr "$ADDR" --set tracing=true > observe-traced.out
grep -q '^phases: parse' observe-traced.out
grep -Eq '^\{[^}]+\} +[0-9]+ +[0-9]+ +[0-9.]+x +[0-9]+us +[0-9]+$' observe-traced.out

# ...EXPLAIN ANALYZE annotates the plan tree with est vs true vs time...
echo "EXPLAIN ANALYZE $SQL" | "$QOB" connect --addr "$ADDR" > observe-analyze.out
for needle in 'est=' 'true=' 'q=' 'time=' 'morsels='; do
  grep -q "$needle" observe-analyze.out
done

# ...and an adaptive run fires re-plans into the counters and the
# structured event log on the server's stderr.
echo "$ADAPT" | "$QOB" connect --addr "$ADDR" \
  --set adaptive=true --set adaptive_threshold=1.5 > observe-adaptive.out
grep -Eq '^re-plan [0-9]+: after \{' observe-adaptive.out
grep -q '"event":"replan"' observe-serve.log

# The scrape validates the exposition client-side (qob connect --metrics
# refuses an unparseable body); the counters match the eight statements
# this script just ran, exactly.
"$QOB" connect --addr "$ADDR" --metrics > observe-metrics.txt
grep -q '^qob_queries_total 8$' observe-metrics.txt
grep -q '^qob_query_errors_total 0$' observe-metrics.txt
grep -q '^qob_execute_seconds_count 8$' observe-metrics.txt
grep -q '^qob_plan_cache_misses_total 2$' observe-metrics.txt
grep -q '^# TYPE qob_query_seconds histogram$' observe-metrics.txt
REPLANS=$(grep '^qob_replans_total ' observe-metrics.txt | grep -o '[0-9]*$')
test "$REPLANS" -ge 1

# The same scrape as JSON: the `summary` object `qob top` reads.
"$QOB" connect --addr "$ADDR" --metrics --json > observe-metrics.json
jq -e '.summary.queries_total == 8' observe-metrics.json
jq -e '.summary | has("query_p50_us") and has("query_p99_us")
                  and has("plan_cache_hits") and has("replans_total")' observe-metrics.json

# The per-fingerprint history mirrors the statement mix exactly: the main
# query ran 7 times under one structural fingerprint (5 warm + 1 traced +
# 1 EXPLAIN ANALYZE — literals and tracing don't change the fingerprint),
# the adaptive query once, and the pure EXPLAIN never recorded.
"$QOB" connect --addr "$ADDR" --history > observe-history.json
jq -e '.recorded == 8' observe-history.json
jq -e '.fingerprints | length == 2' observe-history.json
jq -e '.fingerprints[0].count == 7 and .fingerprints[1].count == 1' observe-history.json
jq -e '.fingerprints[0].p50_us > 0 and .fingerprints[0].p99_us >= .fingerprints[0].p50_us' \
  observe-history.json
jq -e '.fingerprints[0].fingerprint | test("^[0-9a-f]{16}$")' observe-history.json
jq -e '.regressions == []' observe-history.json
# `--history 1` caps the list without touching the totals.
"$QOB" connect --addr "$ADDR" --history 1 > observe-history-top.json
jq -e '(.fingerprints | length == 1) and .recorded == 8' observe-history-top.json

"$QOB" connect --addr "$ADDR" --shutdown
wait $SERVER_PID
trap - EXIT

# --- Regression + trace leg: a second server with a 0.01x regression
# threshold (any recent median "exceeds" 1% of baseline, so a flat series
# fires deterministically once the windows fill) and a 2-worker pool with
# small morsels (so pipeline spans land on both pool workers).
# --slow-query-ms switches the structured event log on (the 10s threshold
# keeps slow_query events themselves out of the way).
"$QOB" serve --addr "$REG_ADDR" --workers 2 --morsel-size 16 \
  --regression-ratio 0.01 --slow-query-ms 10000 > regress-serve.log 2>&1 &
REG_PID=$!
trap 'kill $REG_PID 2>/dev/null || true' EXIT
for i in $(seq 1 100); do
  "$QOB" connect --addr "$REG_ADDR" --ping >/dev/null 2>&1 && break
  sleep 0.1
done

# Baseline window (8) + recent window (4) = 12 samples arm and fire the
# detector exactly once (it latches per fingerprint).
for i in $(seq 1 12); do
  echo "$SQL" | "$QOB" connect --addr "$REG_ADDR" >/dev/null
done
grep -q '"event":"regression"' regress-serve.log
"$QOB" connect --addr "$REG_ADDR" --metrics > regress-metrics.txt
grep -q '^qob_regressions_total 1$' regress-metrics.txt
"$QOB" connect --addr "$REG_ADDR" --history > regress-history.json
jq -e '.regressions | length == 1' regress-history.json
jq -e '.fingerprints[0].regressions == 1' regress-history.json
jq -e '.regressions[0].factor > 0.01 and .regressions[0].ratio == 0.01' regress-history.json

# The Chrome trace export is a plain JSON array of structurally complete
# events (about://tracing and Perfetto both load it): every event carries
# ph/ts/pid/tid/name, both pool workers announce themselves, and the
# pipeline spans cover more than one thread.
"$QOB" connect --addr "$REG_ADDR" --trace-out "$TRACE_OUT"
jq -e 'type == "array" and length > 0' "$TRACE_OUT"
jq -e 'all(.[]; has("ph") and has("ts") and has("pid") and has("tid") and has("name"))' \
  "$TRACE_OUT"
jq -e '[.[] | select(.ph == "M" and .name == "thread_name")] | length >= 2' "$TRACE_OUT"
jq -e '[.[] | select(.ph == "X")] | length > 0' "$TRACE_OUT"
jq -e '[.[] | select(.ph == "X") | .tid] | unique | length >= 2' "$TRACE_OUT"

"$QOB" connect --addr "$REG_ADDR" --shutdown
wait $REG_PID
trap - EXIT
rm -f observe-serve.log observe-run[1-5].out observe-traced.out \
  observe-analyze.out observe-adaptive.out observe-metrics.txt \
  observe-metrics.json observe-history.json observe-history-top.json \
  regress-serve.log regress-metrics.txt regress-history.json "$TRACE_OUT"
echo "observe smoke OK"
