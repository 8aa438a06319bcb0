#!/usr/bin/env bash
# Fitness-engine benchmark smoke run.
#
# Runs the `fitness` group of crates/bench/benches/emts_generation.rs —
# pre-engine baseline vs the zero-allocation grouped-core engine paths on
# the paper's hard case (irregular n=100 DAGGEN on Grelon, P=120, one
# generation-sized batch of λ=25) — and writes BENCH_fitness.json at the
# repo root with per-evaluation medians and the memo-cache statistics of a
# real EMTS10 run. Also writes BENCH_fitness_report.json, the telemetry
# RunReport (phase spans, counters, histograms) of that EMTS10 run —
# inspect it with `cargo run --bin emts-report -- show BENCH_fitness_report.json`.
# The bench additionally asserts the no-op recorder adds <1% overhead to
# the serial fitness path (NOOP_OVERHEAD line) and that the live flight
# recorder stays within its mapper-loop budget (TRACE_OVERHEAD line).
#
# Also runs the streaming harness (`emts-stream`, 100k DAGGEN PTGs
# generated and scheduled on the fly, single-core) and writes its result —
# honest end-to-end PTGs/sec plus an isolated fitness-core probe
# (ns/eval, ns per heap pop) — to BENCH_throughput.json.
#
# Observability cost lands in BENCH_obs.json (`emts-obsbench`): recorder
# overhead on the mapper loop, flight-recorder events/sec, and the exact
# drop rate at ring capacity. `emts-report regress` diffs every fresh
# BENCH_*.json against the committed baseline in scripts/ci.sh.
#
# Usage: scripts/bench_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

BATCH=25
OUT=BENCH_fitness.json
REPORT=BENCH_fitness_report.json
THROUGHPUT_OUT=BENCH_throughput.json
STREAM_COUNT=100000
LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

echo "== streaming throughput: $STREAM_COUNT DAGGEN PTGs end-to-end, single core"
cargo build -q --offline --release -p bench --bin emts-stream
target/release/emts-stream --count "$STREAM_COUNT" --seed 2011 --quiet \
    --out "$THROUGHPUT_OUT"
echo "wrote $THROUGHPUT_OUT:"
cat "$THROUGHPUT_OUT"

echo "== observability cost: recorder overhead, event throughput, drop accounting"
OBS_OUT=BENCH_obs.json
cargo build -q --offline --release -p bench --bin emts-obsbench
target/release/emts-obsbench --rounds 40 --out "$OBS_OUT"
echo "wrote $OBS_OUT:"
cat "$OBS_OUT"

echo "== robustness smoke: fault-injected p95 degradation per workload"
FAULT_SPEC="seed=2011,perturb=0.2,straggler_prob=0.05,straggler_factor=4,crash=0.05,retries=3,backoff=0.5,procfail=0.02"
robust_p95() {
    cargo run -q --offline --release -p sim --bin emts-sim -- \
        --platform data/chti.platform --ptg "data/$1.ptg" --algorithm mcpa \
        --faults "$FAULT_SPEC" --trials 20 --json \
        | awk -F': ' '/"p95_degradation"/ { gsub(/,/, "", $2); print $2 }'
}
P95_FFT=$(robust_p95 fft16)
P95_IRR=$(robust_p95 irregular_n50)
echo "p95 degradation: fft16=${P95_FFT}x irregular_n50=${P95_IRR}x"

echo "== online smoke: rolling-horizon vs reactive-only under churn"
ONLINE_OUT=BENCH_online.json
ONLINE_CHURN="fail_every=200,repair_after=120,spares=1,join_every=500"
ONLINE_ARGS="--platform data/chti.platform --online --jobs 6 --seed 2011 \
    --arrival-mean 40 --epoch 60 --epoch-budget-ms 5000 --churn $ONLINE_CHURN --json"
ONLINE_ROLLING=$(mktemp) ONLINE_REACTIVE=$(mktemp)
cargo run -q --offline --release -p sim --bin emts-sim -- $ONLINE_ARGS \
    > "$ONLINE_ROLLING"
cargo run -q --offline --release -p sim --bin emts-sim -- $ONLINE_ARGS --reactive-only \
    > "$ONLINE_REACTIVE"
# Every decision epoch must have met its budget, in both modes.
for MODE_FILE in "$ONLINE_ROLLING" "$ONLINE_REACTIVE"; do
    grep -q '"deadline_overruns": 0' "$MODE_FILE" \
        || { echo "online benchmark: a decision epoch overran its budget" >&2; exit 1; }
done
online_block() {
    awk -F': ' '
        function val(s) { s = $2; gsub(/,/, "", s); return s }
        /"makespan"/          { mk = val() }
        /"queue_wait_mean"/   { qw = val() }
        /"stretch_mean"/      { sm = val() }
        /"stretch_p95"/       { sp = val() }
        /"utilization"/       { ut = val() }
        /"slo_attainment"/    { slo = val() }
        /"deadline_overruns"/ { ov = val() }
        /"watchdog_degraded"/ { wd = val() }
        /"ring0_epochs"/      { r0 = val() }
        /"ring1_epochs"/      { r1 = val() }
        /"ring2_epochs"/      { r2 = val() }
        /"reactive_replans"/  { rr = val() }
        /"tasks_killed"/      { tk = val() }
        END {
            printf "    \"makespan\": %s,\n", mk
            printf "    \"queue_wait_mean\": %s,\n", qw
            printf "    \"stretch_mean\": %s,\n", sm
            printf "    \"stretch_p95\": %s,\n", sp
            printf "    \"utilization\": %s,\n", ut
            printf "    \"slo_attainment\": %s,\n", slo
            printf "    \"deadline_overruns\": %s,\n", ov
            printf "    \"watchdog_degraded\": %s,\n", wd
            printf "    \"ring_epochs\": [%s, %s, %s],\n", r0, r1, r2
            printf "    \"reactive_replans\": %s,\n", rr
            printf "    \"tasks_killed\": %s\n", tk
        }' "$1"
}
{
    printf '{\n'
    printf '  "workload": "6 streamed DAGGEN jobs on chti (P=20, +1 spare), epoch 60 s, budget 5 s",\n'
    printf '  "seed": 2011,\n'
    printf '  "churn": "%s",\n' "$ONLINE_CHURN"
    printf '  "rolling": {\n';  online_block "$ONLINE_ROLLING";  printf '  },\n'
    printf '  "reactive": {\n'; online_block "$ONLINE_REACTIVE"; printf '  }\n'
    printf '}\n'
} > "$ONLINE_OUT"
rm -f "$ONLINE_ROLLING" "$ONLINE_REACTIVE"
echo "wrote $ONLINE_OUT:"
cat "$ONLINE_OUT"

echo "== lint smoke: full-tree emts-lint wall time"
cargo build -q --offline --release -p lint
LINT=target/release/emts-lint
LINT_T0=$(date +%s%N)
$LINT --deny none crates data > /dev/null
LINT_T1=$(date +%s%N)
LINT_WALL_MS=$(( (LINT_T1 - LINT_T0) / 1000000 ))
echo "emts-lint over crates/ + data/: ${LINT_WALL_MS} ms"

echo "== lint v2 smoke: workspace call-graph analysis wall time and rule hits"
# The full two-pass analysis (scan + call graph + dataflow + artifact
# cross-checks) over everything CI lints; must stay interactive-fast.
LINT_V2_BUDGET_MS=2000
LINT_T0=$(date +%s%N)
$LINT --format json --deny none crates data/*.ptg data/*.platform BENCH_*.json \
    > "$LOG.lintv2"
LINT_T1=$(date +%s%N)
LINT_V2_WALL_MS=$(( (LINT_T1 - LINT_T0) / 1000000 ))
LINT_V2_TREE_FINDINGS=$(grep -c '"rule"' "$LOG.lintv2" || true)
# Rule hits on the negative corpus: the number of distinct rules firing on
# data/bad. Falling means corpus entries have gone blind.
LINT_V2_CORPUS_HITS=$($LINT --format json --deny none data/bad \
    | grep -o '"rule": "[^"]*"' | sort -u | wc -l)
rm -f "$LOG.lintv2"
echo "lint v2 over the CI lint set: ${LINT_V2_WALL_MS} ms," \
     "${LINT_V2_TREE_FINDINGS} tree findings, ${LINT_V2_CORPUS_HITS} corpus rule hits"
if [ "$LINT_V2_WALL_MS" -ge "$LINT_V2_BUDGET_MS" ]; then
    echo "lint v2 took ${LINT_V2_WALL_MS} ms — over the ${LINT_V2_BUDGET_MS} ms single-core budget" >&2
    exit 1
fi

cargo bench --offline -p bench --bench mapper 2>&1 | tee "$LOG"
# Absolute path: cargo runs bench binaries with the package directory
# (crates/bench) as their working directory.
EMTS_RUN_REPORT="$PWD/$REPORT" \
    cargo bench --offline -p bench --bench emts_generation -- fitness 2>&1 | tee -a "$LOG"

awk -v batch="$BATCH" -v fault_spec="$FAULT_SPEC" \
    -v p95_fft="$P95_FFT" -v p95_irr="$P95_IRR" -v lint_wall_ms="$LINT_WALL_MS" \
    -v lint_v2_wall_ms="$LINT_V2_WALL_MS" \
    -v lint_v2_tree_findings="$LINT_V2_TREE_FINDINGS" \
    -v lint_v2_corpus_hits="$LINT_V2_CORPUS_HITS" '
    /^CRITERION_RESULT id=fitness\// {
        id = ""; median = ""
        for (i = 1; i <= NF; i++) {
            if ($i ~ /^id=/)        { id = substr($i, 4); sub(/^fitness\//, "", id) }
            if ($i ~ /^median_ns=/) { median = substr($i, 11) }
        }
        sub(/_grelon_n100_batch25$/, "", id)
        medians[id] = median
        order[n++] = id
    }
    /^CRITERION_RESULT id=mapper\// {
        id = ""; median = ""
        for (i = 1; i <= NF; i++) {
            if ($i ~ /^id=/)        { id = substr($i, 4); sub(/^mapper\//, "", id) }
            if ($i ~ /^median_ns=/) { median = substr($i, 11) }
        }
        mapper[id] = median
        mapper_order[mn++] = id
    }
    /^CACHE_STATS / {
        w = ""
        for (i = 1; i <= NF; i++) {
            split($i, kv, "=")
            if (kv[1] == "workload") w = kv[2]
        }
        if (w != "") {
            cache_order[cn++] = w
            for (i = 1; i <= NF; i++) {
                split($i, kv, "=")
                if (kv[1] != "workload" && kv[1] != "CACHE_STATS")
                    cache[w, kv[1]] = kv[2]
            }
        }
    }
    END {
        if (n == 0) { print "no CRITERION_RESULT lines found" > "/dev/stderr"; exit 1 }
        printf "{\n"
        printf "  \"workload\": \"daggen irregular n=100 on grelon (P=120)\",\n"
        printf "  \"batch_size\": %d,\n", batch
        printf "  \"paths_ns_per_eval\": {\n"
        for (i = 0; i < n; i++) {
            id = order[i]
            printf "    \"%s\": %.1f%s\n", id, medians[id] / batch, (i < n - 1) ? "," : ""
        }
        printf "  },\n"
        if (mn > 0) {
            printf "  \"mapper_ns_per_call\": {\n"
            for (i = 0; i < mn; i++) {
                id = mapper_order[i]
                printf "    \"%s\": %.1f%s\n", id, mapper[id], (i < mn - 1) ? "," : ""
            }
            printf "  },\n"
        }
        if ("prepr_baseline" in medians && "serial_scratch" in medians)
            printf "  \"speedup_vs_prepr_baseline\": %.1f,\n", \
                medians["prepr_baseline"] / medians["serial_scratch"]
        if (p95_fft != "" && p95_irr != "") {
            printf "  \"robust_p95_degradation\": {\n"
            printf "    \"spec\": \"%s\",\n", fault_spec
            printf "    \"trials\": 20,\n"
            printf "    \"fft16\": %s,\n", p95_fft
            printf "    \"irregular_n50\": %s\n", p95_irr
            printf "  },\n"
        }
        if (lint_wall_ms != "")
            printf "  \"lint_wall_ms\": %d,\n", lint_wall_ms
        if (lint_v2_wall_ms != "") {
            printf "  \"lint_v2\": {\n"
            printf "    \"wall_ms\": %d,\n", lint_v2_wall_ms
            printf "    \"tree_findings\": %d,\n", lint_v2_tree_findings
            printf "    \"corpus_rule_hits\": %d\n", lint_v2_corpus_hits
            printf "  },\n"
        }
        printf "  \"emts10_run_cache\": {\n"
        for (i = 0; i < cn; i++) {
            w = cache_order[i]
            printf "    \"%s\": { \"hits\": %d, \"misses\": %d, \"hit_rate\": %s, \"survival_pruned\": %d }%s\n", \
                w, cache[w, "hits"], cache[w, "misses"], cache[w, "rate"], \
                cache[w, "pruned"], (i < cn - 1) ? "," : ""
        }
        printf "  }\n"
        printf "}\n"
    }
' "$LOG" > "$OUT"

echo "wrote $OUT:"
cat "$OUT"
if [ -f "$REPORT" ]; then
    echo "wrote $REPORT (inspect with: cargo run --bin emts-report -- show $REPORT)"
fi
