#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Everything runs offline against the vendored dependencies (the
# workspace pins `--offline` builds; the container has no registry
# access). Run before every push:
#
#   scripts/ci.sh
#
# Fails fast: the first failing step stops the run.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc (default members, warnings are errors): no intra-doc link points at nothing"
# Default members only: the vendored dependencies carry doc warnings of
# their own.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q

echo "== cargo test (workspace)"
cargo test -q --offline --workspace

echo "== emts-lint: source, call-graph dataflow and committed artifacts must be clean"
cargo build -q --offline --release -p lint
LINT=target/release/emts-lint
LINT_BASELINE=lint-baseline.json
# Source tree plus the known-good data files and committed telemetry
# artifacts; data/bad is the negative corpus and is deliberately excluded
# (globs do not descend into bad/). Exit codes are gated exactly:
# 1 means findings, 2 means the analyzer itself broke — conflating them
# would let an internal error masquerade as a clean run (or vice versa).
LINT_PATHS=(crates data/*.ptg data/*.platform BENCH_*.json)
set +e
$LINT --format json --deny warning --baseline "$LINT_BASELINE" "${LINT_PATHS[@]}" > /dev/null
LINT_RC=$?
set -e
case $LINT_RC in
    0) ;;
    1) echo "emts-lint found new findings (fix them, or record accepted ones: $LINT --write-baseline $LINT_BASELINE ${LINT_PATHS[*]})" >&2
       exit 1 ;;
    2) echo "emts-lint internal error (exit 2) on the clean tree" >&2; exit 1 ;;
    *) echo "emts-lint exited with unexpected status $LINT_RC" >&2; exit 1 ;;
esac
# Ratchet: the committed baseline may only shrink. When the tree has fewer
# findings than the baseline records, the baseline is stale — shrink it
# with one command and commit the result.
BASELINE_COUNT=$(grep -c '"rule"' "$LINT_BASELINE" || true)
CURRENT_COUNT=$($LINT --format json --deny none "${LINT_PATHS[@]}" | grep -c '"rule"' || true)
if [ "$CURRENT_COUNT" -lt "$BASELINE_COUNT" ]; then
    echo "lint baseline is stale ($BASELINE_COUNT entries, tree has $CURRENT_COUNT findings) — shrink it:" >&2
    echo "  $LINT --write-baseline $LINT_BASELINE ${LINT_PATHS[*]}" >&2
    exit 1
fi
# Inverted check: the corpus must keep tripping the gate with exit 1
# exactly — exit 0 means the analyzer has gone blind, exit 2 means it
# crashed on the corpus instead of analyzing it.
set +e
$LINT --deny warning data/bad > /dev/null 2>&1
CORPUS_RC=$?
set -e
case $CORPUS_RC in
    1) ;;
    0) echo "emts-lint passed data/bad — the negative corpus no longer fires" >&2; exit 1 ;;
    2) echo "emts-lint internal error (exit 2) on data/bad" >&2; exit 1 ;;
    *) echo "emts-lint exited with unexpected status $CORPUS_RC on data/bad" >&2; exit 1 ;;
esac

echo "== perf guards (release): flight-recorder budget, SoA core vs oracle, CPA loop vs reference"
cargo test --release -q --offline -p emts --test perf_guard -- --ignored

echo "== benchmark unit tests (release), including a 2%-scale bit-for-bit smoke of every workload"
cargo test -q --offline --release --manifest-path examples/benchmark/Cargo.toml

echo "== perf-regression observatory: regress gate must pass clean and catch inflation"
cargo build -q --offline --release -p obs --bin emts-report
EMTS_REPORT=target/release/emts-report
REGRESS_DIR=$(mktemp -d)
# Every committed baseline compared against itself must pass (exit 0)...
for BASE in BENCH_fitness.json BENCH_throughput.json BENCH_obs.json BENCH_online.json; do
    [ -f "$BASE" ] || continue
    $EMTS_REPORT regress "$BASE" "$BASE" > /dev/null \
        || { echo "regress gate: $BASE self-comparison reported a regression" >&2; exit 1; }
done
# ...and a synthetically inflated copy must fail with a non-zero exit,
# otherwise the observatory has gone blind. 10x every numeric leaf; the
# default 40% tolerance must flag that on the higher-is-worse metrics.
awk '{ while (match($0, /: [0-9]+(\.[0-9]+)?/)) {
           v = substr($0, RSTART + 2, RLENGTH - 2)
           printf "%s: %s", substr($0, 1, RSTART - 1), v * 10
           $0 = substr($0, RSTART + RLENGTH) }
       print }' BENCH_fitness.json > "$REGRESS_DIR/inflated.json"
if $EMTS_REPORT regress BENCH_fitness.json "$REGRESS_DIR/inflated.json" > /dev/null; then
    echo "regress gate passed a 10x-inflated benchmark — the gate is not gating" >&2
    exit 1
fi
rm -rf "$REGRESS_DIR"

echo "== streaming smoke: sharded + interrupted + resumed 1k-PTG stream is bit-identical"
cargo build -q --offline --release -p bench --bin emts-stream
STREAM=target/release/emts-stream
STREAM_DIR=$(mktemp -d)
# Uninterrupted single-shard run vs a 4-way sharded run stopped after 300
# items mid-checkpoint-interval and resumed from its checkpoint: the
# order-independent fingerprints must agree exactly.
$STREAM --count 1000 --seed 2011 --no-probe --quiet --out "$STREAM_DIR/full.json"
# The uninterrupted run must also reproduce the committed fingerprint: a
# change that moved every item would still pass the comparison below.
STREAM_FP_1K=f430e1329dd5a752
grep -q "\"fingerprint\": \"$STREAM_FP_1K\"" "$STREAM_DIR/full.json" \
    || { echo "stream smoke: 1k seed-2011 fingerprint is no longer $STREAM_FP_1K" >&2
         grep '"fingerprint"' "$STREAM_DIR/full.json" >&2
         exit 1; }
# The four layer times must account for the wall clock within 5%.
awk -F': ' '
    function val(s) { s = $2; gsub(/,/, "", s); return s }
    /"elapsed_seconds"/ { elapsed = val() }
    /"(generate|matrix|allocate|map)_seconds"/ { layers += val(); n++ }
    END {
        if (n != 4 || elapsed <= 0) { print "stream smoke: layer times missing" > "/dev/stderr"; exit 1 }
        r = layers / elapsed
        if (r < 0.95 || r > 1.05) {
            printf "stream smoke: layers sum to %.4f of elapsed, outside 0.95..1.05\n", r > "/dev/stderr"
            exit 1
        }
    }' "$STREAM_DIR/full.json"
$STREAM --count 1000 --seed 2011 --shards 4 --checkpoint "$STREAM_DIR/cp.json" \
    --checkpoint-every 128 --stop-after 300 --no-probe --quiet \
    --out "$STREAM_DIR/partial.json"
$STREAM --count 1000 --seed 2011 --shards 4 --checkpoint "$STREAM_DIR/cp.json" \
    --no-probe --quiet --out "$STREAM_DIR/resumed.json"
grep -q '"completed": false' "$STREAM_DIR/partial.json" \
    || { echo "stream smoke: --stop-after did not interrupt the run" >&2; exit 1; }
grep -q '"completed": true' "$STREAM_DIR/resumed.json" \
    || { echo "stream smoke: resumed run did not complete" >&2; exit 1; }
FP_FULL=$(grep '"fingerprint"' "$STREAM_DIR/full.json")
FP_RESUMED=$(grep '"fingerprint"' "$STREAM_DIR/resumed.json")
[ -n "$FP_FULL" ] && [ "$FP_FULL" = "$FP_RESUMED" ] \
    || { echo "stream smoke: resumed sharded run diverged from the uninterrupted run" >&2
         echo "  full:    $FP_FULL" >&2
         echo "  resumed: $FP_RESUMED" >&2
         exit 1; }
rm -rf "$STREAM_DIR"

echo "== component grid: a full rerun reproduces the committed EXPERIMENTS_grid.json"
cargo build -q --offline --release -p bench --bin grid
GRID_DIR=$(mktemp -d)
target/release/grid --full --quiet --out "$GRID_DIR"
# Every row runs serially, so every field but the wall times is deterministic.
diff <(grep -v wall_seconds "$GRID_DIR/EXPERIMENTS_grid.json") \
     <(grep -v wall_seconds EXPERIMENTS_grid.json) \
    || { echo "grid: the rerun differs from the committed EXPERIMENTS_grid.json" >&2; exit 1; }
rm -rf "$GRID_DIR"

echo "== fault smoke: seeded injection is reproducible, fault-free replay is bit-identical"
SIM="cargo run -q --offline -p sim --bin emts-sim --"
FAULT_A=$(mktemp) FAULT_B=$(mktemp)
trap 'rm -f "$FAULT_A" "$FAULT_B"' EXIT
SPEC="seed=2011,perturb=0.2,straggler_prob=0.05,straggler_factor=4,crash=0.05,procfail=0.02"
$SIM --platform data/chti.platform --ptg data/irregular_n50.ptg --algorithm mcpa \
    --faults "$SPEC" --trials 5 --json | grep -v '_seconds' > "$FAULT_A"
$SIM --platform data/chti.platform --ptg data/irregular_n50.ptg --algorithm mcpa \
    --faults "$SPEC" --trials 5 --json | grep -v '_seconds' > "$FAULT_B"
# Byte-identical apart from the wall-clock timing fields.
cmp "$FAULT_A" "$FAULT_B" \
    || { echo "seeded fault runs are not reproducible" >&2; exit 1; }
# A spec that arms no fault source must degrade the makespan by exactly 1x
# in every trial — the dynamic replay is bit-identical to the plan.
$SIM --platform data/chti.platform --ptg data/fft16.ptg --algorithm mcpa \
    --faults "seed=7" --trials 3 --json > "$FAULT_A"
grep -q '"worst_degradation": 1.0,' "$FAULT_A" \
    || { echo "fault-free replay is not bit-identical to the baseline" >&2; exit 1; }

echo "== online smoke: rolling-horizon loop is seeded-reproducible and degrades, never dies"
# Same seed twice under churn: byte-identical apart from wall-clock fields.
$SIM --platform data/chti.platform --online --jobs 4 --seed 2011 \
    --arrival-mean 30 --epoch 60 --churn "fail_every=150,repair_after=90,spares=1,join_every=400" \
    --json | grep -v '_seconds' > "$FAULT_A"
$SIM --platform data/chti.platform --online --jobs 4 --seed 2011 \
    --arrival-mean 30 --epoch 60 --churn "fail_every=150,repair_after=90,spares=1,join_every=400" \
    --json | grep -v '_seconds' > "$FAULT_B"
cmp "$FAULT_A" "$FAULT_B" \
    || { echo "seeded online runs are not reproducible" >&2; exit 1; }
# Killing the whole platform with nothing pending must be a clean typed
# failure (one stderr line, exit 1), never a panic.
if $SIM --platform data/chti.platform --online --jobs 2 --seed 7 \
    --churn "fail_all_at=40" --reactive-only 2> "$FAULT_A"; then
    echo "online kill-all run exited zero — NoSurvivors was swallowed" >&2; exit 1
fi
grep -q "no surviving processors" "$FAULT_A" \
    || { echo "online kill-all diagnostic missing from stderr" >&2; cat "$FAULT_A" >&2; exit 1; }
if grep -q "panicked" "$FAULT_A"; then
    echo "online kill-all run panicked" >&2; cat "$FAULT_A" >&2; exit 1
fi
# A sabotaged epoch must fall back to a cheaper ring (watchdog degrades)
# while still meeting its decision budget — zero overruns.
$SIM --platform data/chti.platform --online --jobs 2 --seed 11 --arrival-mean 0 \
    --epoch-budget-ms 5000 --sabotage-ring0 0 --json > "$FAULT_A"
grep -q '"watchdog_degraded": [1-9]' "$FAULT_A" \
    || { echo "sabotaged epoch did not register a watchdog degradation" >&2; exit 1; }
grep -q '"deadline_overruns": 0' "$FAULT_A" \
    || { echo "online decision epoch overran its budget" >&2; exit 1; }

echo "CI OK"
