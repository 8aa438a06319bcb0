#!/usr/bin/env bash
# Rewrites every committed BENCH_*.json at the repo root.
#
# * `emts-stream` schedules 100k DAGGEN PTGs generated on the fly,
#   single-core, and writes BENCH_throughput.json: end-to-end PTGs/s
#   split into generation, time matrix, allocation and mapping.
# * `emts-ledger` measures every per-layer number on the paper's hard case
#   (DAGGEN n=100 on Grelon, P=120, Model 2) in one process and writes
#   BENCH_fitness.json (fitness paths, mapper cells, EMTS10 cache
#   statistics, fault degradation, lint v2), BENCH_obs.json (recorder
#   overhead, event throughput, drop accounting), BENCH_online.json
#   (rolling vs reactive-only under churn) and BENCH_fitness_report.json
#   (the EMTS10 run report; `emts-report show` renders it).
#
# `scripts/ci.sh` gates the committed files with `emts-report regress`.
#
# Usage: scripts/bench_smoke.sh

set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --offline --release -p bench --bin emts-stream --bin emts-ledger

echo "== streaming throughput: 100000 DAGGEN PTGs end-to-end, single core"
target/release/emts-stream --count 100000 --seed 2011 --quiet --out BENCH_throughput.json
cat BENCH_throughput.json

echo "== per-layer ledger"
target/release/emts-ledger --out .
cat BENCH_fitness.json BENCH_obs.json BENCH_online.json
