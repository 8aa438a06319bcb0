#!/usr/bin/env bash
# Regenerates every figure, table, ablation and extension experiment of the
# reproduction at the paper's full instance counts. Results (JSON/SVG) land
# in results/; terminal reports stream to stdout.
#
# Usage: scripts/reproduce.sh [--quick]
#   --quick  use the 10% corpus scale (minutes instead of ~15 min)

set -euo pipefail
cd "$(dirname "$0")/.."

SCALE_ARGS=(--full)
ABL_SCALE=(--scale 1.0)
if [[ "${1:-}" == "--quick" ]]; then
  SCALE_ARGS=(--scale 0.1)
  ABL_SCALE=(--scale 0.2)
fi

cargo build --release -p bench --bins

run() { echo "== $1 =="; "./target/release/$1" "${@:2}"; echo; }

run fig1_pdgemm
run fig2_encoding
run fig3_mutation_pdf
run fig4_model1 "${SCALE_ARGS[@]}"
run fig5_model2 "${SCALE_ARGS[@]}"
run fig6_gantt
run table_runtime "${SCALE_ARGS[@]}"

# Every ablation and extension study, as rows of one component grid.
run grid "${ABL_SCALE[@]}"
for b in ext_convergence ext_bicpa; do
  run "$b" "${ABL_SCALE[@]}"
done

echo "All artifacts written to results/."
