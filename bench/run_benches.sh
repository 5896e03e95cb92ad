#!/usr/bin/env bash
# Runs every bench binary that speaks --json and collects their output into
# one JSONL file, tagging each line with its suite. CI uploads the file from
# the Release bench-smoke job; the committed BENCH_pr*.json files are
# earlier sweeps kept as history.
#
# Usage: bench/run_benches.sh BUILD_DIR OUT_FILE
#   BUILD_DIR  build tree containing bench/ binaries (e.g. build-rel)
#   OUT_FILE   output path (e.g. bench-sweep.json)
set -euo pipefail

usage() {
  echo "usage: $0 BUILD_DIR OUT_FILE" >&2
  echo "  BUILD_DIR  build tree containing bench/ binaries (e.g. build-rel)" >&2
  echo "  OUT_FILE   output path (e.g. bench-sweep.json)" >&2
}

if [[ $# -ne 2 || -z "$1" || -z "$2" ]]; then
  usage
  exit 2
fi
BUILD_DIR="$1"
OUT="$2"

# The suites with a --json mode (one {"bench":...,"n":...,"wall_ms":...}
# line per configuration): every binary bench/CMakeLists.txt builds. A
# listed suite that is not built is an error, so a target dropped from a
# build list cannot silently vanish from the sweep.
SUITES=(
  bulk_ingest
  datalog
  ef_games
  gaifman_locality
  hanf_locality
  locality_hierarchy
  model_checking
  planner
  server
  strategies
)

# FMTK_BENCH_INGEST_EDGES caps the bulk-ingest graph (default: the bench
# binary's own ~1M-edge default) so CI smoke runs stay short while local
# sweeps measure at full scale.
ingest_args=()
if [[ -n "${FMTK_BENCH_INGEST_EDGES:-}" ]]; then
  ingest_args=(--edges "${FMTK_BENCH_INGEST_EDGES}")
fi

# FMTK_BENCH_SERVER_REQUESTS caps the closed-loop request counts of the
# server suite the same way (default: the binary's own 150 per client).
server_args=()
if [[ -n "${FMTK_BENCH_SERVER_REQUESTS:-}" ]]; then
  server_args=(--requests "${FMTK_BENCH_SERVER_REQUESTS}")
fi

: > "${OUT}"
for suite in "${SUITES[@]}"; do
  bin="${BUILD_DIR}/bench/bench_${suite}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built" >&2
    exit 1
  fi
  args=()
  if [[ "${suite}" == "bulk_ingest" ]]; then
    args=("${ingest_args[@]+"${ingest_args[@]}"}")
  elif [[ "${suite}" == "server" ]]; then
    args=("${server_args[@]+"${server_args[@]}"}")
  fi
  echo "running bench_${suite} ..." >&2
  # Tag each emitted line with its suite so one file holds them all.
  "${bin}" --json ${args[@]+"${args[@]}"} | \
    sed "s/^{/{\"suite\":\"${suite}\",/" >> "${OUT}"
done

echo "wrote $(wc -l < "${OUT}") bench lines to ${OUT}" >&2
