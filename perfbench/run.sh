#!/usr/bin/env bash
# Build the benchmark from source, then run one measurement:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to .bench_build/, the trained-profile cache and span
# dumps to .perfbench/, both under the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet ./perfbench/main.exe 1>&2
# Run on one CPU: the serve workloads' domains then share a core instead
# of racing across two vCPUs that a shared host preempts independently,
# which made their CPU cost move with the host's load (README, "Why CPU
# time, one CPU and a host factor").
exe=./.bench_build/default/perfbench/main.exe
if command -v taskset >/dev/null 2>&1; then
  cpus=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //') || true
  cpu=${cpus##*,}
  cpu=${cpu##*-}
  if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
    exec taskset -c "$cpu" "$exe" "$@"
  fi
fi
exec "$exe" "$@"
