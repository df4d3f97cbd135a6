#!/usr/bin/env bash
# Build the daemon and the benchmark from this checkout, then run one
# benchmark pass:
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the JSON result.
#
# The benchmark and the daemon it spawns share CPU 0: the daemon runs
# OCaml threads under one runtime lock and the closed-loop client waits
# for each reply, so a second core buys little, while wake-ups across
# virtual CPUs made tail latencies swing from run to run.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# keep the build inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . ./bin/dynfo_cli.exe ./servebench/main.exe 1>&2
pin=()
if command -v taskset >/dev/null 2>&1; then pin=(taskset -c 0); fi
exec "${pin[@]}" ./_build/default/servebench/main.exe \
  --daemon ./_build/default/bin/dynfo_cli.exe --out servebench/out "$@"
