#!/usr/bin/env bash
# Write the model checkers' full reports for the whole registry into
# DIR, one file per surface, so two checkouts can be compared with
# `cmp`:
#
#   commute.json    analyze --commute --all --json
#   defchange.json  analyze --defchange --all --json
#   optimize.txt    optimize --all --verify
#
# Each file ends with an "exit: N" line carrying the command's status.
# Usage: scripts/analysis_golden.sh DIR
#   then: for f in commute.json defchange.json optimize.txt; do
#           cmp OLD/$f NEW/$f; done
#
# Uses the already-built binary (run `dune build` first); override with
# DYNFO=... to point at another checkout's build. Each file's wall time
# is printed to stderr.
set -euo pipefail

DIR=${1:?usage: analysis_golden.sh DIR}
DYNFO=${DYNFO:-$(dirname "$0")/../_build/install/default/bin/dynfo_cli}
mkdir -p "$DIR"

timed() {
  local out=$1
  shift
  local t0 t1 rc=0
  t0=$(date +%s.%N)
  "$DYNFO" "$@" >"$DIR/$out" || rc=$?
  t1=$(date +%s.%N)
  echo "exit: $rc" >>"$DIR/$out"
  awk -v a="$t0" -v b="$t1" -v f="$out" -v c="$*" \
    'BEGIN { printf "%-16s %6.1f s  (%s)\n", f, b - a, c }' >&2
}

timed commute.json analyze --commute --all --json
timed defchange.json analyze --defchange --all --json
timed optimize.txt optimize --all --verify
