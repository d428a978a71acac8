#!/usr/bin/env bash
# Paired end-to-end benchmark runs: a base revision against the working
# tree, alternating which side goes first, then per-metric medians,
# quartiles and win counts. Run from the repository root:
#
#   scripts/benchpair.sh BASE WORKLOAD PAIRS [FIRST_SEED] [SECONDS]
#   make bench-pair W=remote-small N=10 [BASE=HEAD]
#
# BASE is any git revision, usually the parent of the change under test:
# HEAD while the change is uncommitted, HEAD~K after it has been committed
# as K commits. It is checked out in a temporary git worktree that is
# removed on exit; each side builds perfbench from its own checkout
# (perfbench/run.sh). Pair i runs seed FIRST_SEED+i (default 1) for
# SECONDS measured seconds (default 25, the benchmark's run length).
#
# Every run is recorded, including one that fails its correctness check or
# exits without a result; its stderr is kept next to the result files.
set -euo pipefail

usage="usage: scripts/benchpair.sh BASE WORKLOAD PAIRS [FIRST_SEED] [SECONDS]"
base=${1:?$usage}
w=${2:?$usage}
n=${3:?$usage}
seed=${4:-1}
secs=${5:-25}
root=$(git rev-parse --show-toplevel)
cd "$root"

base_rev=$(git rev-parse --verify --short "$base^{commit}")
if git diff --quiet "$base_rev" -- && [ -z "$(git ls-files --others --exclude-standard)" ]; then
  echo "bench-pair: the working tree is identical to $base ($base_rev); pass the parent of the change as BASE" >&2
  exit 2
fi
out=$(mktemp -d)
: >"$out/base.jsonl"
: >"$out/head.jsonl"

tmp=$(mktemp -d)
wt=$tmp/base
cleanup() {
  git worktree remove --force "$wt" >/dev/null 2>&1 || true
  git worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --detach --quiet "$wt" "$base_rev"

# run DIR SIDE SEED: one benchmark run. Its last stdout line (the JSON
# result) is appended to $out/SIDE.jsonl whatever the exit status; a run
# that printed no result is recorded as not correct so that the pairs stay
# aligned. Its stderr goes to $out/SIDE-SEED.log.
run() {
  local line st=0
  line=$(cd "$1" && bash perfbench/run.sh --workload "$w" --seed "$3" --seconds "$secs" --trace 0 \
    2>"$out/$2-$3.log" | tail -n 1) || st=$?
  if [ "${line:0:1}" != "{" ]; then
    line='{"correct": false, "attempted": 0, "failed": 0, "metrics": {}}'
  fi
  if ((st != 0)); then
    echo "  $2 run, seed $3: exit $st (see $out/$2-$3.log)" >&2
  fi
  printf '%s\n' "$line" >>"$out/$2.jsonl"
}

echo "bench-pair: $w, $n pairs of ${secs}s, base $base ($base_rev) vs working tree, results in $out" >&2
for ((i = 0; i < n; i++)); do
  s=$((seed + i))
  if ((i % 2 == 0)); then
    run "$wt" base "$s"
    run "$root" head "$s"
  else
    run "$root" head "$s"
    run "$wt" base "$s"
  fi
  echo "  pair $((i + 1))/$n done (seed $s)" >&2
done

go run ./scripts/benchpair "$out/base.jsonl" "$out/head.jsonl"
