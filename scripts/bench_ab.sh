#!/usr/bin/env bash
# Interleaved A/B run of the repository benchmark: the ledger behind every
# performance claim (ROADMAP item 0b). Two sequential reports taken minutes
# apart on a shared host differ by more than most changes move anything; pairs
# that alternate which side runs first, compared pair by pair, do not.
#
#   scripts/bench_ab.sh <base-ref> [workload...]
#
# Exports <base-ref> and the change (CHANGE, default HEAD) into two scratch
# checkouts, so each side builds its own harness from its own committed files
# exactly as the driver does, then for each workload (default: all in
# BENCHMARK.json) runs PAIRS (default 10) pairs of
#   benchmark/run.sh --workload W --seed S --seconds <run_seconds> --trace 0
# with seed S = SEED + pair on both sides and the side that goes first
# alternating. With TRACE=1, each pair's two end-to-end passes are followed by
# one --trace 1 pass per side, in the same order and with the same seed.
# scripts/benchab summarises: medians, quartiles, paired wins and a verdict
# per metric against its BENCHMARK.json bound, and with TRACE=1 the same for
# every per-layer metric both sides report (in a per_layer section, judged in
# the direction BENCHMARK.json declares), written with every raw value to
# BENCH_<PR>.json (OUT overrides the path; PR defaults to "dev"), then prints
# the verdict paragraph: the claimed metric first when
# CLAIM=<metric>@<workload> names one, every metric judged worse or
# unresolved, every per-layer metric that moved, and the failed-op counts.
# A traced pass takes about as long as an end-to-end one, so TRACE=1 doubles
# the run.
#
# The checkouts come from `git archive`, not `git worktree add`: a worktree
# registers itself in .git and an interrupted run leaves it there.
set -euo pipefail

base_ref="${1:?usage: bench_ab.sh <base-ref> [workload...]}"
shift
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

pairs="${PAIRS:-10}"
seed="${SEED:-20040830}"
trace="${TRACE:-0}"
case "$trace" in 0 | 1) ;; *) echo "bench_ab.sh: TRACE must be 0 or 1" >&2; exit 2 ;; esac
claim="${CLAIM:-}"
pr="${PR:-dev}"
out="${OUT:-BENCH_${pr}.json}"
base="$(git rev-parse --verify "$base_ref^{commit}")"
change="$(git rev-parse --verify "${CHANGE:-HEAD}^{commit}")"
if [ "${CHANGE:-HEAD}" = HEAD ] && ! git diff --quiet HEAD; then
    echo "bench_ab.sh: uncommitted changes are not measured; the change side is HEAD ($change)" >&2
fi

seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
# Checked here, before any pass runs: a mistyped claim fails at once.
names="$(go run ./scripts/benchab -list -claim "$claim")"
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads <<<"$names"
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT
for side in base change; do
    mkdir "$work/$side"
    commit="$base"; [ "$side" = change ] && commit="$change"
    git archive "$commit" | tar -x -C "$work/$side"
done

# pass <side> <workload> <pair> <seed> <first> <trace>: one pass, one line in
# the runs file.
pass() {
    local result
    result="$(bash "$work/$1/benchmark/run.sh" --workload "$2" --seed "$4" --seconds "$seconds" --trace "$6" \
        2>"$work/last.err" | tail -n 1)" || { cat "$work/last.err" >&2; exit 1; }
    printf '{"workload":"%s","pair":%d,"seed":%d,"side":"%s","first":%s,"trace":%d,"result":%s}\n' \
        "$2" "$3" "$4" "$1" "$5" "$6" "$result" >>"$work/runs.jsonl"
}

for w in "${workloads[@]}"; do
    for ((p = 0; p < pairs; p++)); do
        first=base second=change
        if ((p % 2)); then first=change second=base; fi
        echo "bench_ab.sh: $w pair $((p + 1))/$pairs, $first first" >&2
        pass "$first" "$w" "$p" "$((seed + p))" true 0
        pass "$second" "$w" "$p" "$((seed + p))" false 0
        if ((trace)); then
            pass "$first" "$w" "$p" "$((seed + p))" true 1
            pass "$second" "$w" "$p" "$((seed + p))" false 1
        fi
    done
done

go run ./scripts/benchab -runs "$work/runs.jsonl" -out "$out" -pr "$pr" -base "$base" -change "$change" -claim "$claim"
echo "bench_ab.sh: wrote $out" >&2
