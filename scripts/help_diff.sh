#!/usr/bin/env bash
# Flag-surface check: builds every cmd/ binary at <base-ref> and at the change
# (CHANGE, default HEAD), runs each with -h, masks the binary's path in what it
# prints, and diffs the two sides binary by binary. A refactor that must keep
# the command lines as they are passes when every binary reads "identical".
#
#   scripts/help_diff.sh <base-ref>
#
# Exits 1 when any binary's -h output differs, or a binary exists on one side
# only. Like bench_ab.sh, it exports committed files with `git archive`, so
# uncommitted edits are not compared and an interrupted run leaves nothing
# registered in .git.
set -euo pipefail

base_ref="${1:?usage: help_diff.sh <base-ref>}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo"

base="$(git rev-parse --verify "$base_ref^{commit}")"
change="$(git rev-parse --verify "${CHANGE:-HEAD}^{commit}")"
if [ "${CHANGE:-HEAD}" = HEAD ] && ! git diff --quiet HEAD; then
    echo "help_diff.sh: uncommitted changes are not compared; the change side is HEAD ($change)" >&2
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/help_diff.XXXXXX")"
trap 'rm -rf "$work"' EXIT
for side in base change; do
    commit="$base"; [ "$side" = change ] && commit="$change"
    mkdir -p "$work/$side/src" "$work/$side/bin" "$work/$side/help"
    git archive "$commit" | tar -x -C "$work/$side/src"
    (cd "$work/$side/src" && go build -o "$work/$side/bin/" ./cmd/...)
    for bin in "$work/$side"/bin/*; do
        name="$(basename "$bin")"
        # flag's -h exits 0 or 2 depending on the binary's error handling;
        # only the text matters.
        { "$bin" -h 2>&1 || true; } | sed "s|$bin|$name|g" >"$work/$side/help/$name"
    done
done

status=0
for name in $( (ls "$work/base/help"; ls "$work/change/help") | sort -u); do
    if diff -u --label "$name@${base:0:12}" --label "$name@${change:0:12}" \
        "$work/base/help/$name" "$work/change/help/$name"; then
        echo "$name: identical"
    else
        status=1
    fi
done 2>&1
exit "$status"
