#!/usr/bin/env bash
# A/B perfbench runs of this checkout against a base revision, run from
# the root of the checkout:
#
#   bash scripts/ab.sh <base-rev> <pairs> <workload> <seed> <seconds> <out.ndjson>
#
# Checks <base-rev> out with git worktree in a temporary directory outside
# the checkout (gofmt -l . walks dot directories, so one inside would be
# linted), runs perfbench/run.sh in both trees for <pairs> pairs,
# alternating which side runs first, and appends one line per run to
# <out.ndjson>, wrapping perfbench's own JSON result line:
#
#   {"workload":"fuzz","seed":1,"pair":3,"side":"base","result":{...}}
#
# Pair numbers continue after the highest one already in the file, so a
# second invocation adds pairs. The worktree is removed on exit.
# `make ab` runs this, then `benchjson -ab BENCHMARK.json <out.ndjson>`.
set -euo pipefail

if (($# != 6)); then
	echo "usage: bash scripts/ab.sh <base-rev> <pairs> <workload> <seed> <seconds> <out.ndjson>" >&2
	exit 2
fi
base=$1 pairs=$2 workload=$3 seed=$4 seconds=$5 out=$6
root=$(pwd)
[[ $out == /* ]] || out=$root/$out

tmp=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git worktree add --detach --quiet "$tmp/base" "$base"

start=0
if [[ -s $out ]]; then
	start=$(grep -o '"pair":[0-9]*' "$out" | cut -d: -f2 | sort -n | tail -n 1)
fi

# run <side> <tree> <pair>
run() {
	local line
	line=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 | tail -n 1) || true
	if [[ $line != '{'* ]]; then
		echo "ab: the $1 run of pair $3 printed no result" >&2
		exit 1
	fi
	printf '{"workload":"%s","seed":%d,"pair":%d,"side":"%s","result":%s}\n' \
		"$workload" "$seed" "$3" "$1" "$line" >>"$out"
	echo "ab: pair $3 $1 done" >&2
}

for ((i = 1; i <= pairs; i++)); do
	p=$((start + i))
	if ((i % 2)); then
		run base "$tmp/base" "$p"
		run change "$root" "$p"
	else
		run change "$root" "$p"
		run base "$tmp/base" "$p"
	fi
done
