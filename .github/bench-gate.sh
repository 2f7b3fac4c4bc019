#!/usr/bin/env bash
# Gates a change's benchmark run against its parent commit's, both taken
# on the same machine with
#
#   bash bench/run.sh --workload W --seed 1 --seconds 10 --trace 0 > RUN.json
#
# and compared with
#
#   bash .github/bench-gate.sh PARENT.json CHANGE.json
#
# Each file's last line is the run's JSON result. The gate fails when
# either run failed its output checks, when allocs_per_run rises by more
# than 2% (allocation counts are nearly deterministic, so the bound is
# tight), or when runs_per_sec falls below half the parent's (wall time
# is noisy on shared runners, so that bound only catches collapses).
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: $0 PARENT.json CHANGE.json" >&2
	exit 2
fi

# fields prints a run's "correct allocs_per_run runs_per_sec", and fails
# when the last line is not a result carrying both metrics.
fields() {
	tail -n 1 "$1" | jq -er '
		[.correct, .metrics.allocs_per_run.value, .metrics.runs_per_sec.value]
		| if (.[1] | type) == "number" and (.[2] | type) == "number" and .[2] > 0 then @tsv
		  else error("no allocs_per_run and runs_per_sec in the last line") end'
}
parent=$(fields "$1")
change=$(fields "$2")
read -r p_ok p_allocs p_rps <<<"$parent"
read -r c_ok c_allocs c_rps <<<"$change"

echo "bench gate: $1 -> $2"
awk -v p="$p_allocs" -v c="$c_allocs" 'BEGIN { printf "  allocs_per_run %12.1f -> %12.1f  (%+.2f%%, ceiling +2%%)\n", p, c, 100 * (c - p) / p }'
awk -v p="$p_rps" -v c="$c_rps" 'BEGIN { printf "  runs_per_sec   %12.1f -> %12.1f  (x%.2f, floor x0.50)\n", p, c, c / p }'

fail() {
	echo "bench gate FAILED: $*" >&2
	exit 1
}
[ "$p_ok" = true ] || fail "the parent run failed its output checks"
[ "$c_ok" = true ] || fail "the change run failed its output checks"
if awk -v p="$p_allocs" -v c="$c_allocs" 'BEGIN { exit !(c > 1.02 * p) }'; then
	fail "$(printf "allocation regression: %.1f allocs/run vs the parent's %.1f, more than 2%% above" "$c_allocs" "$p_allocs")"
fi
if awk -v p="$p_rps" -v c="$c_rps" 'BEGIN { exit !(c < 0.5 * p) }'; then
	fail "$(printf "throughput regression: %.1f runs/s vs the parent's %.1f, below half" "$c_rps" "$p_rps")"
fi
echo "bench gate: ok"
