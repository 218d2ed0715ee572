#!/usr/bin/env bash
# bench/run.sh — the benchmark's two chores.
#
#   bench/run.sh run [-record] [bench flags...]
#       Runs all four workloads and prints one stamped JSON line per
#       workload. -record also appends those lines to the append-only
#       bench/history.jsonl. Extra flags (-seed N, -seconds N, -trace 1)
#       pass through to the command.
#
#   bench/run.sh selfcheck [bench flags...]
#       The noise protocol's check on itself: two sets of three runs
#       (seeds 1..3) of one binary, the sets taking turns (A1 B1 A2 B2
#       A3 B3) so that a slow stretch of the box lands on both; per
#       workload and end-to-end metric the two sets' medians are
#       compared against the bounds in BENCHMARK.json. Prints the table;
#       exits non-zero on any miss or any failed operation.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="bench/out"
mkdir -p "$out"
bin="$out/bench"

export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
go build -o "$bin" ./bench

cmd="${1:-}"
[ $# -gt 0 ] && shift

case "$cmd" in
run)
	record=0
	if [ "${1:-}" = "-record" ]; then
		record=1
		shift
	fi
	# The record lines carry the stamp; the result lines do not.
	"$bin" -workload all "$@" | grep '"stamp"' | tee "$out/last-run.jsonl"
	if [ "$record" = 1 ]; then
		cat "$out/last-run.jsonl" >>bench/history.jsonl
	fi
	;;
selfcheck)
	results="$out/selfcheck.jsonl"
	: >"$results"
	for seed in 1 2 3; do
		for set in A B; do
			for w in churn_batch acl_precise pkt_churn fleet_small; do
				echo "selfcheck: set $set seed $seed $w" >&2
				# A failed gate exits non-zero; the table below reports it.
				line="$("$bin" -workload "$w" -seed "$seed" "$@" | tail -n 1)" || true
				printf '{"set":"%s","workload":"%s","result":%s}\n' "$set" "$w" "$line" >>"$results"
			done
		done
	done
	python3 - "$results" BENCHMARK.json <<'EOF'
import json, statistics, sys

rows = [json.loads(l) for l in open(sys.argv[1])]
spec = json.load(open(sys.argv[2]))
miss = 0
print(f"{'workload':12} {'metric':14} {'set A':>12} {'set B':>12} {'worse by':>9} {'bound':>6}")
for w in [x["name"] for x in spec["workloads"]]:
    mine = [r for r in rows if r["workload"] == w]
    failed = sum(r["result"]["failed"] for r in mine)
    if failed or not all(r["result"]["correct"] for r in mine):
        print(f"{w:12} ops_failed = {failed}  MISS")
        miss += 1
    for m in spec["end_to_end"]:
        med = {}
        for s in "AB":
            med[s] = statistics.median(
                r["result"]["metrics"][m["name"]]["value"] for r in mine if r["set"] == s)
        # Compared both ways round: neither set may be worse than the
        # other by more than the bound.
        hi, lo = max(med.values()), min(med.values())
        worse = (hi - lo) / (lo if m["better"] == "lower" else hi)
        flag = "" if worse <= m["bound"] else "  MISS"
        miss += bool(flag)
        print(f"{w:12} {m['name']:14} {med['A']:12.4f} {med['B']:12.4f} {worse*100:8.2f}% {m['bound']*100:5.0f}%{flag}")
sys.exit(1 if miss else 0)
EOF
	;;
*)
	sed -n '2,15p' "$0" >&2
	exit 2
	;;
esac
