#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on the same commit and prints,
# for every end-to-end metric of every workload, the two values, how far the
# second is worse than the first as a share of the first, and the metric's
# bound from BENCHMARK.json. Exits non-zero if any pair exceeds its bound.
# usage: bench/aa.sh [seed]   (about 4 minutes)
set -euo pipefail
seed="${1:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p bench/out
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
for side in a b; do
	: > "bench/out/aa-$side.jsonl"
	for w in $workloads; do
		echo "aa: run $side of $w" >&2
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >> "bench/out/aa-$side.jsonl"
	done
done
python3 - "$workloads" <<'PY'
import json, sys
spec = json.load(open("BENCHMARK.json"))
sides = [[json.loads(l) for l in open(f"bench/out/aa-{s}.jsonl")] for s in "ab"]
bad = 0
print(f"{'workload':15} {'metric':16} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}")
for i, w in enumerate(sys.argv[1].split()):
    a, b = sides[0][i], sides[1][i]
    if not (a["correct"] and b["correct"]):
        print(f"{w}: incorrect outputs: failed {a['failed']} and {b['failed']}")
        bad += 1
    for m in spec["end_to_end"]:
        x, y = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        over = worse > m["bound"]
        bad += over
        print(f"{w:15} {m['name']:16} {x:14.4f} {y:14.4f} {worse:+9.4f} {m['bound']:6} {'EXCEEDS' if over else ''}")
sys.exit(1 if bad else 0)
PY
