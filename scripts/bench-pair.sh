#!/usr/bin/env bash
# A/B record of one benchmark workload: run `stp-benchmark` on a parent
# and on a changed `stp` binary in alternation, one fresh seed per pair,
# and append one JSON line to BENCH_history.jsonl with each side's
# median, q1 and q3 of every end-to-end metric in BENCHMARK.json and the
# number of pairs the change won on it. From the root of a checkout:
#
#   bash benchmark/run.sh --smoke          # builds target/release/stp-benchmark
#   bash scripts/bench-pair.sh --parent P/target/release/stp \
#       --change target/release/stp --workload figure_sweep --pairs 10
#
# Build the parent in its own clone with its own CARGO_TARGET_DIR. The
# change is this checkout: its working tree when it has uncommitted
# changes (the parent is then HEAD), else HEAD (the parent is HEAD~1).
# Pass the same path twice for a self-pair: the line's parent is then
# the change itself, and its spread is the box's.
# Within a pair both sides get the same seed; which side runs first
# alternates from pair to pair. Run nothing else on the machine meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: bash scripts/bench-pair.sh --parent STP --change STP --workload NAME --pairs N" >&2
    exit 2
}

parent= change= workload= pairs=
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case "$1" in
        --parent) parent="$2" ;;
        --change) change="$2" ;;
        --workload) workload="$2" ;;
        --pairs) pairs="$2" ;;
        *) usage ;;
    esac
    shift 2
done
[ -n "$parent" ] && [ -n "$change" ] && [ -n "$workload" ] || usage
case "$pairs" in '' | *[!0-9]* | 0) usage ;; esac
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "bench-pair: $bin is not an executable" >&2; exit 2; }
done

target="${CARGO_TARGET_DIR:-target}"
bench="$target/release/stp-benchmark"
[ -x "$bench" ] || { echo "bench-pair: $bench missing; bash benchmark/run.sh --smoke builds it" >&2; exit 2; }
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

if [ -n "$(git status --porcelain --untracked-files=no)" ]; then
    commit="working tree over $(git rev-parse HEAD)"
    parent_commit=$(git rev-parse HEAD)
else
    commit=$(git rev-parse HEAD)
    parent_commit=$(git rev-parse HEAD~1)
fi
# A self-pair (one path given as both sides) measures the box's spread;
# both sides are then the change. Two separate builds always keep their
# own commits, even when their binaries happen to be byte-identical.
if [ "$(realpath "$parent")" = "$(realpath "$change")" ]; then
    parent_commit=$commit
fi

work="$(mktemp -d "${TMPDIR:-/tmp}/bench-pair.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# One run: the result object is the last stdout line.
run() { # side seed
    local bin=$parent
    [ "$1" = change ] && bin=$change
    BENCH_STP_BIN="$bin" "$bench" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 > "$work/out" 2> "$work/err" \
        || { cat "$work/err" >&2; echo "bench-pair: $1 run failed (seed $2)" >&2; exit 1; }
    tail -n 1 "$work/out" >> "$work/$1.jsonl"
    echo "bench-pair: pair $k/$pairs seed $2 $1 done" >&2
}

first_seed=$(( $(date +%s) % 100000 ))
seeds=()
for k in $(seq 1 "$pairs"); do
    seed=$((first_seed + k))
    seeds+=("$seed")
    if [ $((k % 2)) -eq 1 ]; then
        run parent "$seed"; run change "$seed"
    else
        run change "$seed"; run parent "$seed"
    fi
done

python3 - "$work" "$workload" "$commit" "$parent_commit" "$seconds" "${seeds[@]}" \
    >> BENCH_history.jsonl <<'EOF'
import datetime, json, os, statistics, sys

work, workload, commit, parent, seconds, *seeds = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))["end_to_end"]
runs = {side: [json.loads(line) for line in open(f"{work}/{side}.jsonl")]
        for side in ("parent", "change")}

def quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}

cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
            if line.startswith("model name")), "unknown")
metrics = {}
for m in spec:
    name = m["name"]
    side = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
    better = (lambda c, p: c < p) if m["better"] == "lower" else (lambda c, p: c > p)
    metrics[name] = {
        "unit": m["unit"],
        "better": m["better"],
        "parent": quartiles(side["parent"]),
        "change": quartiles(side["change"]),
        "won": sum(better(c, p) for c, p in zip(side["change"], side["parent"])),
    }
line = {
    "date": datetime.date.today().isoformat(),
    "commit": commit,
    "parent": parent,
    "workload": workload,
    "cores": len(os.sched_getaffinity(0)),
    "cpu": cpu,
    "pairs": len(seeds),
    "seeds": [int(s) for s in seeds],
    "seconds": float(seconds),
    "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
    "metrics": metrics,
}
print(json.dumps(line, separators=(",", ":")))
EOF
echo "bench-pair: appended $workload ($pairs pairs) to BENCH_history.jsonl" >&2
