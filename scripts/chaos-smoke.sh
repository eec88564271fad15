#!/usr/bin/env bash
# Chaos containment smoke for the supervised execution plane — the CI
# gate proving that broken grid points are contained.
#
# Chaos lint: the quick matrix plus an injected panicking algorithm and
# an injected deadlocking algorithm. The sweep must finish every healthy
# point, quarantine `chaos:panic` in the failure report, diagnose
# `chaos:deadlock` as a deadlock finding, and exit 1. (The same
# containment in-process is pinned by
# `supervision::chaos_sweep_finishes_healthy_points`.)
#
#   ./scripts/chaos-smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

STP=target/release/stp
WORK="$(mktemp -d "${TMPDIR:-/tmp}/chaos-smoke.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
trap 'rm -rf "$WORK"; trap - INT TERM EXIT; exit 130' INT TERM
fail() { echo "chaos-smoke: $*" >&2; exit 1; }

cargo build -q --release -p stp-bench --bin stp

set +e
"$STP" lint --quick --chaos \
  --json "$WORK/chaos.json" > "$WORK/chaos.out" 2>&1
status=$?
set -e
[ "$status" -eq 1 ] \
  || { cat "$WORK/chaos.out" >&2; \
       fail "chaos lint must exit 1, exited $status"; }
grep -q 'FAILED chaos:panic/' "$WORK/chaos.out" \
  || fail "chaos lint: panicking point not quarantined"
grep -q 'deliberate chaos panic' "$WORK/chaos.out" \
  || fail "chaos lint: failure report lost the panic message"
grep -Eq 'chaos:deadlock.*\[deadlock/error\]' "$WORK/chaos.out" \
  || fail "chaos lint: deadlocking point not diagnosed"
python3 - "$WORK/chaos.json" <<'EOF' \
  || fail "chaos lint: report structure check failed"
import json, sys

with open(sys.argv[1]) as fh:
    rep = json.load(fh)
# quick matrix: 2 shapes x 8 dists x 2 source counts x 20 algorithms
# = 640 points, plus the two chaos points.
if rep["points"] != 642:
    sys.exit(f"the quick chaos matrix is 642 points, got {rep['points']}")
healthy = rep["points"] - 2
entries = rep["entries"]
if len(entries) != healthy + 1:
    sys.exit(f"expected {healthy} healthy entries + the deadlock fixture, "
             f"got {len(entries)}")
if [f["id"] for f in rep["failures"]] != ["chaos:panic/E/4x4/s2"]:
    sys.exit(f"failures must name exactly the panicking point: "
             f"{rep['failures']}")
if rep["skipped"]:
    sys.exit(f"nothing may be skipped: {rep['skipped']}")
dead = [e for e in entries if e["algo"] == "chaos:deadlock"]
if len(dead) != 1 or not dead[0]["deadlocked"]:
    sys.exit("the deadlock fixture must record a deadlocked schedule")
for e in entries:
    if e["algo"] != "chaos:deadlock" and e["findings"]:
        sys.exit(f"healthy point {e['algo']}/{e['dist']} has findings: "
                 f"{e['findings']}")
EOF
echo "chaos-smoke: chaos lint contained both fixtures"
