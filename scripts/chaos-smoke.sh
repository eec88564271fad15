#!/usr/bin/env bash
# Chaos & kill-and-resume smoke for the supervised execution plane —
# the CI gate proving that broken grid points are contained and that an
# interrupted sweep resumes losslessly.
#
# 1. Chaos lint: the quick matrix plus an injected panicking algorithm
#    and an injected deadlocking algorithm. The sweep must finish every
#    healthy point, quarantine `chaos:panic` in the failure report,
#    diagnose `chaos:deadlock` as a deadlock finding, and exit 1. (That
#    the threaded reference driver contains them too is pinned by
#    `supervision::chaos_sweep_finishes_healthy_points_on_both_executors`.)
# 2. Kill-and-resume: a checkpointed `stp sweep` is SIGKILLed mid-run
#    (no handler runs, so the store is whatever its last journal append
#    left), then resumed. The resumed report must be byte-identical to
#    an uninterrupted reference run, with the checkpointed points
#    replayed instead of re-run.
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

# --- 1. chaos containment --------------------------------------------------
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
    sys.exit(f"nothing may be skipped without a deadline: {rep['skipped']}")
dead = [e for e in entries if e["algo"] == "chaos:deadlock"]
if len(dead) != 1 or not dead[0]["deadlocked"]:
    sys.exit("the deadlock fixture must record a deadlocked schedule")
for e in entries:
    if e["algo"] != "chaos:deadlock" and e["findings"]:
        sys.exit(f"healthy point {e['algo']}/{e['dist']} has findings: "
                 f"{e['findings']}")
EOF
echo "chaos-smoke: chaos lint contained both fixtures"

# --- 2. kill mid-sweep, resume, byte-compare -------------------------------
"$STP" sweep --json "$WORK/ref.json" > /dev/null \
  || fail "uninterrupted reference sweep failed"

set +e
timeout -s KILL 0.4 "$STP" sweep --checkpoint "$WORK/sweep.ckpt" \
  > /dev/null 2>&1
killed=$?
set -e
# 137 = killed mid-run (the interesting case); 0 = the host was fast
# enough to finish — the resume path is then a pure full replay, which
# the byte-compare below still gates.
[ "$killed" -eq 137 ] || [ "$killed" -eq 0 ] \
  || fail "interrupted sweep died unexpectedly (status $killed)"

"$STP" sweep --checkpoint "$WORK/sweep.ckpt" --resume \
  --json "$WORK/resumed.json" > "$WORK/resume.out" 2>&1 \
  || { cat "$WORK/resume.out" >&2; fail "resumed sweep failed"; }
grep -Eq ' [1-9][0-9]* replayed from checkpoint' "$WORK/resume.out" \
  || fail "resume replayed nothing: no finished point survived the SIGKILL"
cmp "$WORK/ref.json" "$WORK/resumed.json" \
  || fail "resumed report is not byte-identical to the uninterrupted run"
echo "chaos-smoke: killed sweep resumed byte-identically" \
     "($(grep -o '[0-9]* replayed' "$WORK/resume.out" | head -1))"
