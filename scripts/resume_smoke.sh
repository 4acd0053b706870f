#!/usr/bin/env bash
# Resume smoke test: run a tiny experiment, SIGTERM it mid-training,
# resume it, and require the final summary.json to be byte-identical to
# an uninterrupted reference run, and `experiment status` to list all
# five stages as verified.  CI uploads both run manifests.
#
# Usage: scripts/resume_smoke.sh [workdir]   (default: ./resume-smoke)
set -euo pipefail

WORKDIR="${1:-resume-smoke}"
REF="$WORKDIR/run-ref"
INT="$WORKDIR/run-int"
# Enough iterations that the kill below always lands mid-training.
FLAGS=(--moves 6 --iterations 3000 --seed 4 --checkpoint-every 50)
CKPT="$INT/checkpoints/F18__F1/checkpoint.json"

rm -rf "$WORKDIR"
mkdir -p "$WORKDIR"

echo "== reference run (uninterrupted) =="
python -m repro.cli experiment --out "$REF" "${FLAGS[@]}"

echo "== interrupted run: SIGTERM after the first checkpoint =="
python -m repro.cli experiment --out "$INT" "${FLAGS[@]}" &
PID=$!
for _ in $(seq 1 240); do
    [ -f "$CKPT" ] && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.5
done
kill -TERM "$PID" 2>/dev/null || true
wait "$PID" || true

if [ -f "$INT/summary.json" ]; then
    echo "ERROR: run finished before it could be interrupted" >&2
    exit 1
fi
if [ ! -f "$CKPT" ]; then
    echo "ERROR: no training checkpoint was written before the kill" >&2
    exit 1
fi
echo "interrupted with checkpoint at: $(python -c "
import json, sys
print(json.load(open('$CKPT'))['iteration'])")/3000 iterations"

echo "== resumed run =="
python -m repro.cli experiment --out "$INT" "${FLAGS[@]}" --resume --progress

echo "== comparing artifacts =="
for artifact in summary.json history.csv report.txt analysis.json; do
    cmp "$REF/$artifact" "$INT/$artifact"
    echo "identical: $artifact"
done

echo "== status of the resumed run =="
STATUS="$(python -m repro.cli experiment status "$INT")"
echo "$STATUS"
STAGES="$(grep -cE '^(record|graph|train\[F18\|F1\]|analyze\[F18\|F1\]|report) ' <<<"$STATUS" || true)"
if [ "$STAGES" -ne 5 ]; then
    echo "ERROR: status lists $STAGES of the 5 stages" >&2
    exit 1
fi
if grep -q STALE <<<"$STATUS"; then
    echo "ERROR: status reports STALE outputs" >&2
    exit 1
fi
echo "resume smoke test passed"
