#!/usr/bin/env bash
# Crash-containment and resume smoke test for `scsim_cli sweep`.
#
# Drives the real binary through the two failure modes the isolation
# layer exists for:
#
#   1. a worker that dies mid-kernel by SIGSEGV (injected through the
#      SCSIM_FAULT_CRASH hook) — the sweep must finish, record those
#      jobs as "crashed", keep the others "ok", and exit nonzero;
#   2. the whole sweep killed with SIGKILL mid-flight and resumed from
#      its journal — the resumed manifests must be byte-identical to
#      an uninterrupted run's.
#
# Usage: tools/crash_sweep_smoke.sh [path-to-scsim_cli]   (default:
#        build/tools/scsim_cli)

set -euo pipefail

CLI=${1:-build/tools/scsim_cli}
if [ ! -x "$CLI" ]; then
    echo "error: $CLI not found — build the default preset first" >&2
    exit 2
fi
CLI=$(readlink -f "$CLI")

WORK=$(mktemp -d "${TMPDIR:-/tmp}/scsim_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# 3 apps x 2 designs (Baseline is always included) = 6 jobs.
SWEEP=("$CLI" sweep --apps pb-sgemm,rod-bfs,rod-nw --designs RBA
       --scale 0.05 --isolate --retries 1 --quiet)

echo "== 1. clean isolated run (reference manifests)"
"${SWEEP[@]}" --jobs 2 --out "$WORK/ref.json" --csv "$WORK/ref.csv"

echo "== 2. injected SIGSEGV is contained to its jobs"
rc=0
SCSIM_FAULT_CRASH=rod-bfs "${SWEEP[@]}" --jobs 2 \
    --out "$WORK/crash.json" --csv "$WORK/crash.csv" || rc=$?
if [ "$rc" -eq 0 ]; then
    echo "FAIL: sweep with a crashing job exited 0" >&2
    exit 1
fi
if ! grep -q '"status": "crashed"' "$WORK/crash.json"; then
    echo "FAIL: no crashed job recorded in the manifest" >&2
    exit 1
fi
ok=$(grep -c '"status": "ok"' "$WORK/crash.json")
if [ "$ok" -ne 4 ]; then   # rod-bfs crashes under both designs
    echo "FAIL: expected 4 ok jobs next to the crashes, got $ok" >&2
    exit 1
fi

echo "== 3. SIGKILL mid-sweep, then resume from the journal"
JOURNAL=$WORK/sweep.journal
rm -f "$JOURNAL"
"${SWEEP[@]}" --jobs 1 --journal "$JOURNAL" \
    --out "$WORK/killed.json" --csv "$WORK/killed.csv" &
pid=$!
# Kill -9 as soon as the first finished job hits the journal, so real
# work remains for the resumed run.
for _ in $(seq 1 600); do
    kill -0 "$pid" 2>/dev/null || break
    if grep -q '^record ' "$JOURNAL" 2>/dev/null; then
        kill -9 "$pid" 2>/dev/null || true
        break
    fi
    sleep 0.05
done
if wait "$pid"; then
    echo "note: sweep finished before the kill landed;" \
         "resume degenerates to adopt-everything"
fi

"${SWEEP[@]}" --jobs 2 --resume "$JOURNAL" \
    --out "$WORK/resumed.json" --csv "$WORK/resumed.csv"

cmp "$WORK/ref.json" "$WORK/resumed.json" || {
    echo "FAIL: resumed JSON manifest differs from the clean run" >&2
    exit 1
}
cmp "$WORK/ref.csv" "$WORK/resumed.csv" || {
    echo "FAIL: resumed CSV manifest differs from the clean run" >&2
    exit 1
}

echo "PASS: crash contained, kill+resume byte-identical"
