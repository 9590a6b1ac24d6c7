#!/usr/bin/env bash
# Crash-recovery integration drill, run in CI and usable locally:
#
#   1. start the durable streaming example (write-ahead op log +
#      epoch-consistent checkpoints under a scratch directory);
#   2. SIGKILL it mid-run — no shutdown path of any kind runs;
#   3. restart with --restore and assert that recovery succeeds and the
#      resumed run completes.
#
#   scripts/crash-recovery-test.sh [path/to/example_streaming_ingest]
#
# The binary defaults to build/examples/example_streaming_ingest.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=${1:-build/examples/example_streaming_ingest}
if [[ ! -x "$bin" ]]; then
    echo "crash-recovery-test: $bin not built" >&2
    exit 1
fi

dir=$(mktemp -d)
log=$(mktemp)
trap 'rm -rf "$dir" "$log"' EXIT

# 1. A run sized to take far longer than the kill delay. The metrics
#    exporter appends + flushes one JSONL snapshot per tick, so the file
#    must survive the SIGKILL with parseable lines (asserted below).
metrics="$dir/metrics.jsonl"
"$bin" --checkpoint-dir="$dir" --writes=500000 \
    --metrics-out="$metrics" --metrics-interval=200 >"$log" 2>&1 &
pid=$!

# 2. Let it stream long enough to cut at least one checkpoint + log tail,
#    then kill it dead. Wait for the first checkpoint manifest so the kill
#    always lands mid-stream, not before durability started.
for _ in $(seq 1 120); do
    [[ -e "$dir/MANIFEST" ]] && break
    sleep 0.25
done
sleep 1
kill -9 "$pid" 2>/dev/null || {
    echo "crash-recovery-test: run finished before the kill; raise --writes" >&2
    cat "$log" >&2
    exit 1
}
wait "$pid" 2>/dev/null || true
if [[ ! -e "$dir/MANIFEST" ]]; then
    echo "crash-recovery-test: no checkpoint manifest before the kill" >&2
    exit 1
fi
echo "killed pid $pid; durable state:"
ls -l "$dir"

# The SIGKILLed process must leave a metrics file whose final snapshot is
# still parseable — the exporter's append-and-flush-per-tick contract.
python3 - "$metrics" <<'EOF'
import json, sys
lines = [ln for ln in open(sys.argv[1]).read().splitlines() if ln.strip()]
ok = 0
for ln in lines:
    snap = json.loads(ln)  # every flushed line must parse standalone
    assert isinstance(snap.get("ts_ms"), int), "snapshot missing ts_ms"
    assert isinstance(snap.get("counters"), dict), "snapshot missing counters"
    ok += 1
assert ok >= 1, "no metrics snapshot survived the SIGKILL"
print(f"crash-recovery-test: {ok} metrics snapshots survived the kill")
EOF

# 3. Recovery + resumed run must succeed — with the introspection plane
#    up: /readyz must answer 503 while the recovery replay (plus the
#    --induce-stall-ms post-recovery hold) keeps the readiness gate down,
#    and flip to 200 once the restored engine is serving. The resumed run
#    streams long enough that the 200 window ends when the ingest-stall
#    rule sees its backed-up queue (about 0.1-0.16 s), not when the run
#    exits: a run of a few thousand writes can exit within one poll gap
#    of the gate opening.
restore_log="$dir/restore.log"
"$bin" --checkpoint-dir="$dir" --restore --writes=100000 \
    --http-port=0 --induce-stall-ms=2000 >"$restore_log" 2>&1 &
restore_pid=$!

port=""
for _ in $(seq 1 100); do
    port=$(grep -oE 'rank 0 serving http://127\.0\.0\.1:[0-9]+' \
        "$restore_log" | grep -oE '[0-9]+$' || true)
    [[ -n "$port" ]] && break
    sleep 0.1
done
if [[ -z "$port" ]]; then
    echo "crash-recovery-test: no introspection port in the restore run" >&2
    cat "$restore_log" >&2
    exit 1
fi

python3 - "$port" <<'EOF'
import sys, time, urllib.error, urllib.request

def readyz(port):
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/readyz", timeout=2) as resp:
            return resp.status
    except urllib.error.HTTPError as e:
        return e.code
    except OSError:
        return None

port = sys.argv[1]
# The gate starts down (recovery replay + the induced hold): the FIRST
# reachable answer must be 503.
first = None
deadline = time.monotonic() + 10.0
while time.monotonic() < deadline and first is None:
    first = readyz(port)
    if first is None:
        time.sleep(0.05)
assert first == 503, f"expected 503 during recovery replay, got {first}"
# ...and must flip to 200 once the restored engine serves. Poll every
# 10 ms: the 200 window lasts about 0.1 s.
deadline = time.monotonic() + 30.0
status = first
while time.monotonic() < deadline and status != 200:
    time.sleep(0.01)
    status = readyz(port)
assert status == 200, f"/readyz never reached 200 after recovery ({status})"
print("crash-recovery-test: /readyz held 503 through replay, then 200")
EOF

wait "$restore_pid"
out=$(cat "$restore_log")
echo "$out"
grep -q "recovery OK" <<<"$out"
grep -q "durable run OK" <<<"$out"
echo "crash-recovery-test: PASSED"
