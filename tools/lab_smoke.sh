#!/usr/bin/env bash
# End-to-end smoke for the traffic lab (docs/TRAFFIC_LAB.md):
#
#   1. save-tiny a checkpoint; generate a Zipf trace twice and
#      require the two trace files to be byte-identical (the
#      deterministic-generation contract)
#   2. sweep the trace through every registered cache policy
#   3. replay the trace locally for every policy x worker count in
#      {lru, slru, tinylfu} x {1, 2, 4} with --check: every reply
#      must be bit-exact against the engine's uncached reference,
#      so worker count and policy provably change only speed
#   4. serve the checkpoint through a pool-served difftuned
#      (--workers 2), replay the trace against it over the wire
#      (self-consistency audit), and difftune_compare check the
#      daemon against a checkpoint-built .preds artifact (exit 0 =
#      every block bit-exact across the process boundary)
#   5. SIGTERM the daemon and require a graceful-drain exit 0
#
# Usage: lab_smoke.sh <difftuned> <difftune_lab> <difftune_compare>
#
# Run by the examples.lab_smoke CTest entry and the lab-smoke CI job.
set -Eeuo pipefail

DIFFTUNED=${1:?usage: lab_smoke.sh <difftuned> <difftune_lab> \
<difftune_compare>}
LAB=${2:?usage: lab_smoke.sh <difftuned> <difftune_lab> \
<difftune_compare>}
COMPARE=${3:?usage: lab_smoke.sh <difftuned> <difftune_lab> \
<difftune_compare>}
WORKDIR=$(mktemp -d)
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Every failure names the step it happened in: an unbound variable
# or a failing command mid-script must never exit behind the last
# banner's misleading "OK"-looking output.
STEP="startup"
step() { STEP="$*"; echo "== $STEP"; }
on_err() {
    echo "FAIL: step '$STEP' failed at line $1 (exit $2)" >&2
}
trap 'on_err "$LINENO" "$?"' ERR

GEN_ARGS=(--seed 3 --corpus 64 --requests 600 --zipf 1.1 \
    --respell 0.3)

step "save-tiny checkpoint"
"$DIFFTUNED" save-tiny "$WORKDIR/m.ckpt" 5

step "gen twice: same knobs must be byte-identical"
"$LAB" gen "$WORKDIR/a.trace" "${GEN_ARGS[@]}"
"$LAB" gen "$WORKDIR/b.trace" "${GEN_ARGS[@]}"
cmp "$WORKDIR/a.trace" "$WORKDIR/b.trace" ||
    { echo "FAIL: same-seed traces differ"; exit 1; }

step "policy sweep"
"$LAB" sweep "$WORKDIR/a.trace" --capacity 16

step "replay matrix: policy x workers, bit-exact vs uncached reference"
# --check exits 1 if any reply differs from predictUncached, so an
# exit 0 over the full matrix asserts the acceptance bit-stability:
# every policy and every worker count in {1, 2, 4} serves the same
# bits.
for policy in lru slru tinylfu; do
    for workers in 1 2 4; do
        echo "   policy=$policy workers=$workers"
        "$LAB" replay "$WORKDIR/a.trace" --ckpt "$WORKDIR/m.ckpt" \
            --policy "$policy" --workers "$workers" \
            --capacity 16 --check
    done
done

step "start pool-served difftuned (--workers 2, ephemeral port)"
"$DIFFTUNED" serve default="$WORKDIR/m.ckpt" --workers 2 \
    --port 0 --port-file "$WORKDIR/port.txt" &
DAEMON_PID=$!

# The port file is written only once the socket is live.
for _ in $(seq 1 100); do
    [ -s "$WORKDIR/port.txt" ] && break
    kill -0 "$DAEMON_PID" 2>/dev/null ||
        { echo "FAIL: daemon died before listening"; exit 1; }
    sleep 0.1
done
[ -s "$WORKDIR/port.txt" ] ||
    { echo "FAIL: no port file after 10s"; exit 1; }
PORT=$(cat "$WORKDIR/port.txt")
echo "   port $PORT"

step "replay the trace against the pool-served daemon"
"$LAB" replay "$WORKDIR/a.trace" --daemon "$PORT"

step "compare: checkpoint .preds vs pool-served daemon must exit 0"
"$COMPARE" snapshot "$WORKDIR/ref.preds" --ckpt "$WORKDIR/m.ckpt"
"$COMPARE" check "$WORKDIR/ref.preds" --daemon "$PORT" > /dev/null

step "SIGTERM: graceful drain must exit 0"
kill -TERM "$DAEMON_PID"
DRAIN_RC=0
wait "$DAEMON_PID" || DRAIN_RC=$?
DAEMON_PID=""
if [ "$DRAIN_RC" -ne 0 ]; then
    echo "FAIL: difftuned exited $DRAIN_RC after SIGTERM"
    exit 1
fi

echo "lab smoke OK"
