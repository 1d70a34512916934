#!/usr/bin/env bash
# End-to-end smoke of the ingestion service: frserve on a Unix domain
# socket, frload pushing a fleet through a faulty channel (bit flips,
# drops, duplicates) with NACK retransmission, then --verify: the server's
# shutdown checkpoint must restore to estimates bitwise-identical to the
# equivalent in-process run, with equal delivery counters.
#
# Binaries come from $FRSERVE / $FRLOAD (set by the smoke.service CTest
# entry) or default to the build tree.
set -euo pipefail

FRSERVE="${FRSERVE:-build/tools/frserve}"
FRLOAD="${FRLOAD:-build/tools/frload}"

workdir="$(mktemp -d)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

sock="$workdir/fr.sock"
ckpt="$workdir/fr.ckpt"

"$FRSERVE" --uds="$sock" --d=32 --k=2 --eps=1.0 --workers=2 --dedup \
  --checkpoint="$ckpt" --checkpoint-interval-ms=50 \
  --checkpoint-mode=delta --checkpoint-compact-every=4 \
  --json >"$workdir/frserve.out" 2>&1 &
server_pid=$!

# Startup barrier: frserve prints its ready line once listening.
for _ in $(seq 1 100); do
  grep -q "frserve ready" "$workdir/frserve.out" 2>/dev/null && break
  if ! kill -0 "$server_pid" 2>/dev/null; then
    echo "frserve died during startup:" >&2
    cat "$workdir/frserve.out" >&2
    exit 1
  fi
  sleep 0.1
done
grep -q "frserve ready" "$workdir/frserve.out"

n=2000
"$FRLOAD" --uds="$sock" --connections=3 --n="$n" --d=32 --k=2 --eps=1.0 \
  --seed=7 --workload-seed=3 \
  --corrupt-rate=0.05 --drop-rate=0.02 --dup-rate=0.01 --dedup \
  --retransmit-budget=16 \
  --checkpoint="$ckpt" --verify --json | tee "$workdir/frload.out"

# frload sent kShutdown; the server drains, checkpoints, acks, and exits 0.
wait "$server_pid"
server_pid=""
cat "$workdir/frserve.out"

# The bench JSON is the artifact CI uploads; verify must have passed.
grep -q '"bench":"frserve"' "$workdir/frserve.out"
grep -q '"verify":1' "$workdir/frload.out"

# Cross-tool counter agreement: the server counts report records apart from
# registrations, so its records_applied must equal the sender's, and its
# registrations_applied must be exactly the --n clients that registered.
json_field() {
  { grep -o "\"$2\":[0-9-]*" "$1" || true; } | head -n 1 | cut -d: -f2
}
served="$(json_field "$workdir/frserve.out" records_applied)"
sent="$(json_field "$workdir/frload.out" records_applied)"
registered="$(json_field "$workdir/frserve.out" registrations_applied)"
if [[ -z "$served" || "$served" != "$sent" ]]; then
  echo "records_applied differ: frserve=$served frload=$sent" >&2
  exit 1
fi
if [[ "$registered" != "$n" ]]; then
  echo "frserve registrations_applied=$registered, expected --n=$n" >&2
  exit 1
fi
echo "service smoke OK"
