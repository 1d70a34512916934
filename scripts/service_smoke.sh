#!/usr/bin/env bash
# End-to-end smoke of the ingestion service: frserve on a Unix domain
# socket, frload pushing a fleet through a faulty channel (bit flips,
# drops, duplicates) with NACK retransmission, then --verify: the server's
# shutdown checkpoint must restore to estimates bitwise-identical to the
# equivalent in-process run, with equal delivery counters. Runs twice:
# FutureRand, and memoized L-GRR at a non-default --alpha (both tools must
# randomize and debias at the same eps_1/eps_perm split).
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

n=2000

json_field() {
  { grep -o "\"$2\":[0-9-]*" "$1" || true; } | head -n 1 | cut -d: -f2
}

# run_service NAME [FRSERVE_ARG...] -- [FRLOAD_ARG...]
run_service() {
  local name="$1"
  shift
  local serve_args=()
  while [[ "$1" != "--" ]]; do
    serve_args+=("$1")
    shift
  done
  shift
  local sock="$workdir/$name.sock"
  local ckpt="$workdir/$name.ckpt"
  local serve_out="$workdir/$name.frserve.out"
  local load_out="$workdir/$name.frload.out"

  "$FRSERVE" --uds="$sock" --d=32 --k=2 --eps=1.0 --workers=2 --dedup \
    --checkpoint="$ckpt" --checkpoint-interval-ms=50 \
    --checkpoint-mode=delta --checkpoint-compact-every=4 \
    "${serve_args[@]}" --json >"$serve_out" 2>&1 &
  server_pid=$!

  # Startup barrier: frserve prints its ready line once listening.
  for _ in $(seq 1 100); do
    grep -q "frserve ready" "$serve_out" 2>/dev/null && break
    if ! kill -0 "$server_pid" 2>/dev/null; then
      echo "frserve died during startup:" >&2
      cat "$serve_out" >&2
      exit 1
    fi
    sleep 0.1
  done
  grep -q "frserve ready" "$serve_out"

  "$FRLOAD" --uds="$sock" --connections=3 --n="$n" --d=32 --k=2 --eps=1.0 \
    --seed=7 --workload-seed=3 \
    --corrupt-rate=0.05 --drop-rate=0.02 --dup-rate=0.01 --dedup \
    --retransmit-budget=16 \
    --checkpoint="$ckpt" --verify "$@" --json | tee "$load_out"

  # frload sent kShutdown; the server drains, checkpoints, acks, and exits 0.
  wait "$server_pid"
  server_pid=""
  cat "$serve_out"

  # The bench JSON is the artifact CI uploads; verify must have passed.
  grep -q '"bench":"frserve"' "$serve_out"
  grep -q '"verify":1' "$load_out"

  # Cross-tool counter agreement: the server counts report records apart
  # from registrations, so its records_applied must equal the sender's, and
  # its registrations_applied must be exactly the --n clients that
  # registered.
  local served sent registered
  served="$(json_field "$serve_out" records_applied)"
  sent="$(json_field "$load_out" records_applied)"
  registered="$(json_field "$serve_out" registrations_applied)"
  if [[ -z "$served" || "$served" != "$sent" ]]; then
    echo "$name: records_applied differ: frserve=$served frload=$sent" >&2
    exit 1
  fi
  if [[ "$registered" != "$n" ]]; then
    echo "$name: frserve registrations_applied=$registered," \
      "expected --n=$n" >&2
    exit 1
  fi
}

run_service future_rand --
run_service lgrr --randomizer=lgrr --alpha=0.3 -- --protocol=lgrr --alpha=0.3
echo "service smoke OK"
