#!/bin/sh
# Coverage gate for the measurement substrate and the harness that
# drives it. Fails if the combined statement coverage of
# internal/perfevent (simulated kernel + fault injection), internal/core
# (degradation ladder), internal/telemetry (time-series store, rungs,
# fleet query layer), internal/fleet (generator, runner, streamer,
# anomaly detector), internal/stats (streaming aggregates),
# internal/telemetry/httpobs (serving-path request observer),
# internal/scenario (the harness run loop, invariants, injections),
# internal/sim (the stepped machine) and internal/trace (the 1 Hz
# recorder) drops below the baseline recorded in
# scripts/coverage_baseline.txt. Update the baseline deliberately, in
# the same commit that justifies the change.
set -eu
cd "$(dirname "$0")/.."
baseline=$(cat scripts/coverage_baseline.txt)
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -coverprofile="$profile" ./internal/perfevent ./internal/core \
  ./internal/telemetry ./internal/telemetry/httpobs ./internal/fleet \
  ./internal/stats ./internal/scenario ./internal/sim ./internal/trace
total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
awk -v t="$total" -v b="$baseline" 'BEGIN {
  printf "substrate coverage: %.1f%% (baseline %.1f%%)\n", t, b
  if (t + 0.0001 < b) { print "coverage gate FAILED"; exit 1 }
  print "coverage gate OK"
}'
