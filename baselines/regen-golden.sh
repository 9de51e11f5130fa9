#!/usr/bin/env bash
# Regenerates the byte-identity goldens kept in baselines/golden/: the
# report and Prometheus metrics of the N=16 fleet run and of the mesh
# reboot run (seed 42), plus the sha256 of each run's Perfetto trace (the
# traces themselves are tens of megabytes), and the quick sequential
# `repro all` output (the paper's Fig. 5-8 and Tables III-V in virtual time).
#
# Usage: baselines/regen-golden.sh BIN_DIR OUT_DIR
#   BIN_DIR  directory holding release builds of vampos-fleet, vampos-mesh
#            and repro
#   OUT_DIR  where to write the outputs (created if missing)
#
# A change that must not move virtual time leaves every file identical:
#   baselines/regen-golden.sh target/release golden-out
#   diff -r baselines/golden golden-out
set -euo pipefail
bin=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
"$bin/vampos-fleet" --instances 16 --clients 32 --requests 120 \
  --trace-out fleet-n16.trace.json --metrics-out fleet-n16.prom > fleet-n16.txt
"$bin/vampos-mesh" --config reboot --clients 6 --requests 48 --seed 42 \
  --trace-out mesh-reboot.trace.json --metrics-out mesh-reboot.prom > mesh-reboot.txt
sha256sum fleet-n16.trace.json mesh-reboot.trace.json > traces.sha256
rm fleet-n16.trace.json mesh-reboot.trace.json
"$bin/repro" all --quick --sequential > repro-quick.txt
