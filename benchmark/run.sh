#!/usr/bin/env bash
# Builds the benchmark, runs it untraced and traced over every workload,
# prints both tables and compares the untraced run with the recorded
# baseline. Run from anywhere; extra arguments (--seed N, --seconds S,
# --quick) go to both runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

cargo build --release --offline --manifest-path "$manifest"
run() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

run --out untraced "$@"
run --trace --out traced "$@"
# The baseline was recorded at the default seed and sizes; a --quick or
# reseeded run differs in its exact metrics by construction.
run compare "$here/baseline/untraced-a.json" "$here/out/untraced.json"
