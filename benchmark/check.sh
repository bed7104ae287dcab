#!/usr/bin/env bash
# Builds the benchmark offline, lints it, runs its tests and the smoke
# test, then measures the whole suite twice and compares the two sets.
# Run from anywhere; about seven minutes on the 2-thread reference host.
set -euo pipefail
cd "$(dirname "$0")"
manifest=Cargo.toml

cargo build --release --offline --manifest-path "$manifest"
cargo fmt --manifest-path "$manifest" --check
cargo clippy --release --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --release --offline --manifest-path "$manifest"

run() { cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"; }

run --smoke
run --all --out out/set1.json
run --all --out out/set2.json
run --compare out/set1.json out/set2.json
run --all --trace 1 --out out/set1.traced.json
run --all --trace 1 --out out/set2.traced.json
run --compare out/set1.traced.json out/set2.traced.json
