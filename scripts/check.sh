#!/usr/bin/env bash
# Pre-merge gate: formatting, lints, rustdoc, and the tier-1 build+test suite.
# Everything runs offline against the vendored dependencies, and
# --locked makes any Cargo.lock drift a hard failure instead of a
# silent rewrite. (`cargo fmt` is the one invocation without --locked:
# rustfmt's wrapper rejects the flag and never touches the lockfile.)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "==> rustdoc (warnings are errors; catches stale intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked \
    --exclude proptest --exclude rand

echo "==> tier-1: release build + tests"
cargo build --release --offline --locked --workspace
cargo test -q --offline --locked --workspace

echo "ok: all checks passed"
