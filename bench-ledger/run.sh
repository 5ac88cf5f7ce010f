#!/usr/bin/env bash
# Builds the program under test (specfetch-repro) and the ledger from
# source, then runs the ledger with the given arguments, e.g.
#
#   bash bench-ledger/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the
# last line of stdout is the ledger's JSON result. Both builds land in
# $CARGO_TARGET_DIR (default: target/), the ledger's in a subdirectory
# of its own because it is a separate Cargo workspace.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --quiet --manifest-path "$root/Cargo.toml" \
    -p specfetch-service --bin specfetch-repro >&2
CARGO_TARGET_DIR="$target/ledger" cargo build --release --quiet \
    --manifest-path "$here/Cargo.toml" --bin bench-ledger >&2
exec "$target/ledger/release/bench-ledger" "$@"
