#!/usr/bin/env bash
# Full pre-merge check: build, tests, lints, formatting.
# Usage: scripts/check.sh [--sanitize | --durability-smoke | --skew-smoke]
#
# The default lane is stable-only and hermetic. `--sanitize` runs the
# dynamic-analysis lane instead: ThreadSanitizer over the concurrency
# tests (worker pool, arena, DAG scheduler) and Miri over the arena's
# unsafe core. Both need nightly tooling; each step is skipped with a
# notice when its toolchain component is absent, so the lane degrades
# gracefully on stable-only hosts.
#
# `--durability-smoke` runs the block-store durability lane: the
# backend-equivalence and restart suites (spill/OOM errors identical on
# both backends, durable runs bit-identical to memory), then the real
# kill-and-reexec drill — a victim process is aborted mid-sweep and a
# fresh process must resume from segments + manifest to a bit-identical
# model for one PARAFAC and one Tucker pipeline.
#
# `--skew-smoke` runs the heavy-key-skew lane: the DRI MTTKRP under the
# Dag scheduler is asserted bit-identical to the Sequential oracle on a
# power-law tensor, and the bench gates the host makespan ratio of a
# power-law tensor vs a uniform tensor at equal nnz to <= 1.2x.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--skew-smoke" ]]; then
    echo "==> skew gate (power-law/uniform host makespan ratio <= 1.2x, bit-identity oracle)"
    cargo run -p haten2-bench --release --bin haten2-engine-bench -- --skew-smoke
    echo "Skew smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--durability-smoke" ]]; then
    echo "==> backend equivalence (spill/OOM parity + bit-exact durable roundtrips)"
    cargo test --release -p haten2-mapreduce --test backend_equivalence -q
    cargo test --release -p haten2-mapreduce --test durable_restart -q
    echo "==> durable pipeline equivalence (8 pipelines, unlimited + zero-budget)"
    cargo test --release -p haten2-chaos --test durable_equivalence -q
    echo "==> kill-and-reexec drill (crash mid-sweep, resume in a fresh process)"
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    cargo run -p haten2-chaos --release --bin haten2-restart -- --dir "$tmpdir"
    echo "==> out-of-core smoke (spill-forced sweep, bit-identical to in-memory)"
    cargo run -p haten2-bench --release --bin haten2-blockstore-bench -- --smoke
    echo "Durability smoke passed."
    exit 0
fi

if [[ "${1:-}" == "--sanitize" ]]; then
    if ! command -v rustup >/dev/null 2>&1 || ! rustup toolchain list 2>/dev/null | grep -q '^nightly'; then
        echo "==> sanitize lane SKIPPED: no nightly toolchain installed (rustup toolchain install nightly)"
        exit 0
    fi
    host="$(rustc -vV | sed -n 's/^host: //p')"
    if rustup component list --toolchain nightly 2>/dev/null | grep -q 'rust-src.*(installed)'; then
        echo "==> TSan: pool/arena/sched tests (suppressions: scripts/tsan.supp)"
        # TSan only instruments our code unless std is rebuilt; harness-internal
        # reports are filtered by the documented suppressions file.
        RUSTFLAGS="-Zsanitizer=thread" \
        TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp" \
        cargo +nightly test -Zbuild-std --target "$host" -p haten2-mapreduce \
            --features race-detect -- pool arena sched race
    else
        echo "==> TSan SKIPPED: rust-src not installed (rustup +nightly component add rust-src)"
    fi
    if rustup component list --toolchain nightly 2>/dev/null | grep -q 'miri.*(installed)'; then
        echo "==> Miri: arena unsafe-core tests"
        cargo +nightly miri test -p haten2-mapreduce arena
    else
        echo "==> Miri SKIPPED: component not installed (rustup +nightly component add miri)"
    fi
    echo "Sanitize lane passed."
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench tests (not a workspace member, so library API breaks would pass the workspace suite)"
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> haten2-chaos smoke (fault-transparency, recovery certificates, dynamic race detector)"
cargo run -p haten2-chaos --release --bin haten2-chaos -- --seeds 2 --seed-base 7

echo "==> dag_speedup smoke (scheduler equivalence + 2x simulated speedup on the Naive-Tucker sweep)"
cargo run -p haten2-bench --release --bin haten2-engine-bench -- --dag-smoke

echo "==> perf smoke (dag must beat sequential on this host; fault-free overhead <= 5%)"
cargo run -p haten2-bench --release --bin haten2-engine-bench -- --perf-smoke

echo "==> cargo xtask analyze (lint, paper table + ANALYSIS.md staleness gate, reject demo, determinism, JSON smoke)"
cargo xtask analyze

echo "==> cargo xtask lint --list-allows (every lint:allow must carry a justification)"
cargo xtask lint --list-allows

echo "All checks passed."
