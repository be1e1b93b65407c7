#!/usr/bin/env sh
# The full local gate: static analysis, build, test, lint. Run from the
# repo root. Everything is offline (all dependencies are vendored in
# vendor/).
set -eux

# Stage 1: in-tree static analysis (unit newtypes, panic-freedom, sim
# determinism, lock discipline, vendor hygiene, plus the v2 dataflow
# families: lock-order, newtype-escape, float-determinism and
# stale-suppression). Fails fast before the release build: any finding in
# any family fails, the linter's own sources included.
# `--list-checks` documents the families.
cargo run -p gllm-lint -- --deny all

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Stage 1.5: fault matrix. The chaos suite injects seeded faults (worker
# kills, dropped/delayed activations, KV reservation failures) into the
# threaded runtime and requires every recovered run to be bit-identical
# to the fault-free run — or a structured per-request rejection, never a
# panic or an indefinite stall. Runs in release: recovery respawns full
# pipeline stages, which is slow unoptimized.
cargo test -q --release -p gllm-runtime --test chaos

# Stage 2: perf self-benchmark. Times every figure family's sweep serial
# vs parallel over repeats, writes their median and quartiles to
# BENCH_sweep.json at the repo root, and exits nonzero if the parallel
# sweep's output ever diverges from the serial run on any repeat (the
# harness's bit-identity guarantee).
cargo run --release -p gllm-bench --bin perf_harness -- --quick
