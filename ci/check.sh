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

# Stage 1.7: the benchmark's view of the crates. perfbench/ is its own
# workspace and names the sim, runtime, transformer and frontend APIs, so
# an API break would otherwise show only when the benchmark runs. Building
# it rewrites perfbench/Cargo.lock, which is one of the benchmark's files:
# the lock is saved first and restored whether or not the check passes.
lock_backup=$(mktemp)
cp perfbench/Cargo.lock "$lock_backup"
perfbench_status=0
cargo check --release --offline --all-targets --manifest-path perfbench/Cargo.toml \
  || perfbench_status=$?
cp "$lock_backup" perfbench/Cargo.lock
rm -f "$lock_backup"
[ "$perfbench_status" -eq 0 ]

# Stage 2: perf self-benchmark. Times every figure family's sweep serial
# vs parallel over repeats and exits nonzero if the parallel sweep's
# output ever diverges from the serial run on any repeat (the harness's
# bit-identity guarantee). The harness writes its timings to
# BENCH_sweep.json at the repo root; the committed file is the record of
# a full run, so it is saved first and restored whether or not the stage
# passes, and CI leaves the tree as it found it.
sweep_backup=$(mktemp)
cp BENCH_sweep.json "$sweep_backup"
harness_status=0
cargo run --release -p gllm-bench --bin perf_harness -- --quick || harness_status=$?
cp "$sweep_backup" BENCH_sweep.json
rm -f "$sweep_backup"
[ "$harness_status" -eq 0 ]

# Stage 3: byte-identity of the simulation plane. Every sim-plane figure
# binary rewrites its bench-results/*.json, and the stage fails if any of
# them differs from the committed file, so a change meant to keep outputs
# identical is checked, not trusted. tab01_functionality.json is left out:
# its LOC inventory moves with the code (its 24 probes are checked by the
# test suite).
for bin in crates/bench/src/bin/*.rs; do
  name=$(basename "$bin" .rs)
  case "$name" in
    tab01_functionality | perf_harness) continue ;;
  esac
  cargo run --release -q -p gllm-bench --bin "$name" > /dev/null
done
git diff --exit-code --stat -- bench-results ':(exclude)bench-results/tab01_functionality.json'
