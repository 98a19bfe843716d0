#!/usr/bin/env bash
# One-command gate: build + full tier-1 test suite, then the crash-recovery
# suite (ctest label `crash`) under AddressSanitizer and ThreadSanitizer.
#
#   scripts/check.sh               # everything
#   scripts/check.sh --fast        # tier-1 only (skip sanitizer builds)
#   scripts/check.sh --san asan    # one sanitizer preset only: the crash
#                                  # suite plus the smokes (asan or tsan)
#
# Uses the CMake presets in CMakePresets.json (default / asan / tsan).
# The sanitizer list below is the only copy: CI runs it per preset.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Crash suite and smokes under one sanitizer preset.
run_sanitizer() {
  local san="$1"
  echo "==> crash suite under ${san} (ctest -L crash)"
  cmake --preset "${san}"
  cmake --build --preset "${san}" -j "${JOBS}"
  ctest --preset "crash-${san}" -j "${JOBS}"
  echo "==> directory stress under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_directory
  "./build-${san}/bench/bench_directory" --stress-smoke
  echo "==> batch smoke under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_batch
  "./build-${san}/bench/bench_batch" --smoke
  echo "==> eviction stress under ${san}"
  "./build-${san}/bench/bench_directory" --evict
  echo "==> store smoke under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_store
  "./build-${san}/bench/bench_store" --smoke
  echo "==> serve smoke under ${san}"
  cmake --build --preset "${san}" -j "${JOBS}" --target bench_serve
  "./build-${san}/bench/bench_serve" --smoke
}

FAST=0
case "${1:-}" in
  --fast) FAST=1 ;;
  --san)
    case "${2:-}" in
      asan | tsan) ;;
      *) echo "usage: $0 --san asan|tsan" >&2; exit 2 ;;
    esac
    run_sanitizer "$2"
    echo "==> all ${2} checks passed"
    exit 0
    ;;
esac

echo "==> tier-1: configure + build + full ctest (preset: default)"
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

echo "==> restart smoke: checkpoint + tail replay audit (bench_journal)"
cmake --build --preset default -j "${JOBS}" --target bench_journal
./build/bench/bench_journal --restart-smoke

echo "==> directory stress: 100k-object create/drop/lookup race (bench_directory)"
cmake --build --preset default -j "${JOBS}" --target bench_directory
./build/bench/bench_directory --stress-smoke

echo "==> batch smoke: record economy + multi-object crash audit (bench_batch)"
cmake --build --preset default -j "${JOBS}" --target bench_batch
./build/bench/bench_batch --smoke

echo "==> eviction stress: cache-pressure create/drop/evict race (bench_directory --evict)"
./build/bench/bench_directory --evict

echo "==> store smoke: eviction sweep + restart arms + store crash sweep (bench_store)"
cmake --build --preset default -j "${JOBS}" --target bench_store
./build/bench/bench_store --smoke

echo "==> serve smoke: conservation + shed accounting + serving crash audit (bench_serve)"
cmake --build --preset default -j "${JOBS}" --target bench_serve
./build/bench/bench_serve --smoke

if [[ "${FAST}" == 1 ]]; then
  echo "==> --fast: skipping sanitizer crash suites"
  exit 0
fi

for san in asan tsan; do
  run_sanitizer "${san}"
done

echo "==> all checks passed"
