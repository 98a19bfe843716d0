#!/usr/bin/env bash
# One-command gate: build + full tier-1 test suite, then the crash-recovery
# suite and the bench smokes (ctest labels `crash` and `smoke`) under
# AddressSanitizer and ThreadSanitizer.
#
#   scripts/check.sh               # everything
#   scripts/check.sh --fast        # tier-1 only (skip sanitizer builds)
#   scripts/check.sh --san asan    # one sanitizer preset only: the crash
#                                  # suite plus the smokes (asan or tsan)
#   scripts/check.sh --mutants     # mutation check of the restart replay
#                                  # rules (scripts/mutants.sh); not part
#                                  # of the default run or --fast
#
# Uses the CMake presets in CMakePresets.json (default / asan / tsan). The
# smoke list lives in bench/CMakeLists.txt (ctest label `smoke`); CI runs
# this script.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

# Crash suite and smokes under one sanitizer preset.
run_sanitizer() {
  local san="$1"
  echo "==> crash suite and bench smokes under ${san} (ctest -L 'crash|smoke')"
  cmake --preset "${san}"
  cmake --build --preset "${san}" -j "${JOBS}"
  ctest --preset "crash-${san}" -j "${JOBS}"
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
  --mutants) exec scripts/mutants.sh ;;
esac

# The full run includes the bench smokes (label `smoke`).
echo "==> tier-1: configure + build + full ctest (preset: default)"
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

if [[ "${FAST}" == 1 ]]; then
  echo "==> --fast: skipping sanitizer crash suites"
  exit 0
fi

for san in asan tsan; do
  run_sanitizer "${san}"
done

echo "==> all checks passed"
