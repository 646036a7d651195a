#!/usr/bin/env bash
# Runs the three CI builds from the repository root, each in its own build
# directory, and exits non-zero if any step of any build fails:
#
#   build/       tier-1: default build, full ctest
#   build-asan/  ASan + UBSan, full ctest
#   build-tsan/  TSan, the serve, daemon and obs labels
#
# Usage: tools/ci.sh
set -u
cd "$(dirname "$0")/.."
JOBS=$(nproc)
failed=()

step() {
  local name="$1"
  shift
  echo "== ci: $name: $*"
  if ! "$@"; then
    echo "== ci: FAILED: $name: $*"
    failed+=("$name")
    return 1
  fi
}

build_and_test() {
  local name="$1" dir="$2" labels="$3"
  shift 3
  step "$name" cmake -B "$dir" -S . "$@" &&
    step "$name" cmake --build "$dir" -j "$JOBS" || return
  if [ -n "$labels" ]; then
    step "$name" ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L "$labels"
  else
    step "$name" ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
  fi
}

build_and_test tier-1 build ""
build_and_test asan-ubsan build-asan "" -DARA_ENABLE_ASAN=ON -DARA_ENABLE_UBSAN=ON
build_and_test tsan build-tsan "serve|daemon|obs" -DARA_ENABLE_TSAN=ON

if [ "${#failed[@]}" -ne 0 ]; then
  echo "== ci: FAILED builds: ${failed[*]}"
  exit 1
fi
echo "== ci: all builds passed"
