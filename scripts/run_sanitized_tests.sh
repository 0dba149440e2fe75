#!/usr/bin/env bash
# Configures a dedicated build tree with -DLSVD_SANITIZE=address,undefined
# and runs the test suite under it. Usage:
#
#   scripts/run_sanitized_tests.sh [--touched[=BASE]] [build-dir] \
#       [ctest-args...]
#
# Defaults to build-asan/ next to the source tree. Extra arguments are
# forwarded to ctest (e.g. -R LsvdDisk to narrow the run). The fault model
# the sanitizers check against is documented in DESIGN.md ("Fault model").
#
# With --touched, only the tests/<name>_test.cc files changed relative to
# BASE (default: the working tree vs HEAD, including untracked test files)
# are built and executed — the cheap sanitizer pass the tier-1 ctest flow
# runs on every change (see tests/CMakeLists.txt, `sanitized_touched`).
# When nothing relevant changed it exits 0 without configuring anything.
set -eu

SRC_DIR="$(cd "$(dirname "$0")/.." && pwd)"

TOUCHED=0
BASE="HEAD"
case "${1:-}" in
  --touched)
    TOUCHED=1
    shift
    ;;
  --touched=*)
    TOUCHED=1
    BASE="${1#--touched=}"
    shift
    ;;
esac

BUILD_DIR="${1:-$SRC_DIR/build-asan}"
shift || true

if [ "$TOUCHED" = 1 ]; then
  if ! git -C "$SRC_DIR" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "sanitized: not a git checkout, skipping touched-test pass"
    exit 0
  fi
  # --diff-filter=d: a deleted test file has no target left to build.
  changed="$( { git -C "$SRC_DIR" diff --name-only --diff-filter=d "$BASE" \
                    -- 'tests/*.cc';
                git -C "$SRC_DIR" ls-files --others --exclude-standard \
                    -- 'tests/*.cc'; } 2>/dev/null | sort -u)"
  targets=""
  for f in $changed; do
    name="$(basename "$f" .cc)"
    case "$name" in
      *_test) targets="$targets $name" ;;
    esac
  done
  if [ -z "$targets" ]; then
    echo "sanitized: no touched test sources vs $BASE, nothing to run"
    exit 0
  fi
  echo "sanitized: touched tests vs $BASE:$targets"
fi

cmake -S "$SRC_DIR" -B "$BUILD_DIR" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DLSVD_SANITIZE=address,undefined

# halt_on_error so ctest reports UBSan findings as failures, not log noise.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

if [ "$TOUCHED" = 1 ]; then
  # shellcheck disable=SC2086
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target $targets
  status=0
  for t in $targets; do
    echo "=== sanitized: $t ==="
    "$BUILD_DIR/tests/$t" || status=1
  done
  exit "$status"
fi

cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
