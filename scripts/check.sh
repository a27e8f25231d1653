#!/usr/bin/env bash
# Sanitizer gate: builds a Debug tree with ThreadSanitizer + UBSan and runs
# the whole test suite under it, one ctest job per CPU. Every suite runs,
# not only the ones that start threads: the live runtime, transport, store,
# fault, scenario and policy suites are where races live, and the rest are
# cheap and catch undefined behaviour.
#
# Usage: scripts/check.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-tsan

cmake -B "$BUILD_DIR" -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread,undefined"
cmake --build "$BUILD_DIR"

# Combining the tsan and ubsan shared runtimes makes tsan intercept pipe()
# calls issued from libubsan's own internals (IsAccessibleMemoryRange) and
# report them as races; suppress anything rooted in libubsan — reports in
# *our* code keep firing.
SUPP="$PWD/$BUILD_DIR/tsan.supp"
printf 'called_from_lib:libubsan\n' > "$SUPP"

# halt_on_error so a race fails the run instead of scrolling past.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1} suppressions=$SUPP"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1 print_stacktrace=1}"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

echo "check.sh: the sanitized test suite passed"
