#!/usr/bin/env bash
# Configure, build and test — the tier-1 verification used locally and in CI.
#
#   scripts/check.sh [build-dir]
#
# Environment:
#   CMAKE_BUILD_TYPE   build type (default Release; RelWithDebInfo when
#                      sanitizing)
#   JOBS               parallel build jobs (default: nproc)
#   SANITIZE           1|address -> ASan+UBSan build (default build dir
#                      build-asan), exercising the concurrent serving caches
#                      under the sanitizers
#                      thread    -> TSan build (default build dir
#                      build-tsan) running the eight concurrency-heavy
#                      suites (serve_test, parallel_test, net_test,
#                      drift_test, sim_test, blas_kernel_dispatch_test —
#                      threads taking first use of the process-wide
#                      microkernel and noise tiers at once — obs_test and
#                      fault_test), keeping
#                      the mutex-guarded slice map, the drift-refresh swap,
#                      the span ring's seqlock and the HTTP event loop /
#                      completion-hub handoff race-clean. The single-
#                      threaded blas_gemm_test and blas_syrk_symm_test
#                      run in the plain, scalar and ASan jobs
set -euo pipefail

cd "$(dirname "$0")/.."
SANITIZE="${SANITIZE:-0}"
TEST_FILTER=()
if [[ "$SANITIZE" == "1" || "$SANITIZE" == "address" ]]; then
  BUILD_DIR="${1:-build-asan}"
  CMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}"
  SANITIZE_FLAGS=(-DLAMB_SANITIZE=address)
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
elif [[ "$SANITIZE" == "thread" ]]; then
  BUILD_DIR="${1:-build-tsan}"
  CMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}"
  SANITIZE_FLAGS=(-DLAMB_SANITIZE=thread)
  TEST_FILTER=(-R 'serve_test|parallel_test|net_test|drift_test|sim_test|blas_kernel_dispatch_test|obs_test|fault_test')
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
  # Run the net suite multi-reactor under TSan: every ServedService that
  # does not pin a loop count serves with 2 event loops, so the REUSEPORT
  # sharding, acceptor handoff, cross-loop stop() and hub completion paths
  # are all race-checked.
  export LAMB_NET_TEST_LOOPS="${LAMB_NET_TEST_LOOPS:-2}"
else
  BUILD_DIR="${1:-build}"
  SANITIZE_FLAGS=()
fi
JOBS="${JOBS:-$(nproc)}"

GENERATOR=()
if command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

cmake -B "$BUILD_DIR" -S . "${GENERATOR[@]}" \
  -DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-Release}" "${SANITIZE_FLAGS[@]}"
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
  ${TEST_FILTER[@]+"${TEST_FILTER[@]}"}
