#!/usr/bin/env bash
# Thread-sanitized test run: configures a dedicated build tree with
# -DKYLIX_SANITIZE=thread, builds everything, and runs the concurrency-
# sensitive ctest lanes under TSan (the address-sanitized twin is
# tools/asan_ctest.sh).
#
# Only the labeled lanes run — TSan's ~10x slowdown makes the full suite
# wasteful when most tests are single-threaded by construction (the async
# executor among them: it replays on a one-thread engine and prices on one
# event loop, so its lane runs under ASan only). Host concurrency comes
# from one place, ParallelBspEngine's thread pool, on either delivery
# policy (plain Wire or the replicated engine's ReplicaWire):
#   chaos       fault injection through pooled plain and replicated engines
#   membership  epoch swaps + heal/rejoin over pooled engines
#   hierarchy   the intra-node single-copy stage over sharded pool workers
#   tsan        the pool itself, the engine contract at 4 threads, the
#               replicated engine and its golden run at 4 threads, and
#               the other tests that start pool workers
#
# Usage: tools/tsan_ctest.sh [build-dir] [ctest-args...]
#   build-dir defaults to build-tsan (kept separate from the plain and asan
#   trees so switching sanitizers never forces a full reconfigure).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-tsan"}"
shift || true

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DKYLIX_SANITIZE=thread
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error: the first report fails the test instead of scrolling past.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"

ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
  -L chaos "$@"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
  -L membership "$@"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
  -L hierarchy "$@"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
  -L tsan "$@"
