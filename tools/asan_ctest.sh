#!/usr/bin/env bash
# Address-sanitized test run: configures a dedicated build tree with
# -DKYLIX_SANITIZE=address, builds everything, and runs the full ctest
# suite under ASan (the thread-sanitized twin is `ctest -L tsan` on a
# -DKYLIX_SANITIZE=thread tree; see tests/CMakeLists.txt).
#
# Usage: tools/asan_ctest.sh [build-dir] [ctest-args...]
#   build-dir defaults to build-asan (kept separate from the plain tree so
#   switching sanitizers never forces a full reconfigure of either).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-asan"}"
shift || true

cmake -S "${repo_root}" -B "${build_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DKYLIX_SANITIZE=address \
  -DKYLIX_WERROR=ON
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error keeps CI signal crisp: the first ASan report fails the test
# instead of scrolling past; leaks are on by default with ASan on Linux.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:strict_string_checks=1}"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" "$@"

# Focused chaos pass: the fault-injection/recovery tests exercise the
# gnarliest lifetime paths (delayed-letter staging, mid-round kills,
# degraded teardown), so run them again by label — this keeps them covered
# even when extra ctest args above filtered the full suite down.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" -L chaos

# Focused plan pass: the compiled-plan suite stresses shared-ownership
# lifetimes ASan is good at — plans outliving their compiler, adoption
# across allreduce instances and value types, executor scratch reuse, and
# LRU eviction dropping the last reference mid-replay sequence.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" -L plan

# Focused stream pass: the chunked produce/consume paths slice PosMaps into
# subspans and recycle chunk-sized value buffers through the pool — exactly
# the off-by-one-span and use-after-recycle bugs ASan exists to catch, plus
# the threaded engine's multi-letter-per-edge receive loop.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" -L stream

# Focused obs pass: the observability layer rides every hot path — the
# lock-free flight-recorder ring racing concurrent writers, histogram
# snapshots under concurrent observe(), watchdog scratch reuse, and the
# postmortem JSON round-trip — so it gets its own labeled lane.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" -L obs

# Focused async pass: each stream replays through ReduceExecutor's warm
# pools with its own short-lived FaultChannel and observer attached to the
# executor's engine — a rejected stream must detach both before they die —
# and the timeline pricer indexes per-lane boxes and schedule ranges by
# (rank, slot), where an off-by-one read surfaces.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" -L async

# Focused hierarchy pass: the two-tier replay reads peer value buffers
# directly from the leader (single-copy intra-node path) and slices
# union-position maps per member — exactly where a stale span into a
# swapped ping-pong buffer or an off-by-one member map would surface.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" -L hierarchy

# Focused membership pass: the elastic-membership loop swaps whole plans at
# epoch boundaries — old-epoch plans kept alive only by the async executor's
# shared_ptr after cache eviction, per-epoch degraded state reset, and the
# heal/rejoin recompile path — the exact place a stale plan pointer or a
# dropped last reference would surface as a use-after-free.
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" -L membership
