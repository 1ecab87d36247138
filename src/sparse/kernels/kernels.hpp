// Tuning knobs for the vectorized sparse kernels.
//
// The paper's cost model (§IV) treats configuration and reduction as
// memory-speed passes; the kernels under this directory exist to make that
// assumption true on a real host. Each kernel has a scalar counterpart it is
// benchmarked against (bench/micro_kernels -> BENCH_kernels.json), and the
// size thresholds the kernels consult live here, so a re-tune is one struct
// update rather than a code change.
//
// Thread-safety: the process-wide tuning is read on every union; engines run
// nodes on worker threads, so set_kernel_tuning() must happen before any
// configure/reduce traffic (tuning is start-up configuration, not a per-call
// parameter).
#pragma once

#include <cstddef>

namespace kylix::kernels {

/// Process-wide kernel thresholds. Defaults come from bench/micro_kernels on
/// the development host; autotune (core/autotune.hpp) re-exports them so the
/// §IV workflow and the kernel thresholds live in one place.
struct KernelTuning {
  /// Below this many keys, std::sort beats the 8-pass LSD radix sort
  /// (histogram + ping-pong setup dominates at small n).
  std::size_t radix_min_keys = 512;

  /// merge_union_into switches to galloping (exponential search + bulk copy)
  /// when one input is at least this many times the other.
  std::size_t gallop_ratio = 8;

  /// Elements of lookahead for software prefetch in scatter/gather. ~16
  /// covers DRAM latency at one 4-byte map entry per element without
  /// overrunning small inputs.
  std::size_t prefetch_distance = 16;
};

/// Read the active tuning (cheap; returns a reference to process state).
[[nodiscard]] const KernelTuning& kernel_tuning();

/// Replace the active tuning. Call before engines start (see header note).
void set_kernel_tuning(const KernelTuning& tuning);

}  // namespace kylix::kernels
