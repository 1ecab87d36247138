#include "sparse/kernels/kernels.hpp"

namespace kylix::kernels {

namespace {
KernelTuning g_tuning;
}  // namespace

const KernelTuning& kernel_tuning() { return g_tuning; }

void set_kernel_tuning(const KernelTuning& tuning) { g_tuning = tuning; }

}  // namespace kylix::kernels
