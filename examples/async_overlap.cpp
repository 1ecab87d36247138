// Async overlap: many reduces in flight over shared channels (DESIGN §11).
//
// Sixteen simulated machines share one compiled plan; eight independent
// reduces (think eight model replicas hitting the same sparsity pattern)
// are pushed through the async executor twice — serialized (window 1) and
// overlapped (window 8) — on the modeled EC2-like cluster clock.
// Overlapping fills the NIC gaps a lone stream leaves idle during
// handshake/propagation, so aggregate reduces/sec rises while every
// stream's result stays bit-identical to its serialized replay.
#include <cstdio>

#include "kylix.hpp"

int main() {
  using namespace kylix;

  // A 16-machine butterfly over a Zipf-distributed sparsity pattern: each
  // machine contributes to (and asks back) a power-law sample of the
  // feature space, the regime the paper's Section III is shaped for.
  const Topology topo({4, 4});
  const rank_t m = topo.num_machines();
  const std::uint64_t features = 1 << 14;
  const ZipfSampler zipf(features, /*alpha=*/0.9);
  const Rng rng(20260808);

  std::vector<KeySet> sets;
  std::vector<std::vector<float>> values;
  for (rank_t r = 0; r < m; ++r) {
    Rng machine_rng = rng.fork(r);
    std::vector<index_t> ids;
    for (int d = 0; d < 2000; ++d) ids.push_back(zipf(machine_rng) - 1);
    sets.push_back(KeySet::from_indices(ids));
    values.emplace_back(sets.back().size(), 1.0f);
  }

  // Compile once; the plan is the shared artifact every stream replays.
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  const std::shared_ptr<const CollectivePlan> plan =
      allreduce.compile(sets, sets);

  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute{};
  constexpr std::uint32_t kStreams = 8;

  const auto run = [&](std::uint32_t window, double& makespan) {
    AsyncExecutor<float> executor;
    AsyncExecutor<float>::Options opts;
    opts.window = window;
    opts.network = &net;
    opts.compute = &compute;
    executor.bind(plan, opts);
    std::vector<std::uint32_t> tags;
    for (std::uint32_t i = 0; i < kStreams; ++i) {
      tags.push_back(executor.submit(values));
    }
    executor.drain();
    makespan = executor.makespan_seconds();
    std::vector<std::vector<std::vector<float>>> outs;
    for (const std::uint32_t tag : tags) {
      outs.push_back(executor.take_result(tag));
    }
    return outs;
  };

  double serial_s = 0;
  double async_s = 0;
  const auto serial_outs = run(1, serial_s);
  const auto async_outs = run(kStreams, async_s);

  std::printf("%u machines, %u streams through one plan\n", m, kStreams);
  std::printf("  serialized (window 1): %.4f s  (%.1f reduces/s)\n",
              serial_s, kStreams / serial_s);
  std::printf("  overlapped (window %u): %.4f s  (%.1f reduces/s, %.2fx)\n",
              kStreams, async_s, kStreams / async_s, serial_s / async_s);
  std::printf("  results %s\n", async_outs == serial_outs
                                    ? "bit-identical to serialized replay"
                                    : "DIVERGED (bug!)");
  return 0;
}
