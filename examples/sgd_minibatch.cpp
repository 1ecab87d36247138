// Minibatch SGD over Kylix — the §I-A.1 workload, using the combined
// configure+reduce mode (in/out sets change every step, so configuration
// piggybacks on reduction messages).
//
// Trains distributed logistic regression on synthetic power-law data with
// a planted model, printing per-step loss and modeled communication time.
#include <cstdio>

#include "kylix.hpp"

int main() {
  using namespace kylix;

  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();

  DistributedSgd<ParallelBspEngine<real_t>>::Options options;
  options.num_features = 1u << 14;
  options.samples_per_batch = 256;
  options.features_per_sample = 12;
  options.alpha = 1.1;
  options.learning_rate = 0.3;
  options.steps = 30;
  options.seed = 2014;

  NetworkModel net = NetworkModel::ec2_like();
  net.set_message_overhead(4e-5);
  const ComputeModel compute;
  TimingAccumulator timing(m, net, compute, 16);
  ParallelBspEngine<real_t> engine(m, 1, nullptr, nullptr, &timing);

  std::printf("distributed logistic regression: %llu features, %u machines, "
              "topology %s, one combined configure+reduce per step\n\n",
              static_cast<unsigned long long>(options.num_features), m,
              topo.to_string().c_str());

  DistributedSgd<ParallelBspEngine<real_t>> sgd(&engine, topo, options,
                                                &compute, &timing);
  const auto stats = sgd.run();

  std::printf("%-6s %-10s %-14s\n", "step", "loss", "comm(model)");
  for (std::size_t s = 0; s < stats.size(); ++s) {
    if (s % 3 == 0 || s + 1 == stats.size()) {
      std::printf("%-6zu %-10.4f %-14s\n", s + 1, stats[s].loss,
                  format_seconds(stats[s].comm_s).c_str());
    }
  }

  const double early = stats.front().loss;
  const double late = stats.back().loss;
  std::printf("\nloss %.4f -> %.4f (%s)\n", early, late,
              late < early ? "learning: PASS" : "not learning: FAIL");
  std::printf("weight of hottest feature (planted vs learned sign match): "
              "w[0] = %+.3f\n",
              sgd.weight(0));
  return late < early ? 0 : 1;
}
