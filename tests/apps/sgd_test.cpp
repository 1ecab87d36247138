#include "apps/sgd.hpp"

#include <gtest/gtest.h>

#include "comm/parallel.hpp"

namespace kylix {
namespace {

using Engine = ParallelBspEngine<real_t>;

DistributedSgd<Engine>::Options small_options() {
  DistributedSgd<Engine>::Options options;
  options.num_features = 1 << 10;
  options.samples_per_batch = 128;
  options.features_per_sample = 8;
  options.alpha = 1.1;
  options.learning_rate = 0.3;
  options.steps = 25;
  options.seed = 61;
  return options;
}

TEST(DistributedSgd, LossDecreasesUnderTraining) {
  const Topology topo({4, 2});
  Engine engine(topo.num_machines(), 1);
  DistributedSgd<Engine> sgd(&engine, topo, small_options());
  const auto stats = sgd.run();
  ASSERT_EQ(stats.size(), 25u);
  double early = 0;
  double late = 0;
  for (int i = 0; i < 5; ++i) early += stats[i].loss;
  for (int i = 20; i < 25; ++i) late += stats[i].loss;
  // Starts near ln 2 ≈ 0.69 (random labels vs zero weights) and improves.
  EXPECT_GT(early / 5, 0.5);
  EXPECT_LT(late / 5, early / 5 * 0.9);
}

TEST(DistributedSgd, DeterministicAcrossRuns) {
  const Topology topo({2, 2});
  const auto options = small_options();
  std::vector<double> first;
  {
    Engine engine(4, 1);
    DistributedSgd<Engine> sgd(&engine, topo, options);
    for (const auto& s : sgd.run()) first.push_back(s.loss);
  }
  std::vector<double> second;
  {
    Engine engine(4, 1);
    DistributedSgd<Engine> sgd(&engine, topo, options);
    for (const auto& s : sgd.run()) second.push_back(s.loss);
  }
  EXPECT_EQ(first, second);
}

TEST(DistributedSgd, PlanReuseWithCyclingBatchesHitsCacheAndStillLearns) {
  // With distinct_batches = 4, step t's {in, out} fingerprint repeats with
  // period 4: the first cycle misses, every later step replays a cached
  // plan — and training still converges like the combined mode.
  const Topology topo({4, 2});
  Engine engine(topo.num_machines(), 1);
  auto options = small_options();
  options.reuse_plans = true;
  options.distinct_batches = 4;
  DistributedSgd<Engine> sgd(&engine, topo, options);
  const auto stats = sgd.run();
  ASSERT_EQ(stats.size(), 25u);
  for (std::size_t step = 0; step < stats.size(); ++step) {
    EXPECT_EQ(stats[step].plan_cache_hit, step >= 4) << "step " << step;
  }
  double early = 0;
  double late = 0;
  for (int i = 0; i < 5; ++i) early += stats[i].loss;
  for (int i = 20; i < 25; ++i) late += stats[i].loss;
  EXPECT_LT(late / 5, early / 5 * 0.9);
}

TEST(DistributedSgd, PlanReuseWithFreshBatchesNeverHits) {
  const Topology topo({2, 2});
  Engine engine(4, 1);
  auto options = small_options();
  options.steps = 5;
  options.reuse_plans = true;  // distinct_batches stays 0: fresh sets
  DistributedSgd<Engine> sgd(&engine, topo, options);
  for (const auto& step : sgd.run()) {
    EXPECT_FALSE(step.plan_cache_hit);
  }
}

TEST(DistributedSgd, HomeStoresStayConsistentWithTraining) {
  // After training, hot (head) features should have moved away from zero
  // toward the planted signal; weight() reads the authoritative store.
  const Topology topo({4});
  Engine engine(4, 1);
  DistributedSgd<Engine> sgd(&engine, topo, small_options());
  (void)sgd.run();
  double moved = 0;
  for (index_t f = 0; f < 20; ++f) {  // the Zipf head gets heavy traffic
    moved += std::abs(static_cast<double>(sgd.weight(f)));
  }
  EXPECT_GT(moved, 0.1);
}

TEST(DistributedSgd, RecordsCommTimingWhenAttached) {
  const Topology topo({2, 2});
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  TimingAccumulator timing(4, net, compute, 16);
  Engine engine(4, 1, nullptr, nullptr, &timing);
  auto options = small_options();
  options.steps = 3;
  DistributedSgd<Engine> sgd(&engine, topo, options, &compute, &timing);
  for (const auto& step : sgd.run()) {
    EXPECT_GT(step.comm_s, 0.0);
  }
}

TEST(DistributedSgd, SingleMachineStillLearns) {
  const Topology topo({});
  Engine engine(1, 1);
  auto options = small_options();
  options.steps = 20;
  DistributedSgd<Engine> sgd(&engine, topo, options);
  const auto stats = sgd.run();
  EXPECT_LT(stats.back().loss, stats.front().loss);
}

}  // namespace
}  // namespace kylix
