// Whole-pipeline integration tests: generate a paper-like workload, run the
// §IV design workflow, execute the allreduce on the simulated cluster, and
// check the paper's qualitative claims end to end.
#include <gtest/gtest.h>

#include <numeric>

#include "kylix.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

struct Workbench {
  GraphSpec spec;
  std::vector<Edge> edges;
  std::vector<std::vector<Edge>> parts;
  std::vector<KeySet> in_sets;
  std::vector<KeySet> out_sets;
  std::vector<std::vector<real_t>> values;
};

Workbench make_workbench(rank_t m, std::uint64_t vertices, double density) {
  Workbench w;
  w.spec.num_vertices = vertices;
  w.spec.alpha_in = 1.1;
  w.spec.alpha_out = 1.2;
  w.spec.num_edges =
      edges_for_partition_density(vertices, w.spec.alpha_in, m, density);
  w.spec.seed = 1234;
  w.edges = generate_zipf_graph(w.spec);
  w.parts = random_edge_partition(w.edges, m, 4321);
  for (const auto& part : w.parts) {
    const LocalGraph g{std::span<const Edge>(part)};
    UnionResult u = merge_union(g.sources().keys(), g.destinations().keys());
    w.in_sets.push_back(g.sources());
    w.out_sets.push_back(KeySet::from_sorted_keys(std::move(u.keys)));
    std::vector<real_t> values(w.out_sets.back().size());
    for (std::size_t p = 0; p < values.size(); ++p) {
      values[p] = static_cast<real_t>((p % 7) + 1);
    }
    w.values.push_back(std::move(values));
  }
  return w;
}

TEST(EndToEnd, CommunicationVolumeHasTheKylixShape) {
  // Fig. 5's qualitative claim: per-layer volume decreases going down the
  // scatter-reduce on power-law data.
  const rank_t m = 16;
  const Workbench w = make_workbench(m, 1 << 14, 0.2);
  const Topology topo({4, 2, 2});
  Trace trace;
  ParallelBspEngine<real_t> engine(m, 1, nullptr, &trace);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  (void)allreduce.reduce(w.values);
  const auto volumes = trace.bytes_by_layer(Phase::kReduceDown, 3);
  EXPECT_GT(volumes[0], volumes[1]);
  EXPECT_GT(volumes[1], volumes[2]);
  // The nested return pass mirrors the shape upward.
  const auto up = trace.bytes_by_layer(Phase::kReduceUp, 3);
  EXPECT_GT(up[0], up[2]);
}

TEST(EndToEnd, TotalVolumeIsASmallConstantTimesTheTopLayer) {
  // "total communication across all layers a small constant larger than
  // the top layer, which is close to optimal" (abstract).
  const rank_t m = 16;
  const Workbench w = make_workbench(m, 1 << 14, 0.2);
  Trace trace;
  ParallelBspEngine<real_t> engine(m, 1, nullptr, &trace);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, Topology({4, 2, 2}));
  allreduce.configure(w.in_sets, w.out_sets);
  (void)allreduce.reduce(w.values);
  const auto volumes = trace.bytes_by_layer(Phase::kReduceDown, 3);
  const double total = static_cast<double>(
      std::accumulate(volumes.begin(), volumes.end(), std::uint64_t{0}));
  EXPECT_LT(total, 3.0 * static_cast<double>(volumes[0]));
}

TEST(EndToEnd, TunedButterflyBeatsDirectAndBinaryOnModeledTime) {
  // Fig. 6's qualitative claim, on a scaled testbed: the autotuned
  // heterogeneous butterfly is faster than both degenerate schedules.
  const rank_t m = 16;
  const Workbench w = make_workbench(m, 1 << 15, 0.2);

  NetworkModel net = NetworkModel::ec2_like();
  net.set_message_overhead(2e-4);  // scaled to the smaller dataset
  const ComputeModel compute;

  const auto run_with = [&](const Topology& topo) {
    TimingAccumulator timing(m, net, compute, 16);
    ParallelBspEngine<real_t> engine(m, 1, nullptr, nullptr, &timing);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.configure(w.in_sets, w.out_sets);
    (void)allreduce.reduce(w.values);
    return timing.times().total();
  };

  AutotuneInput input;
  input.num_features = w.spec.num_vertices;
  input.num_machines = m;
  input.alpha = w.spec.alpha_in;
  input.partition_density =
      measure_density(std::span<const KeySet>(w.out_sets),
                      w.spec.num_vertices);
  input.network = net;
  const Topology tuned = autotune_topology(input);

  const double tuned_time = run_with(tuned);
  const double direct_time = run_with(Topology::direct(m));
  const double binary_time = run_with(Topology::binary(m));
  EXPECT_LT(tuned_time, direct_time);
  EXPECT_LE(tuned_time, binary_time * 1.05);
}

TEST(EndToEnd, ThreadsImproveModeledRuntimeWithDiminishingReturns) {
  // Fig. 7's shape: strong gains from 1 to ~4 threads, marginal beyond 16.
  const rank_t m = 16;
  const Workbench w = make_workbench(m, 1 << 14, 0.2);
  NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  const auto run_with_threads = [&](std::uint32_t threads) {
    TimingAccumulator timing(m, net, compute, threads);
    ParallelBspEngine<real_t> engine(m, 1, nullptr, nullptr, &timing);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
        &engine, Topology({4, 2, 2}), &compute);
    allreduce.configure(w.in_sets, w.out_sets);
    (void)allreduce.reduce(w.values);
    return timing.times().total();
  };
  const double t1 = run_with_threads(1);
  const double t4 = run_with_threads(4);
  const double t16 = run_with_threads(16);
  const double t32 = run_with_threads(32);
  EXPECT_LT(t4, t1);
  EXPECT_LE(t16, t4);
  EXPECT_NEAR(t32, t16, t16 * 0.05);  // saturation beyond 16 threads
}

TEST(EndToEnd, ReplicationCostIsModestAndFailureCountIndependent) {
  // Table I's shape: replication adds a modest constant factor, and the
  // runtime does not depend on how many (surviving-group) nodes died.
  const rank_t logical = 16;
  const Workbench w = make_workbench(logical, 1 << 14, 0.2);
  const Topology topo({4, 2, 2});
  NetworkModel net = NetworkModel::ec2_like();
  net.set_message_overhead(2e-4);
  const ComputeModel compute;

  const auto replicated_time = [&](rank_t failures) {
    FailureModel failure_model(logical * 2);
    for (rank_t f = 0; f < failures; ++f) {
      failure_model.kill(f * 2 + (f % 2) * logical);
    }
    TimingAccumulator timing(logical * 2, net, compute, 16);
    ReplicatedBsp<real_t> engine(logical, 2, &failure_model, nullptr,
                                 &timing);
    SparseAllreduce<real_t, OpSum, ReplicatedBsp<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.configure(w.in_sets, w.out_sets);
    const auto results = allreduce.reduce(w.values);
    testing::Workload<real_t> check{w.in_sets, w.out_sets, w.values};
    testing::expect_matches_oracle<real_t>(check, results);
    return timing.times().total();
  };

  TimingAccumulator unreplicated_timing(logical, net, compute, 16);
  double unreplicated = 0;
  {
    ParallelBspEngine<real_t> engine(logical, 1, nullptr, nullptr,
                                     &unreplicated_timing);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.configure(w.in_sets, w.out_sets);
    (void)allreduce.reduce(w.values);
    unreplicated = unreplicated_timing.times().total();
  }

  const double with_0 = replicated_time(0);
  const double with_3 = replicated_time(3);
  EXPECT_GT(with_0, unreplicated);        // replication costs something
  EXPECT_LT(with_0, unreplicated * 3.0);  // ...but stays modest
  EXPECT_NEAR(with_3, with_0, with_0 * 0.10);  // failures do not matter
}

}  // namespace
}  // namespace kylix
