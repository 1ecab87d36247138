// Shared workload construction for the figure/table benches.
//
// The benches run the paper's experiments at a scaled-down size (DESIGN.md
// §2): vertex counts shrink from 60 M / 1.4 B to 2^18 / 2^20, edge counts
// are re-derived so the 64-way partition densities match the paper's
// measured 0.21 / 0.035, and the network model's per-message overhead
// shrinks proportionally so the minimum-efficient-packet boundary cuts
// through the degree choices the same way it does at paper scale (~50 KB
// floor instead of ~5 MB). Fig. 2 alone uses the unscaled EC2 constants,
// since it reproduces the raw hardware curve.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "kylix.hpp"

namespace kylix::bench {

/// Wall-clock stopwatch for the host-time benches (the figure benches use
/// the *modeled* network clock instead; never mix the two in one column).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline constexpr rank_t kMachines = 64;

/// The scaled testbed NIC. Calibration targets (EXPERIMENTS.md):
///  * direct all-to-all packets (~10 KB here, 0.4 MB in the paper) run well
///    below the efficient size, at ~20% utilization (paper: ~30%);
///  * the §IV workflow with kPacketFloorUtil reproduces the paper's degree
///    schedules (8x4x2 twitter-like, 16x4 yahoo-like) at this scale.
inline NetworkModel scaled_network() {
  NetworkModel net = NetworkModel::ec2_like();
  // Total per-message overhead 4e-5 s, weighted toward the unhideable
  // stack share (commodity-TCP copies dominate at this packet scale).
  net.stack_overhead_s = 3.2e-5;
  net.handshake_latency_s = 0.8e-5;
  net.base_latency_s = 5e-5;
  return net;
}

/// Packet-floor target for the scaled testbed: the packet size whose
/// transfer time equals the per-message overhead (τ = 0.5). The paper's own
/// 8x4x2 schedule implies a similar effective operating point — its layer-1
/// messages (~3 MB) sit below the quoted 5 MB floor.
inline constexpr double kPacketFloorUtil = 0.5;

/// Run the §IV workflow for a dataset at a given machine count.
inline DesignResult tune(std::uint64_t num_features, double alpha,
                         double density, rank_t machines) {
  AutotuneInput input;
  input.num_features = num_features;
  input.num_machines = machines;
  input.alpha = alpha;
  input.partition_density = density;
  input.network = scaled_network();
  input.target_utilization = kPacketFloorUtil;
  return autotune(input);
}

struct Dataset {
  std::string name;
  GraphSpec spec;
  std::vector<Edge> edges;
  std::vector<std::vector<Edge>> partitions;
  double measured_density = 0;      ///< destination-set density per machine
  Topology paper_topology{{}};      ///< the degrees the paper reports
  std::vector<KeySet> in_sets;      ///< per machine: local sources
  std::vector<KeySet> out_sets;     ///< per machine: sources ∪ destinations
  std::vector<std::vector<real_t>> out_values;  ///< deterministic payloads
};

/// Build one of the two scaled datasets ("twitter" or "yahoo") partitioned
/// over `machines` nodes. Generated edge lists are cached per preset so
/// sweeps over cluster sizes (Fig. 9) pay generation once.
inline Dataset make_dataset(const std::string& which,
                            rank_t machines = kMachines) {
  Dataset data;
  data.name = which + "-like";
  if (which == "twitter") {
    data.spec = twitter_like(1u << 18);
    data.paper_topology = Topology({8, 4, 2});
  } else {
    data.spec = yahoo_like(1u << 21);
    data.paper_topology = Topology({16, 4});
  }
  static std::map<std::string, std::vector<Edge>> edge_cache;
  auto cached = edge_cache.find(which);
  if (cached == edge_cache.end()) {
    cached =
        edge_cache.emplace(which, generate_zipf_graph(data.spec)).first;
  }
  data.edges = cached->second;
  data.partitions = random_edge_partition(data.edges, machines,
                                          data.spec.seed + 1);
  data.measured_density =
      measure_partition_density(data.partitions, data.spec.num_vertices);
  for (const auto& part : data.partitions) {
    const LocalGraph g{std::span<const Edge>(part)};
    UnionResult u = merge_union(g.sources().keys(), g.destinations().keys());
    data.in_sets.push_back(g.sources());
    data.out_sets.push_back(KeySet::from_sorted_keys(std::move(u.keys)));
    std::vector<real_t> values(data.out_sets.back().size());
    for (std::size_t p = 0; p < values.size(); ++p) {
      values[p] = static_cast<real_t>((p % 9) + 1) * 0.125f;
    }
    data.out_values.push_back(std::move(values));
  }
  return data;
}

/// Run one configure+reduce on `topology` and return the phase times under
/// the scaled network model; optionally expose the trace.
inline TimingAccumulator::PhaseTimes run_allreduce(
    const Dataset& data, const Topology& topology, std::uint32_t threads,
    Trace* trace_out = nullptr) {
  const NetworkModel net = scaled_network();
  const ComputeModel compute;
  TimingAccumulator timing(topology.num_machines(), net, compute, threads);
  ParallelBspEngine<real_t> engine(topology.num_machines(), 1, nullptr,
                                   trace_out, &timing);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topology, &compute);
  allreduce.configure(data.in_sets, data.out_sets);
  (void)allreduce.reduce(data.out_values);
  return timing.times();
}

}  // namespace kylix::bench
