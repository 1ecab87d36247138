// Bridging the §IV design workflow to a runnable Topology.
//
// "Measure the density of the input data … find the largest d such that
// P/d is at least [the minimum efficient packet size]": autotune() measures
// (or accepts) the workload density, derives the packet floor from the
// NetworkModel, runs choose_degrees(), and returns a Topology ready to hand
// to SparseAllreduce.
#pragma once

#include <span>
#include <vector>

#include "cluster/netmodel.hpp"
#include "core/topology.hpp"
#include "powerlaw/design.hpp"

namespace kylix {

struct AutotuneInput {
  std::uint64_t num_features = 0;
  rank_t num_machines = 0;
  double alpha = 1.0;
  double partition_density = 0;  ///< mean density of one machine's out set
  NetworkModel network;          ///< supplies the packet-size floor
  double target_utilization = 0.84;  ///< the paper's ~5 MB point on Fig. 2
  double bytes_per_element = 12;     ///< 8-byte key + 4-byte value
};

/// Mean density over machines: |set| / n averaged over the sets.
[[nodiscard]] double measure_density(std::span<const KeySet> sets,
                                     std::uint64_t num_features);

/// Run the full workflow; the returned report carries per-layer expectations
/// for printing, and degrees with product == num_machines.
[[nodiscard]] DesignResult autotune(const AutotuneInput& input);

/// Shorthand: run autotune() and wrap the degrees in a Topology.
[[nodiscard]] Topology autotune_topology(const AutotuneInput& input);

}  // namespace kylix
