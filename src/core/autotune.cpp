#include "core/autotune.hpp"

#include "common/check.hpp"

namespace kylix {

double measure_density(std::span<const KeySet> sets,
                       std::uint64_t num_features) {
  KYLIX_CHECK(!sets.empty());
  KYLIX_CHECK(num_features >= 1);
  double total = 0.0;
  for (const KeySet& s : sets) {
    total += static_cast<double>(s.size());
  }
  return total / (static_cast<double>(sets.size()) *
                  static_cast<double>(num_features));
}

DesignResult autotune(const AutotuneInput& input) {
  DesignInput design;
  design.num_features = input.num_features;
  design.num_machines = input.num_machines;
  design.alpha = input.alpha;
  design.partition_density = input.partition_density;
  design.bytes_per_element = input.bytes_per_element;
  design.min_packet_bytes =
      input.network.min_efficient_packet(input.target_utilization);
  return choose_degrees(design);
}

Topology autotune_topology(const AutotuneInput& input) {
  return Topology(autotune(input).degrees);
}

}  // namespace kylix
