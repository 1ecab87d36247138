// Figure 5 — total communication volume per layer: the "Kylix shape".
//
// For each dataset the allreduce actually runs on 64 simulated machines
// with the paper's optimal degrees (8x4x2 twitter-like, 16x4 yahoo-like);
// the trace records every scatter-reduce message including self-packets,
// exactly the quantity Fig. 5 plots. The final row is the volume of fully
// reduced values at the bottom ("the communication volume if there were an
// additional layer"). Proposition 4.1's predictions are printed alongside
// the measurement — the model drives the design workflow, so its fit
// matters.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace kylix;

void run(const bench::Dataset& data) {
  const Topology& topo = data.paper_topology;
  const std::uint16_t layers = topo.num_layers();
  std::printf("\n== %s: n = %llu, %llu edges, partition density %.3f, "
              "degrees %s ==\n",
              data.name.c_str(),
              static_cast<unsigned long long>(data.spec.num_vertices),
              static_cast<unsigned long long>(data.spec.num_edges),
              data.measured_density, topo.to_string().c_str());

  Trace trace;
  ParallelBspEngine<real_t> engine(topo.num_machines(), 1, nullptr, &trace);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topo);
  allreduce.configure(data.in_sets, data.out_sets);
  (void)allreduce.reduce(data.out_values);

  // Model predictions from the measured density (Prop. 4.1). Each machine's
  // P_i elements are transmitted once per scatter-reduce layer; total
  // volume at layer i is m * P_i * bytes_per_element.
  const PowerLawModel model(data.spec.num_vertices, data.spec.alpha_in);
  const double lambda0 = model.lambda_for_density(data.measured_density);
  const auto stats = model.layer_stats(lambda0, topo.degrees());

  // Measured volumes carry 4 bytes per value plus small per-message
  // headers; the prediction counts 4 bytes per expected element.
  const auto volumes = trace.bytes_by_layer(Phase::kReduceDown, layers);
  std::printf("%-8s %-18s %-18s %-10s\n", "layer", "measured_volume",
              "prop4.1_volume", "ratio");
  for (std::uint16_t layer = 1; layer <= layers; ++layer) {
    const double measured = static_cast<double>(volumes[layer - 1]);
    const double predicted = 64.0 * stats[layer - 1].elements_per_node * 4.0;
    std::printf("%-8u %-18s %-18s %-10.2f\n", layer,
                format_bytes(measured).c_str(),
                format_bytes(predicted).c_str(), measured / predicted);
  }
  // Bottom row: fully reduced data (the would-be extra layer).
  double bottom_elements = 0;
  for (rank_t r = 0; r < topo.num_machines(); ++r) {
    bottom_elements +=
        static_cast<double>(allreduce.node(r).out_set(layers).size());
  }
  std::printf("%-8s %-18s %-18s\n", "bottom",
              format_bytes(bottom_elements * 4.0).c_str(),
              format_bytes(64.0 * stats[layers].elements_per_node * 4.0)
                  .c_str());
}

}  // namespace

int main() {
  std::printf("# Figure 5: total communication volume across layers "
              "(scatter-reduce, self-packets included)\n");
  run(bench::make_dataset("twitter"));
  run(bench::make_dataset("yahoo"));
  return 0;
}
