#include "obs/run_report.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/failure.hpp"
#include "cluster/timing.hpp"
#include "cluster/trace.hpp"
#include "common/check.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "core/topology.hpp"
#include "obs/engine_obs.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "test_util.hpp"

namespace kylix::obs {
namespace {

using kylix::testing::random_workload;

struct ObservedRun {
  Trace trace;
  SpanTracer tracer;
  MetricsRegistry metrics;
  std::vector<double> measured;
  std::uint64_t drops = 0;
  std::vector<std::vector<float>> results;
};

/// One sequential allreduce with the full telemetry stack attached. Fills a
/// caller-owned record (the tracer/registry members are not movable).
void observed_run(const Topology& topo, std::uint64_t features,
                  std::uint64_t seed, ObservedRun& run) {
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, features, 0.08, 0.15, seed);

  ParallelBspEngine<float> engine(m, 1, nullptr, &run.trace, nullptr);
  TelemetryObserver::Options opt;
  opt.topology = &topo;
  opt.features = features;
  opt.metrics = &run.metrics;
  TelemetryObserver observer(&run.tracer, m, opt);
  engine.set_observer(&observer);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  run.results = allreduce.reduce(w.out_values);
  run.measured = allreduce.measured_layer_elements();
  run.drops = engine.dropped_messages();
}

TEST(RunReport, PerLayerBytesMatchTraceExactly) {
  const Topology topo({4, 2});
  ObservedRun run;
  observed_run(topo, 4000, 21, run);

  RunReportInputs inputs;
  inputs.trace = &run.trace;
  inputs.topology = &topo;
  inputs.measured_elements = run.measured;
  inputs.dropped_messages = run.drops;
  const RunReport report = build_run_report(inputs);

  const auto by_layer =
      run.trace.bytes_by_layer_all_phases(topo.num_layers());
  ASSERT_EQ(report.layers.size(), topo.num_layers());
  std::uint64_t sum = 0;
  for (std::uint16_t i = 0; i < topo.num_layers(); ++i) {
    const LayerReport& lr = report.layers[i];
    EXPECT_EQ(lr.layer, i + 1);
    EXPECT_EQ(lr.degree, topo.degrees()[i]);
    EXPECT_EQ(lr.bytes_total, by_layer[i]) << "layer " << i + 1;
    EXPECT_EQ(lr.bytes_total,
              lr.bytes_config + lr.bytes_reduce_down + lr.bytes_reduce_up);
    EXPECT_EQ(lr.bytes_config,
              run.trace.bytes_by_layer(Phase::kConfig, topo.num_layers())[i]);
    sum += lr.bytes_total;
  }
  EXPECT_EQ(report.total_bytes, run.trace.total_bytes());
  EXPECT_EQ(sum, report.total_bytes) << "no bytes outside the layer table";
  EXPECT_EQ(report.total_messages, run.trace.num_messages());
  EXPECT_EQ(report.dropped_messages, 0u);
  EXPECT_EQ(report.machines, topo.num_machines());
}

TEST(RunReport, MeasuredShapeAndModelColumns) {
  const Topology topo({4, 2});
  ObservedRun run;
  observed_run(topo, 4000, 22, run);

  RunReportInputs inputs;
  inputs.trace = &run.trace;
  inputs.topology = &topo;
  inputs.features = 4000;
  inputs.alpha = 1.1;
  // Layer-1 per-node elements over n is the partition density by definition.
  inputs.partition_density = run.measured[0] / 4000.0;
  inputs.measured_elements = run.measured;
  const RunReport report = build_run_report(inputs);

  ASSERT_TRUE(report.has_model);
  ASSERT_TRUE(report.has_measured_shape);
  EXPECT_FALSE(report.has_timing);
  EXPECT_GT(report.lambda0, 0.0);
  ASSERT_EQ(report.layers.size(), 2u);
  // Measured column: P_i entering layer i is measured_elements[i - 1];
  // D_i = P_i * K_i / n with fan-in K_1 = 1, K_2 = d_1.
  EXPECT_DOUBLE_EQ(report.layers[0].measured_elements_per_node,
                   run.measured[0]);
  EXPECT_DOUBLE_EQ(report.layers[0].measured_density,
                   run.measured[0] / 4000.0);
  EXPECT_DOUBLE_EQ(report.layers[1].measured_density,
                   run.measured[1] * 4 / 4000.0);
  EXPECT_DOUBLE_EQ(report.bottom_measured_elements, run.measured.back());
  // Model column: layer 1's density is the fitted partition density, and
  // densities grow monotonically toward the bottom of the cup.
  EXPECT_NEAR(report.layers[0].model_density, inputs.partition_density,
              1e-9);
  EXPECT_GT(report.layers[1].model_density,
            report.layers[0].model_density);
  EXPECT_GT(report.bottom_model_elements, 0.0);
}

TEST(RunReport, TimingColumnsComeFromTheAccumulator) {
  const Topology topo({2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 2000, 0.08, 0.15, 5);
  Trace trace;
  TimingAccumulator timing(m, NetworkModel::ec2_like(), ComputeModel{}, 4);
  ParallelBspEngine<float> engine(m, 1, nullptr, &trace, &timing);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  (void)allreduce.reduce(w.out_values);

  RunReportInputs inputs;
  inputs.trace = &trace;
  inputs.topology = &topo;
  inputs.timing = &timing;
  const RunReport report = build_run_report(inputs);
  ASSERT_TRUE(report.has_timing);
  const auto times = timing.times();
  EXPECT_DOUBLE_EQ(report.time_config_s, times.config);
  EXPECT_DOUBLE_EQ(report.time_reduce_s, times.reduce());
  double config_sum = 0;
  for (const LayerReport& lr : report.layers) {
    config_sum += lr.time_config_s;
    EXPECT_DOUBLE_EQ(lr.time_config_s,
                     timing.round_time(Phase::kConfig, lr.layer));
  }
  EXPECT_DOUBLE_EQ(config_sum, times.config);
}

TEST(RunReport, HierarchicalReportAlignsWithTheFlatExpansion) {
  // {2, 2 | c=4} against its flat expansion {4, 2, 2}: the leaders' host
  // unions are the expansion's layer-1 merge, so inter layer i must line
  // up with flat layer i + 1 — same union densities, per-node counts c×
  // bigger because a leader is never scattered over its own members.
  const Topology hier({2, 2}, 4);
  const Topology flat({4, 2, 2});
  ObservedRun h;
  ObservedRun f;
  observed_run(hier, 4000, 27, h);
  observed_run(flat, 4000, 27, f);

  const double density = f.measured[0] / 4000.0;
  RunReportInputs hi;
  hi.trace = &h.trace;
  hi.topology = &hier;
  hi.features = 4000;
  hi.alpha = 1.1;
  hi.partition_density = density;
  hi.measured_elements = h.measured;
  const RunReport hr = build_run_report(hi);
  RunReportInputs fi;
  fi.trace = &f.trace;
  fi.topology = &flat;
  fi.features = 4000;
  fi.alpha = 1.1;
  fi.partition_density = density;
  fi.measured_elements = f.measured;
  const RunReport fr = build_run_report(fi);

  EXPECT_TRUE(hr.hierarchical);
  EXPECT_EQ(hr.cores_per_machine, 4u);
  EXPECT_FALSE(fr.hierarchical);
  ASSERT_EQ(hr.layers.size(), 2u);
  ASSERT_EQ(fr.layers.size(), 3u);
  for (std::size_t i = 0; i < hr.layers.size(); ++i) {
    const LayerReport& hl = hr.layers[i];
    const LayerReport& fl = fr.layers[i + 1];
    EXPECT_EQ(hl.degree, fl.degree);
    EXPECT_NEAR(hl.measured_elements_per_node,
                4 * fl.measured_elements_per_node, 1e-6);
    EXPECT_NEAR(hl.measured_density, fl.measured_density, 1e-9);
    EXPECT_NEAR(hl.model_elements_per_node, 4 * fl.model_elements_per_node,
                1e-6);
    EXPECT_NEAR(hl.model_density, fl.model_density, 1e-12);
    EXPECT_GT(hl.measured_density, 0.0);
    EXPECT_LE(hl.measured_density, 1.0);
  }
  EXPECT_NEAR(hr.bottom_measured_elements, 4 * fr.bottom_measured_elements,
              1e-6);
  EXPECT_NEAR(hr.bottom_model_elements, 4 * fr.bottom_model_elements, 1e-6);
}

TEST(RunReport, HierarchicalTimingSplitsIntraFromInter) {
  const Topology topo({2, 2}, 4);
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 2000, 0.08, 0.15, 5);
  Trace trace;
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;
  TimingAccumulator timing(m, net, compute, 4);
  ParallelBspEngine<float> engine(m, 1, nullptr, &trace, &timing);
  // The intra stage is priced by the allreduce itself (it owns the
  // shared-memory schedule), so it needs the models too.
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo, &compute);
  allreduce.set_network(&net);
  allreduce.configure(w.in_sets, w.out_sets);
  (void)allreduce.reduce(w.out_values);

  RunReportInputs inputs;
  inputs.trace = &trace;
  inputs.topology = &topo;
  inputs.timing = &timing;
  const RunReport report = build_run_report(inputs);
  ASSERT_TRUE(report.has_timing);
  ASSERT_TRUE(report.hierarchical);
  EXPECT_GT(report.time_intra_config_s, 0.0);
  EXPECT_GT(report.time_intra_reduce_s, 0.0);
  EXPECT_GT(report.time_inter_reduce_s, 0.0);
  EXPECT_NEAR(report.time_reduce_s,
              report.time_intra_reduce_s + report.time_inter_reduce_s,
              1e-12);
  const auto times = timing.times();
  EXPECT_DOUBLE_EQ(report.time_config_s, times.config + times.intra_config);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"hierarchical\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cores_per_machine\":4"), std::string::npos);
  EXPECT_NE(json.find("\"time_intra_reduce_s\""), std::string::npos);
  EXPECT_NE(json.find("\"time_inter_reduce_s\""), std::string::npos);
}

TEST(RunReport, ObserverDoesNotChangeResults) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 4000, 0.08, 0.15, 23);

  ParallelBspEngine<float> plain(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce_plain(
      &plain, topo);
  allreduce_plain.configure(w.in_sets, w.out_sets);
  const auto expected = allreduce_plain.reduce(w.out_values);
  testing::expect_matches_oracle<float>(w, expected);

  ObservedRun run;
  observed_run(topo, 4000, 23, run);
  ASSERT_EQ(run.results.size(), expected.size());
  for (rank_t r = 0; r < m; ++r) {
    EXPECT_EQ(run.results[r], expected[r]) << "rank " << r;
  }
}

TEST(RunReport, TelemetryObserverCountsMatchTheTrace) {
  const Topology topo({4, 2});
  Trace trace;
  SpanTracer tracer;
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 4000, 0.08, 0.15, 9);

  ParallelBspEngine<float> engine(m, 1, nullptr, &trace, nullptr);
  MetricsRegistry metrics;
  TelemetryObserver::Options opt;
  opt.metrics = &metrics;
  TelemetryObserver observer(&tracer, m, opt);
  engine.set_observer(&observer);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  (void)allreduce.reduce(w.out_values);

  EXPECT_EQ(observer.total_messages(), trace.num_messages());
  EXPECT_EQ(observer.total_bytes(), trace.total_bytes());
  EXPECT_EQ(observer.total_drops(), 0u);
  EXPECT_EQ(metrics.counter("engine.messages").value(),
            trace.num_messages());
  EXPECT_EQ(metrics.counter("engine.wire_bytes").value(),
            trace.total_bytes());
  // 3 phases x 2 layers of rounds; every message fell into some histogram
  // bucket; the tracer got at least one span per round.
  EXPECT_EQ(metrics.counter("engine.rounds").value(), 6u);
  EXPECT_EQ(metrics.histogram("engine.packet_bytes", {}).count(),
            trace.num_messages());
  EXPECT_GE(tracer.num_events(), 6u);
}

TEST(RunReport, ReplicatedRunReportsRacesAndDrops) {
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 4000, 0.08, 0.15, 31);
  const rank_t physical = m * 2;
  const FailureModel failures =
      FailureModel::random_failures(physical, 3, 77);
  Trace trace;
  ReplicatedBsp<float> engine(m, 2, &failures, &trace, nullptr);
  ASSERT_FALSE(engine.has_failed());
  SpanTracer tracer;
  TelemetryObserver observer(&tracer, physical, TelemetryObserver::Options{});
  engine.set_observer(&observer);
  SparseAllreduce<float, OpSum, ReplicatedBsp<float>> allreduce(&engine,
                                                                topo);
  allreduce.configure(w.in_sets, w.out_sets);
  const auto results = allreduce.reduce(w.out_values);
  testing::expect_matches_oracle<float>(w, results);

  RunReportInputs inputs;
  inputs.trace = &trace;
  inputs.topology = &topo;
  inputs.dropped_messages = engine.dropped_messages();
  inputs.race_wins = engine.race_stats().wins;
  inputs.race_losses = engine.race_stats().losses;
  const RunReport report = build_run_report(inputs);
  // 3 dead physical nodes keep receiving copies they never pay for.
  EXPECT_GT(report.dropped_messages, 0u);
  EXPECT_GT(report.race_wins, 0u);
  EXPECT_GT(report.race_losses, 0u);
  EXPECT_EQ(report.dropped_messages, observer.total_drops());
  // Every transmitted copy is either raced to a live dst or dropped.
  EXPECT_EQ(report.race_wins + report.race_losses + report.dropped_messages,
            trace.num_messages());
}

TEST(RunReport, AsciiChartDrawsOneBarPerLayer) {
  const Topology topo({4, 2});
  ObservedRun run;
  observed_run(topo, 4000, 3, run);
  RunReportInputs inputs;
  inputs.trace = &run.trace;
  inputs.topology = &topo;
  const RunReport report = build_run_report(inputs);
  const std::string chart = report.ascii_chart();
  EXPECT_NE(chart.find("layer 1"), std::string::npos);
  EXPECT_NE(chart.find("layer 2"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(RunReport, JsonContainsLayersAndTotals) {
  const Topology topo({4, 2});
  ObservedRun run;
  observed_run(topo, 4000, 4, run);
  RunReportInputs inputs;
  inputs.trace = &run.trace;
  inputs.topology = &topo;
  inputs.measured_elements = run.measured;
  inputs.workload = "unit-test";
  const RunReport report = build_run_report(inputs);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"workload\":\"unit-test\""), std::string::npos);
  EXPECT_NE(json.find("\"degrees\":[4,2]"), std::string::npos);
  EXPECT_NE(json.find("\"layers\":["), std::string::npos);
  EXPECT_NE(json.find("\"bytes_total\""), std::string::npos);
  EXPECT_NE(json.find("\"measured_density\""), std::string::npos);
  EXPECT_NE(json.find("\"total_bytes\""), std::string::npos);
}

TEST(RunReport, RejectsMissingOrMalformedInputs) {
  const Topology topo({4, 2});
  Trace trace;
  RunReportInputs inputs;
  EXPECT_THROW((void)build_run_report(inputs), check_error);
  inputs.trace = &trace;
  EXPECT_THROW((void)build_run_report(inputs), check_error);
  inputs.topology = &topo;
  EXPECT_NO_THROW((void)build_run_report(inputs));
  inputs.measured_elements = {1.0, 2.0};  // needs num_layers + 1 entries
  EXPECT_THROW((void)build_run_report(inputs), check_error);
}

}  // namespace
}  // namespace kylix::obs
