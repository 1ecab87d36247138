// Umbrella header: the full public surface of the Kylix library.
//
// Typical usage (see examples/quickstart.cpp):
//
//   kylix::Topology topo({8, 4, 2});                  // or autotune_topology
//   // Threads: 1 runs the engine sequentially, 0 uses every core.
//   kylix::ParallelBspEngine<float> engine(topo.num_machines(), 1);
//   kylix::SparseAllreduce<float, kylix::OpSum, decltype(engine)> allreduce(
//       &engine, topo);
//   allreduce.configure(in_sets, out_sets);           // once
//   auto results = allreduce.reduce(out_values);      // many times
#pragma once

#include "apps/components.hpp"      // IWYU pragma: export
#include "apps/diameter.hpp"        // IWYU pragma: export
#include "apps/pagerank.hpp"        // IWYU pragma: export
#include "apps/reference.hpp"       // IWYU pragma: export
#include "apps/sgd.hpp"             // IWYU pragma: export
#include "baselines/direct.hpp"     // IWYU pragma: export
#include "baselines/hadoop_model.hpp"  // IWYU pragma: export
#include "baselines/tree.hpp"       // IWYU pragma: export
#include "cluster/failure.hpp"      // IWYU pragma: export
#include "cluster/fault_plan.hpp"   // IWYU pragma: export
#include "cluster/membership.hpp"   // IWYU pragma: export
#include "cluster/netmodel.hpp"     // IWYU pragma: export
#include "cluster/nic_timeline.hpp"  // IWYU pragma: export
#include "cluster/timing.hpp"       // IWYU pragma: export
#include "cluster/trace.hpp"        // IWYU pragma: export
#include "comm/fault_channel.hpp"   // IWYU pragma: export
#include "comm/recovery.hpp"        // IWYU pragma: export
#include "common/log.hpp"           // IWYU pragma: export
#include "common/thread_pool.hpp"   // IWYU pragma: export
#include "common/timer.hpp"         // IWYU pragma: export
#include "common/units.hpp"         // IWYU pragma: export
#include "comm/parallel.hpp"        // IWYU pragma: export
#include "comm/replicated.hpp"      // IWYU pragma: export
#include "core/allreduce.hpp"       // IWYU pragma: export
#include "core/async_executor.hpp"  // IWYU pragma: export
#include "core/autotune.hpp"        // IWYU pragma: export
#include "core/degraded.hpp"        // IWYU pragma: export
#include "core/epoch_manager.hpp"   // IWYU pragma: export
#include "core/executor.hpp"        // IWYU pragma: export
#include "core/node.hpp"            // IWYU pragma: export
#include "core/plan.hpp"            // IWYU pragma: export
#include "core/plan_cache.hpp"      // IWYU pragma: export
#include "core/topology.hpp"        // IWYU pragma: export
#include "obs/engine_obs.hpp"       // IWYU pragma: export
#include "obs/flight_recorder.hpp"  // IWYU pragma: export
#include "obs/json_writer.hpp"      // IWYU pragma: export
#include "obs/metrics.hpp"          // IWYU pragma: export
#include "obs/observer.hpp"         // IWYU pragma: export
#include "obs/postmortem.hpp"       // IWYU pragma: export
#include "obs/run_report.hpp"       // IWYU pragma: export
#include "obs/span_tracer.hpp"      // IWYU pragma: export
#include "obs/watchdog.hpp"         // IWYU pragma: export
#include "powerlaw/alpha_fit.hpp"   // IWYU pragma: export
#include "powerlaw/design.hpp"      // IWYU pragma: export
#include "powerlaw/graphgen.hpp"    // IWYU pragma: export
#include "powerlaw/model.hpp"       // IWYU pragma: export
#include "powerlaw/zipf.hpp"        // IWYU pragma: export
#include "sparse/csr.hpp"           // IWYU pragma: export
#include "sparse/key_set.hpp"       // IWYU pragma: export
#include "sparse/merge.hpp"         // IWYU pragma: export
#include "sparse/ops.hpp"           // IWYU pragma: export
