// kylix_cli — self-contained command-line driver for the sparse allreduce.
//
// The paper emphasizes that Kylix "can be run self-contained using shell
// scripting (it does not require an underlying distributed middleware)".
// This tool is that entry point for the simulator: it synthesizes a
// power-law workload, picks (or accepts) a degree schedule, runs the
// allreduce — optionally replicated, with injected failures — verifies the
// result against a single-node reference, and prints volumes and modeled
// times.
//
// The `report` subcommand additionally attaches the telemetry subsystem
// (src/obs): it runs the same workload on the host-parallel engine with a
// span tracer and metrics registry wired in, prints the per-layer
// Kylix-shape chart with measured vs. modeled D_i / P_i, and can write a
// Chrome trace-event file (open in Perfetto / chrome://tracing) plus a
// machine-readable run-report JSON.
//
// Usage examples:
//   kylix_cli --machines 64 --features 262144 --density 0.21 --alpha 1.1
//   kylix_cli --machines 64 --degrees 8x4x2 --threads 4
//   kylix_cli --machines 32 --replication 2 --failures 3
//   kylix_cli report --machines 64 --trace-out trace.json
//   kylix_cli report --machines 64 --cores-per-machine 8 --report-out r.json
//   kylix_cli chaos --machines 32 --replication 2 --max-failures 12
//
// The `chaos` subcommand sweeps seeded fault schedules (random mid-run
// crashes plus transient drop/duplicate/delay rates) through the replicated
// engine and prints a survival/degradation table: at each failure count it
// reports how many runs completed exactly, how many completed degraded but
// sound (values outside the reported degraded ranges match the oracle), and
// how many violated the contract (the gate: any "bad" run exits nonzero).
//
// The `plan` subcommand demonstrates the compiled-plan workflow: it
// compiles a CollectivePlan once, prints the frozen message schedule and
// the wire-byte amortization of multi-payload replay, exercises the
// fingerprint-keyed PlanCache (miss, then hit), wall-clocks cached replay
// against per-iteration configure+reduce, and verifies that a strided
// reduce of k payloads is bit-identical to k independent reduces.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <span>
#include <memory>
#include <sstream>
#include <string>

#include "kylix.hpp"

namespace {

using namespace kylix;

struct Cli {
  bool report = false;
  bool chaos = false;
  bool plan = false;
  bool heal = false;
  bool postmortem = false;
  std::string postmortem_file;  // postmortem mode: the JSON black box to read
  std::string postmortem_out;   // report/chaos: dump the black box here
  rank_t machines = 64;
  std::uint64_t features = 1u << 18;
  double density = 0.21;
  double alpha = 1.1;
  std::uint32_t threads = 16;
  std::uint32_t replication = 1;
  rank_t failures = 0;
  std::uint64_t seed = 42;
  std::vector<std::uint32_t> degrees;  // empty -> autotune
  std::string trace_out;               // report mode: Chrome trace JSON
  std::string report_out;              // report mode: run-report JSON
  // report mode: two-tier hierarchical topology (DESIGN §13).
  std::uint32_t cores = 1;  // >1: fold C co-located ranks per host
  // report mode: streaming packetized reduction (DESIGN §9).
  bool stream = false;
  std::uint64_t chunk_bytes = 0;  // 0 -> compiled from min_efficient_packet
  // report mode: async overlapped replay ablation (DESIGN §11).
  std::uint32_t inflight = 1;  // >1: overlap this many reduce streams
  // chaos mode: sweep shape and background fault rates.
  std::uint64_t chaos_seeds = 16;
  rank_t max_failures = 8;
  double drop_rate = 0.02;
  double dup_rate = 0.01;
  double delay_rate = 0.01;
  // plan mode: replay iterations and interleaved payload count.
  std::uint32_t plan_iters = 20;
  std::uint32_t payloads = 4;
  // heal mode: kill→heal→rejoin cycles over the epoched plan manager.
  std::uint32_t heal_cycles = 3;
  rank_t group_size = 1;      // logical ranks killed per cycle
  double round_dt = 1e-3;     // view-time seconds per reduce round
  std::string heal_out;       // healing summary JSON (bench gate input)
};

[[noreturn]] void usage_and_exit() {
  std::fprintf(
      stderr,
      "usage: kylix_cli [report|chaos|plan|heal|postmortem <file>] "
      "[options]\n"
      "  --machines M      logical machine count (default 64)\n"
      "  --features N      index-space size (default 262144)\n"
      "  --density D       target partition density (default 0.21)\n"
      "  --alpha A         power-law exponent (default 1.1)\n"
      "  --degrees DxDxD   degree schedule (default: autotune per SIV)\n"
      "  --threads T       message threads in the timing model (default 16)\n"
      "  --replication S   replication factor (default 1)\n"
      "  --failures K      dead physical nodes to inject (default 0)\n"
      "  --seed X          workload seed (default 42)\n"
      "report mode only:\n"
      "  --trace-out F     write Chrome trace-event JSON (Perfetto) to F\n"
      "  --report-out F    write the run-report JSON to F\n"
      "  --cores-per-machine C  two-tier topology (DESIGN 13): C co-located\n"
      "                    ranks per host reduce over shared memory behind\n"
      "                    a leader; --degrees (or the autotuner) shapes the\n"
      "                    inter-node butterfly over the M/C hosts\n"
      "  --stream          stream MTU-sized chunks through the reduce\n"
      "  --chunk-bytes B   streaming chunk payload bytes (default: compiled\n"
      "                    from the network model's min efficient packet)\n"
      "  --inflight K      overlap K reduce streams through the async\n"
      "                    executor and report aggregate reduces/sec plus\n"
      "                    per-stream p50/p99 latency vs serialized replay\n"
      "report and chaos modes:\n"
      "  --postmortem-out F  write the flight-recorder black box (merged\n"
      "                    event timeline + metrics snapshot) as JSON to F;\n"
      "                    in chaos mode, dumps the first degraded/bad run\n"
      "chaos mode only (seeded fault sweep, survival table):\n"
      "  --seeds S         schedules per failure count (default 16)\n"
      "  --max-failures K  sweep 0..K scripted crashes (default 8)\n"
      "  --drop-rate P     per-copy drop probability (default 0.02)\n"
      "  --dup-rate P      per-copy duplicate probability (default 0.01)\n"
      "  --delay-rate P    per-copy delay probability (default 0.01)\n"
      "plan mode only (compiled-plan workflow demo):\n"
      "  --iters N         replay iterations to wall-clock (default 20)\n"
      "  --payloads K      interleaved payloads per strided reduce "
      "(default 4)\n"
      "heal mode only (elastic membership, kill→heal→rejoin loop):\n"
      "  --cycles N        kill→heal→rejoin cycles to run (default 3)\n"
      "  --group-size S    logical ranks killed per cycle (default 1)\n"
      "  --round-dt S      view-time seconds per reduce round (default\n"
      "                    1e-3; the heartbeat detector's clock advances\n"
      "                    this much per degraded round)\n"
      "  --heal-out F      write the healing summary JSON (epoch timeline,\n"
      "                    re-plan vs cold-configure cost) to F\n"
      "postmortem mode: render a saved black box as a readable timeline\n");
  std::exit(2);
}

std::vector<std::uint32_t> parse_degrees(const std::string& text) {
  std::vector<std::uint32_t> degrees;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t next = text.find('x', pos);
    if (next == std::string::npos) next = text.size();
    degrees.push_back(
        static_cast<std::uint32_t>(std::stoul(text.substr(pos, next - pos))));
    pos = next + 1;
  }
  return degrees;
}

Cli parse(int argc, char** argv) {
  Cli cli;
  int i = 1;
  if (i < argc && std::strcmp(argv[i], "report") == 0) {
    cli.report = true;
    ++i;
  } else if (i < argc && std::strcmp(argv[i], "chaos") == 0) {
    cli.chaos = true;
    ++i;
  } else if (i < argc && std::strcmp(argv[i], "plan") == 0) {
    cli.plan = true;
    ++i;
  } else if (i < argc && std::strcmp(argv[i], "heal") == 0) {
    cli.heal = true;
    ++i;
  } else if (i < argc && std::strcmp(argv[i], "postmortem") == 0) {
    cli.postmortem = true;
    ++i;
    if (i >= argc) usage_and_exit();
    cli.postmortem_file = argv[i];
    ++i;
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (flag == "--machines") {
      cli.machines = static_cast<rank_t>(std::stoul(value()));
    } else if (flag == "--features") {
      cli.features = std::stoull(value());
    } else if (flag == "--density") {
      cli.density = std::stod(value());
    } else if (flag == "--alpha") {
      cli.alpha = std::stod(value());
    } else if (flag == "--degrees") {
      cli.degrees = parse_degrees(value());
    } else if (flag == "--threads") {
      cli.threads = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (flag == "--replication") {
      cli.replication = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (flag == "--failures") {
      cli.failures = static_cast<rank_t>(std::stoul(value()));
    } else if (flag == "--seed") {
      cli.seed = std::stoull(value());
    } else if (flag == "--trace-out" && cli.report) {
      cli.trace_out = value();
    } else if (flag == "--report-out" && cli.report) {
      cli.report_out = value();
    } else if (flag == "--cores-per-machine" && cli.report) {
      cli.cores = static_cast<std::uint32_t>(std::stoul(value()));
      if (cli.cores < 1) usage_and_exit();
    } else if (flag == "--stream" && cli.report) {
      cli.stream = true;
    } else if (flag == "--chunk-bytes" && cli.report) {
      cli.chunk_bytes = std::stoull(value());
    } else if (flag == "--inflight" && cli.report) {
      cli.inflight = static_cast<std::uint32_t>(std::stoul(value()));
      if (cli.inflight < 1) usage_and_exit();
    } else if (flag == "--seeds" && cli.chaos) {
      cli.chaos_seeds = std::stoull(value());
    } else if (flag == "--max-failures" && cli.chaos) {
      cli.max_failures = static_cast<rank_t>(std::stoul(value()));
    } else if (flag == "--drop-rate" && cli.chaos) {
      cli.drop_rate = std::stod(value());
    } else if (flag == "--dup-rate" && cli.chaos) {
      cli.dup_rate = std::stod(value());
    } else if (flag == "--delay-rate" && cli.chaos) {
      cli.delay_rate = std::stod(value());
    } else if (flag == "--postmortem-out" && (cli.report || cli.chaos)) {
      cli.postmortem_out = value();
    } else if (flag == "--iters" && cli.plan) {
      cli.plan_iters = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (flag == "--payloads" && cli.plan) {
      cli.payloads = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (flag == "--cycles" && cli.heal) {
      cli.heal_cycles = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (flag == "--group-size" && cli.heal) {
      cli.group_size = static_cast<rank_t>(std::stoul(value()));
    } else if (flag == "--round-dt" && cli.heal) {
      cli.round_dt = std::stod(value());
    } else if (flag == "--heal-out" && cli.heal) {
      cli.heal_out = value();
    } else {
      usage_and_exit();
    }
  }
  return cli;
}

/// Synthesize the workload straight from the SIV Poisson model: machine r's
/// out set is a Zipf sample of the expected size, its in set likewise.
struct Workload {
  std::vector<KeySet> in_sets;
  std::vector<KeySet> out_sets;
  std::vector<std::vector<real_t>> values;
  double measured_density = 0;
};

Workload synthesize(const Cli& cli) {
  const PowerLawModel model(cli.features, cli.alpha);
  const double lambda0 = model.lambda_for_density(cli.density);
  const auto draws =
      static_cast<std::uint64_t>(lambda0 * model.harmonic());
  const ZipfSampler zipf(cli.features, cli.alpha);
  Rng rng(cli.seed);

  Workload w;
  const auto draw_set = [&](Rng& machine_rng) {
    std::vector<index_t> ids;
    ids.reserve(draws);
    for (std::uint64_t d = 0; d < draws; ++d) {
      ids.push_back(zipf(machine_rng) - 1);
    }
    return KeySet::from_indices(ids);
  };
  for (rank_t r = 0; r < cli.machines; ++r) {
    Rng machine_rng = rng.fork(r);
    KeySet out = draw_set(machine_rng);
    // Requests are drawn from each machine's own contributions plus the
    // shared head, so coverage (∪in ⊆ ∪out) holds by construction.
    w.in_sets.push_back(out);
    std::vector<real_t> values(out.size());
    for (std::size_t p = 0; p < values.size(); ++p) {
      values[p] = static_cast<real_t>(machine_rng.below(16));
    }
    w.out_sets.push_back(std::move(out));
    w.values.push_back(std::move(values));
    w.measured_density += static_cast<double>(w.out_sets.back().size());
  }
  w.measured_density /=
      static_cast<double>(cli.machines) * static_cast<double>(cli.features);
  return w;
}

NetworkModel scaled_network() {
  NetworkModel net = NetworkModel::ec2_like();
  net.stack_overhead_s = 3.2e-5;  // scaled testbed (see bench_common.hpp)
  net.handshake_latency_s = 0.8e-5;
  net.base_latency_s = 5e-5;
  return net;
}

Topology pick_topology(const Cli& cli, const Workload& w,
                       const NetworkModel& net, bool verbose) {
  // With --cores-per-machine C the degrees (explicit or autotuned) shape
  // the inter-node butterfly over the M/C hosts; C co-located ranks per
  // host fold over shared memory behind their canonical leader.
  KYLIX_CHECK_MSG(cli.cores >= 1 && cli.machines % cli.cores == 0,
                  "--cores-per-machine must divide --machines");
  const rank_t hosts = cli.machines / cli.cores;
  if (!cli.degrees.empty()) {
    Topology topo(cli.degrees, cli.cores);
    KYLIX_CHECK_MSG(topo.num_machines() == cli.machines,
                    "--degrees product times --cores-per-machine must "
                    "equal --machines");
    if (verbose) std::printf("degrees: %s\n", topo.to_string().c_str());
    return topo;
  }
  AutotuneInput input;
  input.num_features = cli.features;
  input.num_machines = hosts;
  input.alpha = cli.alpha;
  input.partition_density = w.measured_density;
  if (cli.cores > 1) {
    // The inter-node butterfly exchanges host unions, so the autotuner
    // must see the density after the c-way shared-memory merge (Prop 4.1
    // at fan-in c), not the per-rank partition density.
    const PowerLawModel model(cli.features, cli.alpha);
    const double lambda0 = model.lambda_for_density(w.measured_density);
    const std::vector<std::uint32_t> intra{cli.cores};
    input.partition_density = model.layer_stats(lambda0, intra)[1].density;
  }
  input.network = net;
  input.target_utilization = 0.5;
  const DesignResult design = autotune(input);
  Topology topo(design.degrees, cli.cores);
  if (verbose) {
    std::printf("autotuned (SIV workflow):\n%s", design.to_string().c_str());
  } else {
    std::printf("degrees: %s (autotuned%s)\n", topo.to_string().c_str(),
                cli.cores > 1 ? " over hosts" : "");
  }
  return topo;
}

std::size_t verify(const Cli& cli, const Workload& w,
                   const std::vector<std::vector<real_t>>& results) {
  std::vector<SparseVector<real_t>> contributions;
  for (rank_t r = 0; r < cli.machines; ++r) {
    contributions.push_back(SparseVector<real_t>{w.out_sets[r], w.values[r]});
  }
  const ReferenceReduce<real_t> reference(contributions);
  std::size_t errors = 0;
  for (rank_t r = 0; r < cli.machines; ++r) {
    const std::vector<real_t> expected = reference.lookup(w.in_sets[r]);
    for (std::size_t p = 0; p < expected.size(); ++p) {
      if (expected[p] != results[r][p]) ++errors;
    }
  }
  return errors;
}

struct SoundCheck {
  std::size_t errors = 0;   ///< mismatches at keys the report vouches for
  std::size_t checked = 0;  ///< reliable positions actually compared
};

/// The brute-force oracle of a degraded run, in flat arrays sorted by key:
/// the union of every rank's contributed keys with each rank's map into it
/// (tree_merge), and each key's total. Built once per workload; a run that
/// lost some ranks' inputs re-sums without them. Every key is summed in
/// ascending rank starting from 0 — the order a map of running totals adds
/// in — so every float matches the brute-force sum.
class Oracle {
 public:
  explicit Oracle(const Workload& w) : w_(w) {
    std::vector<std::span<const kylix::key_t>> spans;
    for (const KeySet& set : w.out_sets) spans.push_back(set.keys());
    union_ = tree_merge(spans);
    sum({}, all_);
  }

  /// Every key's total over the ranks not in `lost`.
  const std::vector<real_t>& totals(const std::vector<rank_t>& lost) {
    if (lost.empty()) return all_;
    sum(lost, pruned_);
    return pruned_;
  }

  /// `key`'s entry of `totals`; keys nobody contributes expect 0.
  [[nodiscard]] real_t expected(const std::vector<real_t>& totals,
                                kylix::key_t key) const {
    const auto it =
        std::lower_bound(union_.keys.begin(), union_.keys.end(), key);
    if (it == union_.keys.end() || *it != key) return 0;
    return totals[static_cast<std::size_t>(it - union_.keys.begin())];
  }

 private:
  void sum(const std::vector<rank_t>& lost, std::vector<real_t>& out) const {
    out.assign(union_.keys.size(), 0);
    for (rank_t r = 0; r < w_.out_sets.size(); ++r) {
      if (std::find(lost.begin(), lost.end(), r) != lost.end()) continue;
      for (std::size_t p = 0; p < w_.out_sets[r].size(); ++p) {
        out[union_.maps[r][p]] += w_.values[r][p];
      }
    }
  }

  const Workload& w_;
  UnionResult union_;
  std::vector<real_t> all_;
  std::vector<real_t> pruned_;
};

/// Degraded-completion verification: the brute-force oracle minus
/// `inputs_lost` ranks, checked only at keys the report does not disclaim
/// (outside degraded_ranges ∪ lost_keys), skipping dead requesters. Keys
/// absent from the pruned oracle expect the reduction identity.
/// `dead_ranks` is the engine's post-run dead set — a superset of
/// report.lost_logical, since a group that dies after its last send is
/// never missed by anyone yet still returns no result.
SoundCheck verify_degraded(const Cli& cli, const Workload& w, Oracle& oracle,
                           const std::vector<std::vector<real_t>>& results,
                           const DegradedReport& report,
                           const std::vector<rank_t>& dead_ranks) {
  const auto contains = [](const std::vector<rank_t>& v, rank_t r) {
    return std::find(v.begin(), v.end(), r) != v.end();
  };
  const std::vector<real_t>& totals = oracle.totals(report.inputs_lost);
  SoundCheck check;
  for (rank_t r = 0; r < cli.machines; ++r) {
    if (contains(dead_ranks, r)) {
      if (!results[r].empty()) ++check.errors;  // dead ranks return nothing
      continue;
    }
    if (results[r].size() != w.in_sets[r].size()) {
      ++check.errors;
      continue;
    }
    for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
      const kylix::key_t key = w.in_sets[r][p];
      if (report.covers(key) ||
          std::binary_search(report.lost_keys.begin(),
                             report.lost_keys.end(), key)) {
        continue;  // declared unreliable; nothing is promised here
      }
      const real_t expected = oracle.expected(totals, key);
      if (results[r][p] != expected) {
        ++check.errors;
        if (std::getenv("KYLIX_CHAOS_DEBUG") != nullptr) {
          std::printf("    mismatch: rank %u pos %zu key %llu idx %llu "
                      "got %g want %g\n",
                      r, p, static_cast<unsigned long long>(key),
                      static_cast<unsigned long long>(unhash_index(key)),
                      static_cast<double>(results[r][p]),
                      static_cast<double>(expected));
        }
      }
      ++check.checked;
    }
  }
  return check;
}

/// Arms a crash dump for the lifetime of a run: if the scope unwinds with
/// an exception in flight (a CHECK failure mid-run), the destructor writes
/// the black box before the recorder dies with the stack frame — the one
/// moment the flight recorder earns its name.
class BlackBoxGuard {
 public:
  BlackBoxGuard(std::string path, obs::FlightRecorder* recorder,
                const obs::MetricsRegistry* metrics, std::uint64_t fingerprint)
      : path_(std::move(path)),
        recorder_(recorder),
        metrics_(metrics),
        fingerprint_(fingerprint) {}
  BlackBoxGuard(const BlackBoxGuard&) = delete;
  BlackBoxGuard& operator=(const BlackBoxGuard&) = delete;
  ~BlackBoxGuard() {
    if (path_.empty() || std::uncaught_exceptions() == 0) return;
    obs::FlightEvent e;
    e.kind = obs::FlightEventKind::kCheckFail;
    recorder_->record(e);
    obs::PostmortemInputs pm;
    pm.reason = "check-failure";
    pm.detail = "CHECK failed mid-run; see stderr";
    pm.recorder = recorder_;
    pm.metrics = metrics_;
    pm.plan_fingerprint = fingerprint_;
    if (obs::dump_postmortem(path_, pm)) {
      std::fprintf(stderr, "postmortem: %s\n", path_.c_str());
    }
  }

 private:
  std::string path_;
  obs::FlightRecorder* recorder_;
  const obs::MetricsRegistry* metrics_;
  std::uint64_t fingerprint_;
};

/// Render a saved black box (`--postmortem-out` JSON) as a readable merged
/// timeline.
int run_postmortem(const Cli& cli) {
  std::ifstream in(cli.postmortem_file);
  KYLIX_CHECK_MSG(in.good(), "cannot open postmortem file");
  std::ostringstream text;
  text << in.rdbuf();
  std::fputs(obs::render_postmortem(text.str()).c_str(), stdout);
  return 0;
}

int run_default(const Cli& cli) {
  const NetworkModel net = scaled_network();
  const ComputeModel compute;

  Workload w = synthesize(cli);
  std::printf("workload: n = %llu, m = %u, measured density %.4f, "
              "alpha %.2f\n",
              static_cast<unsigned long long>(cli.features), cli.machines,
              w.measured_density, cli.alpha);

  const Topology topo = pick_topology(cli, w, net, /*verbose=*/true);

  const rank_t physical = cli.machines * cli.replication;
  KYLIX_CHECK_MSG(cli.failures <= physical, "--failures exceeds nodes");
  const FailureModel failures =
      FailureModel::random_failures(physical, cli.failures, cli.seed + 1);
  Trace trace;
  TimingAccumulator timing(physical, net, compute, cli.threads);

  std::vector<std::vector<real_t>> results;
  DegradedReport degraded;
  std::vector<rank_t> dead_ranks;
  if (cli.replication == 1) {
    KYLIX_CHECK_MSG(cli.failures == 0,
                    "failures need --replication >= 2 to stay correct");
    ParallelBspEngine<real_t> engine(cli.machines, 1, nullptr, &trace, &timing);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.configure(w.in_sets, w.out_sets);
    results = allreduce.reduce(w.values);
  } else {
    ReplicatedBsp<real_t> engine(cli.machines, cli.replication, &failures,
                                 &trace, &timing);
    if (engine.has_failed()) {
      // A whole replica group is dead (expected after ~sqrt(m) failures);
      // proceed anyway and report the degraded completion.
      std::printf("warning: a whole replica group is dead — completing "
                  "degraded over the surviving ranks\n");
    }
    SparseAllreduce<real_t, OpSum, ReplicatedBsp<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.configure(w.in_sets, w.out_sets);
    results = allreduce.reduce(w.values);
    degraded = allreduce.degraded_report();
    dead_ranks = engine.dead_logical_ranks();
  }

  std::size_t errors;
  std::size_t checked;
  if (degraded.degraded || !dead_ranks.empty()) {
    std::printf("%s\n", degraded.summary().c_str());
    Oracle oracle(w);
    const SoundCheck check =
        verify_degraded(cli, w, oracle, results, degraded, dead_ranks);
    errors = check.errors;
    checked = check.checked;
  } else {
    errors = verify(cli, w, results);
    checked = 0;
    for (rank_t r = 0; r < cli.machines; ++r) checked += w.in_sets[r].size();
  }

  const auto times = timing.times();
  std::printf("\nvolume: %s in %zu messages\n",
              format_bytes(static_cast<double>(trace.total_bytes())).c_str(),
              trace.num_messages());
  const auto layer_bytes =
      trace.bytes_by_layer_all_phases(topo.num_layers());
  for (std::uint16_t layer = 1; layer <= topo.num_layers(); ++layer) {
    std::printf("  layer %u: %s\n", layer,
                format_bytes(static_cast<double>(layer_bytes[layer - 1]))
                    .c_str());
  }
  std::printf("modeled config time: %s\nmodeled reduce time: %s\n",
              format_seconds(times.config).c_str(),
              format_seconds(times.reduce()).c_str());
  std::printf("verification: %zu mismatches over %zu reliable positions "
              "(%s)\n",
              errors, checked, errors == 0 ? "PASS" : "FAIL");
  return errors == 0 ? 0 : 1;
}

int run_report(const Cli& cli) {
  const NetworkModel net = scaled_network();
  const ComputeModel compute;

  Workload w = synthesize(cli);
  std::printf("workload: n = %llu, m = %u, measured density %.4f, "
              "alpha %.2f\n",
              static_cast<unsigned long long>(cli.features), cli.machines,
              w.measured_density, cli.alpha);
  const Topology topo = pick_topology(cli, w, net, /*verbose=*/false);

  const rank_t physical = cli.machines * cli.replication;
  KYLIX_CHECK_MSG(cli.failures <= physical, "--failures exceeds nodes");
  const FailureModel failures =
      FailureModel::random_failures(physical, cli.failures, cli.seed + 1);
  Trace trace;
  TimingAccumulator timing(physical, net, compute, cli.threads);
  obs::SpanTracer tracer;
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(physical, /*per_rank_capacity=*/256,
                               /*global_capacity=*/2048);
  obs::AnomalyWatchdog::Options wopt;
  wopt.metrics = &metrics;
  wopt.recorder = &recorder;
  obs::AnomalyWatchdog watchdog(physical, wopt);

  obs::TelemetryObserver::Options opt;
  opt.topology = &topo;
  opt.features = cli.features;
  opt.bytes_per_element = sizeof(real_t);
  opt.metrics = &metrics;
  opt.recorder = &recorder;
  opt.watchdog = &watchdog;
  obs::TelemetryObserver observer(&tracer, physical, opt);

  const std::uint64_t fingerprint =
      PlanCache::fingerprint(w.in_sets, w.out_sets);
  const BlackBoxGuard black_box(cli.postmortem_out, &recorder, &metrics,
                                fingerprint);

  obs::RunReportInputs inputs;
  inputs.trace = &trace;
  inputs.topology = &topo;
  inputs.timing = &timing;
  inputs.features = cli.features;
  inputs.alpha = cli.alpha;
  inputs.partition_density = w.measured_density;
  inputs.workload = "powerlaw(seed=" + std::to_string(cli.seed) + ")";

  std::vector<std::vector<real_t>> results;
  DegradedReport degraded;
  std::vector<rank_t> dead_ranks;
  StreamStats sstats;
  if (cli.replication == 1) {
    KYLIX_CHECK_MSG(cli.failures == 0,
                    "failures need --replication >= 2 to stay correct");
    ParallelBspEngine<real_t> engine(cli.machines, 0, nullptr, &trace,
                                     &timing);
    engine.set_observer(&observer);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.set_network(&net);
    allreduce.set_flight_recorder(&recorder);
    allreduce.set_streaming(cli.stream);
    if (cli.chunk_bytes != 0) allreduce.set_chunk_bytes(cli.chunk_bytes);
    allreduce.configure(w.in_sets, w.out_sets);
    results = allreduce.reduce(w.values);
    sstats = allreduce.stream_stats();
    inputs.measured_elements = allreduce.measured_layer_elements();
    inputs.dropped_messages = engine.dropped_messages();
    std::printf("engine: parallel (%u threads)\n", engine.num_threads());
  } else {
    ReplicatedBsp<real_t> engine(cli.machines, cli.replication, &failures,
                                 &trace, &timing);
    if (engine.has_failed()) {
      // A whole replica group is dead (expected after ~sqrt(m) failures);
      // proceed anyway and report the degraded completion.
      std::printf("warning: a whole replica group is dead — completing "
                  "degraded over the surviving ranks\n");
    }
    engine.set_observer(&observer);
    SparseAllreduce<real_t, OpSum, ReplicatedBsp<real_t>> allreduce(
        &engine, topo, &compute);
    allreduce.set_network(&net);
    allreduce.set_flight_recorder(&recorder);
    allreduce.set_streaming(cli.stream);
    if (cli.chunk_bytes != 0) allreduce.set_chunk_bytes(cli.chunk_bytes);
    allreduce.configure(w.in_sets, w.out_sets);
    results = allreduce.reduce(w.values);
    sstats = allreduce.stream_stats();
    degraded = allreduce.degraded_report();
    dead_ranks = engine.dead_logical_ranks();
    inputs.measured_elements = allreduce.measured_layer_elements();
    inputs.dropped_messages = engine.dropped_messages();
    inputs.race_wins = engine.race_stats().wins;
    inputs.race_losses = engine.race_stats().losses;
    std::printf("engine: replicated x%u, %u failures injected\n",
                cli.replication, cli.failures);
  }
  obs::publish_stream_stats(metrics, sstats);
  timing.mark_reduce_complete();

  std::size_t errors;
  std::size_t checked;
  if (degraded.degraded || !dead_ranks.empty()) {
    std::printf("%s\n", degraded.summary().c_str());
    Oracle oracle(w);
    const SoundCheck check =
        verify_degraded(cli, w, oracle, results, degraded, dead_ranks);
    errors = check.errors;
    checked = check.checked;
  } else {
    errors = verify(cli, w, results);
    checked = 0;
    for (rank_t r = 0; r < cli.machines; ++r) checked += w.in_sets[r].size();
  }
  const obs::RunReport report = obs::build_run_report(inputs);

  std::printf("\n%s\n", report.ascii_chart().c_str());
  std::printf("layer   deg   P_i meas   P_i model   D_i meas   D_i model\n");
  for (const obs::LayerReport& lr : report.layers) {
    std::printf("%5u %5u %10.0f %11.0f %10.4f %11.4f\n", lr.layer,
                lr.degree, lr.measured_elements_per_node,
                lr.model_elements_per_node, lr.measured_density,
                lr.model_density);
  }
  std::printf("totals: %s in %llu messages, %llu dropped",
              format_bytes(static_cast<double>(report.total_bytes)).c_str(),
              static_cast<unsigned long long>(report.total_messages),
              static_cast<unsigned long long>(report.dropped_messages));
  if (cli.replication > 1) {
    std::printf(", races %llu won / %llu lost",
                static_cast<unsigned long long>(report.race_wins),
                static_cast<unsigned long long>(report.race_losses));
  }
  std::printf("\nmodeled config time: %s\nmodeled reduce time: %s\n",
              format_seconds(report.time_config_s).c_str(),
              format_seconds(report.time_reduce_s).c_str());
  if (report.hierarchical) {
    std::printf("  intra tier (c=%u): %s config + %s reduce  |  inter "
                "rounds: %s\n",
                report.cores_per_machine,
                format_seconds(report.time_intra_config_s).c_str(),
                format_seconds(report.time_intra_reduce_s).c_str(),
                format_seconds(report.time_inter_reduce_s).c_str());
  }
  // Latency percentiles: measured from the engine.round_seconds histogram
  // (the observer's wall clock), modeled from the timing accumulator's
  // per-round order statistics.
  {
    const obs::Histogram::Snapshot rounds =
        metrics
            .histogram("engine.round_seconds",
                       obs::exponential_bounds(1e-6, 10, 8))
            .snapshot();
    std::printf("round latency (measured, %llu rounds): p50 %s  p99 %s  "
                "p999 %s\n",
                static_cast<unsigned long long>(rounds.count),
                format_seconds(rounds.quantile(0.5)).c_str(),
                format_seconds(rounds.quantile(0.99)).c_str(),
                format_seconds(rounds.quantile(0.999)).c_str());
    std::printf("round latency (modeled):  p50 %s  p99 %s\n",
                format_seconds(timing.round_time_quantile(0.5)).c_str(),
                format_seconds(timing.round_time_quantile(0.99)).c_str());
    std::printf("anomaly watchdog: %llu slow rounds, %llu stragglers, "
                "%llu byte-imbalance flags over %llu rounds\n",
                static_cast<unsigned long long>(watchdog.slow_rounds()),
                static_cast<unsigned long long>(watchdog.stragglers()),
                static_cast<unsigned long long>(watchdog.byte_imbalances()),
                static_cast<unsigned long long>(watchdog.rounds_seen()));
  }
  if (sstats.streamed) {
    const double streamed_s =
        timing.pipelined_reduce_time(sstats.max_chunks_per_letter);
    std::printf(
        "streaming: chunk %s, %llu chunks over %llu letters (max %u/letter)\n"
        "  modeled streamed reduce time: %s (pipeline overlap %.2f)\n"
        "  peak buffer: %s streamed vs %s letter-at-once\n",
        format_bytes(static_cast<double>(sstats.chunk_bytes)).c_str(),
        static_cast<unsigned long long>(sstats.chunks),
        static_cast<unsigned long long>(sstats.letters),
        sstats.max_chunks_per_letter, format_seconds(streamed_s).c_str(),
        sstats.overlap_ratio(),
        format_bytes(static_cast<double>(sstats.peak_stream_buffer_bytes))
            .c_str(),
        format_bytes(static_cast<double>(sstats.peak_letter_buffer_bytes))
            .c_str());
  }

  if (cli.inflight > 1) {
    // Async overlapped replay (DESIGN §11): the same workload pushed
    // through the async executor as cli.inflight concurrent streams over
    // the shared modeled channel, against the serialized window=1 replay
    // of the identical streams. Stream admit/complete marks land in the
    // flight recorder alongside the main run's events.
    KYLIX_CHECK_MSG(cli.replication == 1 && cli.failures == 0,
                    "--inflight overlaps plain-channel replays; drop "
                    "--replication/--failures");
    ParallelBspEngine<real_t> compile_engine(cli.machines, 1);
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> async_compiler(
        &compile_engine, topo, &compute);
    const auto plan = async_compiler.compile(w.in_sets, w.out_sets);
    const auto overlap = [&](std::uint32_t window, double& makespan,
                             std::vector<double>& latencies, double& tx_busy) {
      AsyncExecutor<real_t> ax;
      AsyncExecutor<real_t>::Options aopts;
      aopts.window = window;
      aopts.network = &net;
      aopts.compute = &compute;
      aopts.recorder = &recorder;
      ax.bind(plan, aopts);
      std::vector<std::uint32_t> tags;
      tags.reserve(cli.inflight);
      for (std::uint32_t i = 0; i < cli.inflight; ++i) {
        tags.push_back(ax.submit(w.values));
      }
      ax.drain();
      makespan = ax.makespan_seconds();
      latencies = ax.completion_latencies();
      tx_busy = ax.max_tx_busy_seconds();
      std::vector<std::vector<std::vector<real_t>>> outs;
      outs.reserve(cli.inflight);
      for (const std::uint32_t tag : tags) {
        outs.push_back(ax.take_result(tag));
      }
      return outs;
    };
    double serial_s = 0;
    double async_s = 0;
    double tx_busy = 0;
    std::vector<double> serial_lat;
    std::vector<double> async_lat;
    const auto serial_outs = overlap(1, serial_s, serial_lat, tx_busy);
    const auto async_outs =
        overlap(cli.inflight, async_s, async_lat, tx_busy);
    std::sort(async_lat.begin(), async_lat.end());
    const auto quantile = [&](double q) {
      const std::size_t i = static_cast<std::size_t>(
          q * static_cast<double>(async_lat.size() - 1) + 0.5);
      return async_lat[i];
    };
    std::printf(
        "async overlap (%u in flight): %s vs %s serialized (%.2fx)\n"
        "  aggregate: %.1f vs %.1f reduces/s; per-stream latency p50 %s "
        "p99 %s\n  bottleneck NIC occupancy %.0f%%; streams %s serialized "
        "replay\n",
        cli.inflight, format_seconds(async_s).c_str(),
        format_seconds(serial_s).c_str(),
        async_s > 0 ? serial_s / async_s : 0.0,
        async_s > 0 ? cli.inflight / async_s : 0.0,
        serial_s > 0 ? cli.inflight / serial_s : 0.0,
        format_seconds(quantile(0.5)).c_str(),
        format_seconds(quantile(0.99)).c_str(),
        async_s > 0 ? 100.0 * tx_busy / async_s : 0.0,
        async_outs == serial_outs ? "bit-identical to" : "DIVERGED from");
  }

  if (!cli.trace_out.empty()) {
    std::ofstream out(cli.trace_out);
    KYLIX_CHECK_MSG(out.good(), "cannot open --trace-out file");
    tracer.write_chrome_trace(out);
    std::printf("trace: %s (%zu events; open in Perfetto or "
                "chrome://tracing)\n",
                cli.trace_out.c_str(), tracer.num_events());
  }
  if (!cli.report_out.empty()) {
    std::ofstream out(cli.report_out);
    KYLIX_CHECK_MSG(out.good(), "cannot open --report-out file");
    // The run report plus the engine-side metrics snapshot, one document.
    out << "{\"report\":";
    report.write_json(out);
    out << ",\"metrics\":";
    metrics.write_json(out);
    out << "}\n";
    std::printf("report: %s\n", cli.report_out.c_str());
  }
  if (!cli.postmortem_out.empty()) {
    const bool went_degraded = degraded.degraded || !dead_ranks.empty();
    if (went_degraded) {
      obs::FlightEvent e;
      e.kind = obs::FlightEventKind::kDegraded;
      e.value = degraded.mass_lost_fraction;
      e.bytes = degraded.lost_keys.size();
      recorder.record(e);
    }
    obs::PostmortemInputs pm;
    pm.reason = went_degraded          ? "degraded-completion"
                : cli.failures > 0     ? "fault-injection"
                                       : "requested";
    pm.detail = went_degraded ? degraded.summary() : "run completed exactly";
    pm.recorder = &recorder;
    pm.metrics = &metrics;
    pm.plan_fingerprint = fingerprint;
    KYLIX_CHECK_MSG(obs::dump_postmortem(cli.postmortem_out, pm),
                    "cannot write --postmortem-out file");
    std::printf("postmortem: %s (%llu events)\n", cli.postmortem_out.c_str(),
                static_cast<unsigned long long>(recorder.recorded()));
  }
  std::printf("verification: %zu mismatches over %zu reliable positions "
              "(%s)\n",
              errors, checked, errors == 0 ? "PASS" : "FAIL");
  return errors == 0 ? 0 : 1;
}

/// The chaos sweep: for every failure count k in 0..max, run `--seeds`
/// independently seeded schedules (k scripted crashes at uniform rounds
/// plus background drop/duplicate/delay rates) through the replicated
/// engine, classify each run as exact / degraded-but-sound / bad, and
/// print the survival table. Any "bad" run — a mismatch at a key the
/// degraded report vouched for — fails the sweep.
int run_chaos(const Cli& cli) {
  const NetworkModel net = scaled_network();
  KYLIX_CHECK_MSG(cli.replication >= 1, "--replication must be >= 1");

  const Workload w = synthesize(cli);
  std::printf("workload: n = %llu, m = %u, measured density %.4f\n",
              static_cast<unsigned long long>(cli.features), cli.machines,
              w.measured_density);
  const Topology topo = pick_topology(cli, w, net, /*verbose=*/false);
  const rank_t physical = cli.machines * cli.replication;
  KYLIX_CHECK_MSG(cli.max_failures <= physical,
                  "--max-failures exceeds physical nodes");
  // One allreduce runs 3*l rounds (config down, reduce down, reduce up);
  // scripted crashes land uniformly inside that window.
  const std::uint64_t horizon = 3ull * topo.num_layers();

  std::printf("chaos sweep: replication %u (%u physical), %llu schedules "
              "per row, rates drop/dup/delay = %.3f/%.3f/%.3f\n\n",
              cli.replication, physical,
              static_cast<unsigned long long>(cli.chaos_seeds),
              cli.drop_rate, cli.dup_rate, cli.delay_rate);
  std::printf("%8s %6s %9s %4s %10s %10s %11s\n", "failures", "exact",
              "degraded", "bad", "recovered", "mean-mass", "mean-lostkeys");

  Oracle oracle(w);
  std::uint64_t total_bad = 0;
  bool box_dumped = false;
  for (rank_t k = 0; k <= cli.max_failures; ++k) {
    std::uint64_t exact = 0, sound = 0, bad = 0, recoveries = 0;
    double mass_lost = 0.0, lost_keys = 0.0;
    for (std::uint64_t s = 0; s < cli.chaos_seeds; ++s) {
      FaultPlan plan(physical, cli.seed + 1000ull * k + s);
      plan.random_crashes(k, horizon);
      if (cli.drop_rate > 0 || cli.dup_rate > 0 || cli.delay_rate > 0) {
        FaultPlan::TransientRates rates;
        rates.drop = cli.drop_rate;
        rates.duplicate = cli.dup_rate;
        rates.delay = cli.delay_rate;
        plan.set_transient_rates(rates);
      }
      FaultChannel<real_t> channel(&plan);
      ReplicatedBsp<real_t> engine(cli.machines, cli.replication);
      engine.set_fault_channel(&channel);
      // Fly a black box on every run until one dump lands: the first run
      // that degrades (or goes unsound) leaves its fault/retry/recovery
      // timeline behind at --postmortem-out.
      const bool arm_box = !cli.postmortem_out.empty() && !box_dumped;
      std::unique_ptr<obs::MetricsRegistry> run_metrics;
      std::unique_ptr<obs::FlightRecorder> run_recorder;
      std::unique_ptr<obs::TelemetryObserver> run_observer;
      if (arm_box) {
        run_metrics = std::make_unique<obs::MetricsRegistry>();
        run_recorder = std::make_unique<obs::FlightRecorder>(
            physical, /*per_rank_capacity=*/256, /*global_capacity=*/4096);
        obs::TelemetryObserver::Options topt;
        topt.metrics = run_metrics.get();
        topt.recorder = run_recorder.get();
        run_observer = std::make_unique<obs::TelemetryObserver>(
            /*tracer=*/nullptr, physical, topt);
        engine.set_observer(run_observer.get());
      }
      SparseAllreduce<real_t, OpSum, ReplicatedBsp<real_t>> allreduce(
          &engine, topo);
      allreduce.configure(w.in_sets, w.out_sets);
      const auto results = allreduce.reduce(w.values);
      const DegradedReport report = allreduce.degraded_report();
      const std::vector<rank_t> dead = engine.dead_logical_ranks();
      recoveries += engine.recovery_stats().promotions +
                    engine.recovery_stats().forced;

      const SoundCheck check =
          verify_degraded(cli, w, oracle, results, report, dead);
      if (check.errors > 0) {
        ++bad;
        std::printf("  BAD schedule: failures=%u seed=%llu — %zu mismatches "
                    "over %zu vouched positions (%s)\n",
                    k, static_cast<unsigned long long>(s), check.errors,
                    check.checked, report.summary().c_str());
      } else if (report.degraded || !dead.empty()) {
        ++sound;
        mass_lost += report.mass_lost_fraction;
        lost_keys += static_cast<double>(report.lost_keys.size());
      } else {
        ++exact;
      }
      if (arm_box &&
          (check.errors > 0 || report.degraded || !dead.empty())) {
        obs::FlightEvent e;
        e.kind = obs::FlightEventKind::kDegraded;
        e.value = report.mass_lost_fraction;
        e.bytes = report.lost_keys.size();
        run_recorder->record(e);
        obs::PostmortemInputs pm;
        pm.reason = check.errors > 0 ? "unsound-run" : "fault-injection";
        pm.detail = "failures=" + std::to_string(k) +
                    " seed=" + std::to_string(s) + " — " + report.summary();
        pm.recorder = run_recorder.get();
        pm.metrics = run_metrics.get();
        pm.plan_fingerprint = PlanCache::fingerprint(w.in_sets, w.out_sets);
        if (obs::dump_postmortem(cli.postmortem_out, pm)) {
          box_dumped = true;
          std::printf("  postmortem: %s (failures=%u seed=%llu, %llu "
                      "events)\n",
                      cli.postmortem_out.c_str(), k,
                      static_cast<unsigned long long>(s),
                      static_cast<unsigned long long>(
                          run_recorder->recorded()));
        }
      }
    }
    total_bad += bad;
    std::printf("%8u %6llu %9llu %4llu %10llu %10.4f %13.1f\n", k,
                static_cast<unsigned long long>(exact),
                static_cast<unsigned long long>(sound),
                static_cast<unsigned long long>(bad),
                static_cast<unsigned long long>(recoveries),
                sound > 0 ? mass_lost / static_cast<double>(sound) : 0.0,
                sound > 0 ? lost_keys / static_cast<double>(sound) : 0.0);
  }
  if (!cli.postmortem_out.empty() && !box_dumped) {
    std::printf("postmortem: every run completed exactly — nothing to dump\n");
  }
  std::printf("\n%s\n", total_bad == 0
                            ? "chaos sweep PASS: every run was exact or "
                              "degraded-but-sound"
                            : "chaos sweep FAIL: unsound degraded results");
  return total_bad == 0 ? 0 : 1;
}

/// The compiled-plan workflow demo: compile once, print the frozen message
/// schedule and the multi-payload wire amortization, exercise the
/// fingerprint-keyed cache (miss, then hit), wall-clock cached replay
/// against per-iteration configure+reduce, and gate the exit code on both
/// oracle correctness and strided-vs-independent bit-identity.
int run_plan(const Cli& cli) {
  const NetworkModel net = scaled_network();
  KYLIX_CHECK_MSG(cli.payloads >= 1, "--payloads must be >= 1");
  KYLIX_CHECK_MSG(cli.plan_iters >= 1, "--iters must be >= 1");

  Workload w = synthesize(cli);
  std::printf("workload: n = %llu, m = %u, measured density %.4f\n",
              static_cast<unsigned long long>(cli.features), cli.machines,
              w.measured_density);
  const Topology topo = pick_topology(cli, w, net, /*verbose=*/false);

  // Compile: run the configuration rounds once and freeze the plan.
  ParallelBspEngine<real_t> engine(cli.machines, 1);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topo);
  Timer timer;
  const auto plan = allreduce.compile(w.in_sets, w.out_sets);
  const double compile_s = timer.seconds();

  const auto schedule = plan->message_schedule();
  std::size_t msgs[3] = {0, 0, 0};
  std::uint64_t elements[3] = {0, 0, 0};
  for (const ScheduledMessage& msg : schedule) {
    const auto phase = static_cast<std::size_t>(msg.phase);
    ++msgs[phase];
    elements[phase] += msg.elements;
  }
  std::printf("\nplan: fingerprint %016llx, compiled in %s\n",
              static_cast<unsigned long long>(plan->fingerprint()),
              format_seconds(compile_s).c_str());
  static const char* const kPhaseNames[3] = {"config-down", "reduce-down",
                                             "reduce-up"};
  std::printf("frozen schedule (%zu messages):\n", schedule.size());
  for (std::size_t phase = 0; phase < 3; ++phase) {
    std::printf("  %-12s %6zu messages, %llu key positions\n",
                kPhaseNames[phase], msgs[phase],
                static_cast<unsigned long long>(elements[phase]));
  }

  // Multi-payload amortization: piece keys are sent once per replay, so k
  // interleaved payloads cost less than k separate reduces.
  const auto one = plan->reduce_wire_bytes(sizeof(real_t), 1);
  std::printf("reduce wire bytes by payload count (vs k separate replays):\n");
  for (std::uint32_t k = 1; k <= cli.payloads; ++k) {
    const auto bytes = plan->reduce_wire_bytes(sizeof(real_t), k);
    std::printf("  k=%-2u %12s  %.3fx\n", k,
                format_bytes(static_cast<double>(bytes)).c_str(),
                static_cast<double>(bytes) /
                    (static_cast<double>(k) * static_cast<double>(one)));
  }

  // Cache demo: the first configure compiles and inserts, the second hashes
  // the same sets and adopts the stored plan without any config rounds.
  PlanCache cache(4);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> cached(
      &engine, topo);
  const bool first = cached.configure_cached(cache, w.in_sets, w.out_sets);
  const bool second = cached.configure_cached(cache, w.in_sets, w.out_sets);
  std::printf("plan cache: first configure %s, second %s "
              "(hits %llu, misses %llu, size %zu)\n",
              first ? "HIT" : "miss", second ? "HIT" : "miss",
              static_cast<unsigned long long>(cache.hits()),
              static_cast<unsigned long long>(cache.misses()), cache.size());

  // Wall-clock: warm cached replay vs per-iteration configure+reduce.
  const auto reference = cached.reduce(w.values);
  std::size_t errors = verify(cli, w, reference);

  timer.reset();
  for (std::uint32_t it = 0; it < cli.plan_iters; ++it) {
    (void)cached.configure_cached(cache, w.in_sets, w.out_sets);
    (void)cached.reduce(w.values);
  }
  const double replay_s = timer.seconds();
  timer.reset();
  for (std::uint32_t it = 0; it < cli.plan_iters; ++it) {
    SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> fresh(
        &engine, topo);
    (void)fresh.reduce_with_config(w.in_sets, w.out_sets, w.values);
  }
  const double combined_s = timer.seconds();
  std::printf("\nwall clock over %u iterations:\n", cli.plan_iters);
  std::printf("  configure+reduce each iteration: %s\n",
              format_seconds(combined_s).c_str());
  std::printf("  cached plan replay:              %s  (%.2fx)\n",
              format_seconds(replay_s).c_str(),
              replay_s > 0 ? combined_s / replay_s : 0.0);

  // Strided verification: k payloads through one plan must be bit-identical
  // to k independent reduces of the same payloads.
  const std::uint32_t k = cli.payloads;
  std::vector<std::vector<real_t>> strided_in(cli.machines);
  std::vector<std::vector<std::vector<real_t>>> independent(k);
  for (std::uint32_t j = 0; j < k; ++j) {
    auto payload = w.values;  // payload j shifts every value by j
    for (auto& values : payload) {
      for (auto& v : values) v += static_cast<real_t>(j);
    }
    independent[j] = allreduce.reduce(payload);
    for (rank_t r = 0; r < cli.machines; ++r) {
      auto& interleaved = strided_in[r];
      interleaved.resize(payload[r].size() * k);
      for (std::size_t p = 0; p < payload[r].size(); ++p) {
        interleaved[p * k + j] = payload[r][p];
      }
    }
  }
  const auto strided = allreduce.reduce_strided(std::move(strided_in), k);
  std::size_t strided_errors = 0;
  for (rank_t r = 0; r < cli.machines; ++r) {
    for (std::uint32_t j = 0; j < k; ++j) {
      for (std::size_t p = 0; p < independent[j][r].size(); ++p) {
        if (strided[r][p * k + j] != independent[j][r][p]) ++strided_errors;
      }
    }
  }
  std::printf("strided replay: %u payloads interleaved, %zu mismatches vs "
              "independent reduces (%s)\n",
              k, strided_errors, strided_errors == 0 ? "PASS" : "FAIL");
  std::printf("verification: %zu mismatches against the single-node "
              "reference (%s)\n",
              errors, errors == 0 ? "PASS" : "FAIL");
  return errors == 0 && strided_errors == 0 ? 0 : 1;
}

/// One kill→heal→rejoin cycle's worth of measurements for the healing table.
struct HealCycle {
  std::vector<rank_t> victims;         ///< logical ranks killed this cycle
  std::uint64_t degraded_rounds = 0;   ///< reduces run while the detector probed
  double detect_view_s = 0;            ///< view time from kill to epoch bump
  double replan_s = 0;                 ///< wall cost of the manager's re-plan
  double survivor_cold_s = 0;          ///< wall cost of a fresh survivor configure
  bool heal_identical = false;         ///< healed reduce == fresh survivor reduce
  bool rejoin_cache_hit = false;       ///< rejoin served the epoch-0 cached plan
  bool rejoin_identical = false;       ///< post-rejoin reduce == original baseline
};

/// The healing loop, generic over the engine: kill a group of logical ranks,
/// run degraded rounds on the old plan while the heartbeat detector probes,
/// let the EpochedPlanManager re-plan on confirmation, check the healed
/// reduce is bit-identical to a cold configure on the survivor set, then
/// revive the group and check the rejoin epoch restores the original plan
/// (cache hit) and baseline results.
template <typename Engine, typename MakeEngine>
int run_heal_engine(const Cli& cli, const Workload& w, const Topology& topo,
                    MakeEngine make_engine) {
  const rank_t m = cli.machines;
  const rank_t physical = m * cli.replication;
  KYLIX_CHECK_MSG(cli.group_size >= 1 && cli.group_size < m,
                  "--group-size must be in [1, machines)");
  KYLIX_CHECK_MSG(cli.heal_cycles >= 1, "--cycles must be >= 1");
  KYLIX_CHECK_MSG(cli.round_dt > 0, "--round-dt must be > 0");

  FailureModel fm(physical);
  auto engine = make_engine(&fm);
  SparseAllreduce<real_t, OpSum, Engine> allreduce(engine.get(), topo);

  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(physical, /*per_rank_capacity=*/256,
                               /*global_capacity=*/4096);
  MembershipOptions vopts;
  vopts.replication = cli.replication;
  vopts.recorder = &recorder;
  vopts.metrics = &metrics;
  MembershipView view(m, &fm, vopts);
  PlanCache cache(8);
  typename EpochedPlanManager<real_t, OpSum, Engine>::Options mopts;
  mopts.cache = &cache;
  mopts.metrics = &metrics;
  EpochedPlanManager<real_t, OpSum, Engine> mgr(&allreduce, &view, mopts);
  mgr.set_engine(engine.get());

  mgr.configure(w.in_sets, w.out_sets);
  const double cold_s = mgr.cold_configure_seconds();
  const auto baseline = allreduce.reduce(w.values);
  const std::size_t baseline_errors = verify(cli, w, baseline);
  std::printf("baseline: configured in %s, %zu mismatches vs reference "
              "(%s)\n\n",
              format_seconds(cold_s).c_str(), baseline_errors,
              baseline_errors == 0 ? "PASS" : "FAIL");

  double clock = 0.0;
  std::vector<HealCycle> cycles;
  for (std::uint32_t c = 0; c < cli.heal_cycles; ++c) {
    HealCycle cyc;
    // Deterministic victim schedule: a fresh group of logical ranks each
    // cycle so every heal compiles a distinct survivor plan (no cache hit
    // masking the re-plan cost), while every rejoin returns to epoch 0.
    for (rank_t j = 0; j < cli.group_size; ++j) {
      cyc.victims.push_back((c * cli.group_size + j) % m);
    }
    const double killed_at = clock;
    for (const rank_t v : cyc.victims) {
      for (std::uint32_t rep = 0; rep < cli.replication; ++rep) {
        fm.kill(v + static_cast<rank_t>(rep) * m);
      }
    }
    // Degraded rounds on the old epoch until the detector's probe schedule
    // runs dry and the manager swaps plans at this round barrier.
    while (!mgr.heal(clock)) {
      (void)allreduce.reduce(w.values);
      ++cyc.degraded_rounds;
      clock += cli.round_dt;
      KYLIX_CHECK_MSG(cyc.degraded_rounds < 10000,
                      "heartbeat detector never confirmed the kill");
    }
    cyc.detect_view_s = clock - killed_at;
    cyc.replan_s = mgr.timeline().back().replan_s;

    // Healed epoch: bit-identical to a cold configure on the survivor set.
    const auto healed = allreduce.reduce(w.values);
    FailureModel fresh_fm(physical);
    for (rank_t p = 0; p < physical; ++p) {
      if (fm.is_dead(p)) fresh_fm.kill(p);
    }
    auto fresh_engine = make_engine(&fresh_fm);
    SparseAllreduce<real_t, OpSum, Engine> fresh(fresh_engine.get(), topo);
    Timer timer;
    fresh.configure(w.in_sets, w.out_sets);
    cyc.survivor_cold_s = timer.seconds();
    cyc.heal_identical = healed == fresh.reduce(w.values);

    // Rejoin: revive the group; the next heal bumps the epoch again and the
    // full-membership fingerprint hits the epoch-0 cache entry.
    clock += cli.round_dt;
    for (const rank_t v : cyc.victims) {
      for (std::uint32_t rep = 0; rep < cli.replication; ++rep) {
        fm.revive(v + static_cast<rank_t>(rep) * m);
      }
    }
    KYLIX_CHECK_MSG(mgr.heal(clock), "rejoin did not advance the epoch");
    cyc.rejoin_cache_hit = mgr.timeline().back().cache_hit;
    cyc.rejoin_identical = allreduce.reduce(w.values) == baseline;
    clock += cli.round_dt;
    cycles.push_back(std::move(cyc));
  }

  // Survival/healing table.
  std::printf("%5s %-14s %9s %10s %12s %14s %6s %5s %7s\n", "cycle",
              "victims", "degraded", "detect", "replan", "cold(surv)",
              "ratio", "heal", "rejoin");
  double sum_replan = 0, sum_cold = 0, sum_degraded = 0;
  bool all_sound = baseline_errors == 0;
  for (std::size_t c = 0; c < cycles.size(); ++c) {
    const HealCycle& cyc = cycles[c];
    std::string victims;
    for (const rank_t v : cyc.victims) {
      if (!victims.empty()) victims += ",";
      victims += std::to_string(v);
    }
    sum_replan += cyc.replan_s;
    sum_cold += cyc.survivor_cold_s;
    sum_degraded += static_cast<double>(cyc.degraded_rounds);
    all_sound = all_sound && cyc.heal_identical && cyc.rejoin_cache_hit &&
                cyc.rejoin_identical;
    std::printf("%5zu %-14s %9llu %10s %12s %14s %6.2f %5s %7s\n", c,
                victims.c_str(),
                static_cast<unsigned long long>(cyc.degraded_rounds),
                format_seconds(cyc.detect_view_s).c_str(),
                format_seconds(cyc.replan_s).c_str(),
                format_seconds(cyc.survivor_cold_s).c_str(),
                cyc.survivor_cold_s > 0 ? cyc.replan_s / cyc.survivor_cold_s
                                        : 0.0,
                cyc.heal_identical ? "PASS" : "FAIL",
                cyc.rejoin_cache_hit && cyc.rejoin_identical ? "PASS"
                                                             : "FAIL");
  }

  // Epoch timeline: the membership view's history joined with the
  // manager's per-epoch re-plan costs (row 0 is the initial configure).
  const auto& history = view.history();
  const auto& timeline = mgr.timeline();
  std::printf("\nepoch timeline:\n");
  std::printf("%6s %10s %6s %-14s %12s %6s %s\n", "epoch", "at(view)",
              "alive", "dead", "replan", "cache", "fingerprint");
  for (std::size_t i = 0; i < history.size() && i < timeline.size(); ++i) {
    std::string dead;
    for (const rank_t d : history[i].dead) {
      if (!dead.empty()) dead += ",";
      dead += std::to_string(d);
    }
    if (dead.empty()) dead = "-";
    std::printf("%6llu %10s %6zu %-14s %12s %6s %016llx\n",
                static_cast<unsigned long long>(history[i].epoch),
                format_seconds(history[i].at_s).c_str(), timeline[i].alive,
                dead.c_str(), format_seconds(timeline[i].replan_s).c_str(),
                timeline[i].cache_hit ? "HIT" : "miss",
                static_cast<unsigned long long>(timeline[i].fingerprint));
  }

  const auto n = static_cast<double>(cycles.size());
  const double mean_replan = sum_replan / n;
  const double mean_cold = sum_cold / n;
  const double ratio = mean_cold > 0 ? mean_replan / mean_cold : 0.0;
  std::printf("\nmembership: %llu suspects, %llu deaths, %llu joins, "
              "%llu probes, %llu epoch changes\n",
              static_cast<unsigned long long>(view.stats().suspects),
              static_cast<unsigned long long>(view.stats().deaths),
              static_cast<unsigned long long>(view.stats().joins),
              static_cast<unsigned long long>(view.stats().probes),
              static_cast<unsigned long long>(view.epoch()));
  std::printf("re-plan cost: mean %s vs mean survivor cold configure %s "
              "(%.2fx)\n",
              format_seconds(mean_replan).c_str(),
              format_seconds(mean_cold).c_str(), ratio);

  if (!cli.heal_out.empty()) {
    std::ofstream out(cli.heal_out);
    KYLIX_CHECK_MSG(out.good(), "cannot open --heal-out file");
    out << "{\"machines\":" << m << ",\"replication\":" << cli.replication
        << ",\"group_size\":" << cli.group_size
        << ",\"cycles\":" << cycles.size()
        << ",\"cold_configure_s\":" << cold_s
        << ",\"mean_replan_s\":" << mean_replan
        << ",\"mean_survivor_cold_s\":" << mean_cold
        << ",\"replan_over_cold_ratio\":" << ratio
        << ",\"mean_degraded_rounds\":" << sum_degraded / n
        << ",\"epochs\":" << view.epoch() << ",\"all_sound\":"
        << (all_sound ? "true" : "false") << "}\n";
    std::printf("healing summary: %s\n", cli.heal_out.c_str());
  }
  std::printf("healing loop: %s\n", all_sound ? "PASS" : "FAIL");
  return all_sound ? 0 : 1;
}

/// The elastic-membership demo: seeded kill-group → degraded rounds →
/// detector-confirmed re-plan → rejoin, printing the epoch timeline and the
/// survival/healing table. Replication >= 2 drives the replicated engine
/// (a group is dead only when every replica dies); replication 1 heals the
/// plain BSP engine around individual dead ranks.
int run_heal(const Cli& cli) {
  const NetworkModel net = scaled_network();
  const Workload w = synthesize(cli);
  std::printf("workload: n = %llu, m = %u, measured density %.4f\n",
              static_cast<unsigned long long>(cli.features), cli.machines,
              w.measured_density);
  const Topology topo = pick_topology(cli, w, net, /*verbose=*/false);
  std::printf("healing loop: %u cycles, group size %u, replication %u, "
              "round dt %s\n\n",
              cli.heal_cycles, cli.group_size, cli.replication,
              format_seconds(cli.round_dt).c_str());
  if (cli.replication == 1) {
    return run_heal_engine<ParallelBspEngine<real_t>>(
        cli, w, topo, [&](const FailureModel* fm) {
          return std::make_unique<ParallelBspEngine<real_t>>(
              cli.machines, 1, fm);
        });
  }
  return run_heal_engine<ReplicatedBsp<real_t>>(
      cli, w, topo, [&](const FailureModel* fm) {
        return std::make_unique<ReplicatedBsp<real_t>>(cli.machines,
                                                       cli.replication, fm);
      });
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse(argc, argv);
  try {
    if (cli.postmortem) return run_postmortem(cli);
    if (cli.chaos) return run_chaos(cli);
    if (cli.plan) return run_plan(cli);
    if (cli.heal) return run_heal(cli);
    return cli.report ? run_report(cli) : run_default(cli);
  } catch (const kylix::check_error& e) {
    // BlackBoxGuard has already dumped the flight recorder (if one was
    // armed) during unwinding; all that is left is a clean exit.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
  }
}
