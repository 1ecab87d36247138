// kylix_bench — the repository's end-to-end benchmark (see README.md).
//
// One process runs one closed-loop workload: a single caller issues the next
// op only after the previous one returned, the way a PageRank or training
// loop calls the library. The engine is ParallelBspEngine with 3 threads
// (caller + 2 workers) on a 4-CPU host — one CPU stays free for the OS and
// whatever drives the benchmark; smaller hosts get one thread fewer than
// their CPU count.
//
//   kylix_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-out FILE] [--smoke]
//   kylix_bench --smoke       every workload at toy size, both passes
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// engine. --trace 1 is the traced pass (bench_trace.hpp): traced and bare
// ops alternate on one allreduce, and the per-layer metrics are medians
// over the traced ops. --seed drives the partition, the values and the
// minibatch draws; the library sees only the generated inputs. The last
// stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {name: {"value": ..., "unit": ...}}}
// and the line before it is {"env": {...}} (host, threads, drift probe).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_trace.hpp"
#include "kylix.hpp"

namespace {

using namespace kylix;
using bench::Nanos;
using bench::now_ns;
using bench::OpLayers;
using bench::SpanKind;

using Engine = ParallelBspEngine<real_t>;
using Timed = bench::TimedEngine<Engine>;
using Values = std::vector<std::vector<real_t>>;

#ifndef KYLIX_BENCH_BUILD_TYPE
#define KYLIX_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef KYLIX_BENCH_COMPILER
#define KYLIX_BENCH_COMPILER "unknown"
#endif

constexpr int kColdSetups = 7;
constexpr std::uint64_t kMinOps = 10;     ///< per pass, whatever --seconds says
constexpr std::uint64_t kSmokeOps = 5;
constexpr std::uint64_t kProbeEvery = 10;  ///< ops between host probes
constexpr std::size_t kSpanCapacity = std::size_t{1} << 20;
constexpr std::uint32_t kDetailedOps = 3;  ///< traced ops with callback spans

double ms(Nanos ns) { return static_cast<double>(ns) * 1e-6; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  unsigned long long size = 0;
  unsigned long long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) * 1e-6;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// The scaled testbed NIC of the figure benches (bench/bench_common.hpp
/// scaled_network), frozen here so the strided workload's compiled chunk
/// size cannot move when the figure benches are recalibrated.
NetworkModel bench_network() {
  NetworkModel net = NetworkModel::ec2_like();
  net.stack_overhead_s = 3.2e-5;
  net.handshake_latency_s = 0.8e-5;
  net.base_latency_s = 5e-5;
  return net;
}

// ---- workloads ------------------------------------------------------------

enum class Kind { kReplay, kMinibatch, kConfigure, kStrided };

struct Workload {
  std::string name;
  Kind kind = Kind::kReplay;
  std::vector<std::uint32_t> degrees;  ///< inter-node butterfly, layer 1 first
  std::uint32_t cores = 1;             ///< ranks per host (intra tier if > 1)
  GraphSpec graph;                     ///< graph workloads
  std::uint32_t stride = 1;            ///< payloads per reduce
  bool streaming = false;              ///< set_network + set_streaming
  std::uint64_t features = 0;          ///< minibatch feature space
  double alpha = 0;                    ///< minibatch Zipf exponent
  std::uint32_t batch_indices = 0;     ///< raw indices per minibatch batch
  std::uint32_t pool = 0;              ///< pre-drawn batches per rank
  std::uint32_t verify_every = 1;
  std::uint32_t warmups = 1;
  std::uint32_t wire_ops = 1;  ///< ops the end-to-end wire count averages

  [[nodiscard]] Topology topology() const { return Topology(degrees, cores); }
};

/// The four workloads. `smoke` shrinks each to 16 ranks over a 2^12 space
/// with the same shape (kind, stride, tiers, streaming).
std::vector<Workload> workloads(bool smoke) {
  std::vector<Workload> all;
  {
    // PageRank's fixed pattern: one configure, then plan replay only.
    Workload w;
    w.name = "replay-twitter64";
    w.kind = Kind::kReplay;
    w.degrees = smoke ? std::vector<std::uint32_t>{4, 2, 2}
                      : std::vector<std::uint32_t>{8, 4, 2};
    w.graph = twitter_like(smoke ? 1u << 12 : 1u << 18);
    w.warmups = 3;
    all.push_back(w);
  }
  {
    // SGD's changing sets: every step builds new sets and reduces them with
    // the combined configure+reduce pass; nothing repeats.
    Workload w;
    w.name = "minibatch-zipf64";
    w.kind = Kind::kMinibatch;
    w.degrees = smoke ? std::vector<std::uint32_t>{4, 2, 2}
                      : std::vector<std::uint32_t>{8, 4, 2};
    w.features = smoke ? 1u << 12 : 1u << 20;
    w.alpha = 1.1;
    w.batch_indices = smoke ? 64 * 8 : 1024 * 32;
    w.pool = 8;
    w.verify_every = 8;
    w.wire_ops = 8;
    all.push_back(w);
  }
  {
    // The scale headline: configure alone at 1024 ranks, 10 binary layers
    // (the degrees bench::tune picks here, frozen so an autotuner change
    // cannot change the workload).
    Workload w;
    w.name = "configure-twitter1024";
    w.kind = Kind::kConfigure;
    w.degrees.assign(smoke ? 4 : 10, 2);
    w.graph = twitter_like(smoke ? 1u << 12 : 1u << 18);
    w.verify_every = 10;
    all.push_back(w);
  }
  {
    // Large payloads on multi-core hosts: 8 interleaved payloads through
    // the intra tier and chunked (streamed) letters.
    Workload w;
    w.name = "strided-hier-yahoo64";
    w.kind = Kind::kStrided;
    w.degrees = {4};
    w.cores = smoke ? 4 : 16;
    w.graph = yahoo_like(smoke ? 1u << 12 : 1u << 20);
    w.stride = 8;
    w.streaming = true;
    w.warmups = 2;
    all.push_back(w);
  }
  return all;
}

// ---- inputs ---------------------------------------------------------------

/// Every contributed value is a multiple of 1/8 and every sum the workloads
/// form stays below 2^21 (2^24 eighths), so float sums are exact in any
/// order and the oracle comparison can be bitwise.
real_t input_value(std::size_t p, std::uint64_t seed) {
  return static_cast<real_t>((p + seed) % 9 + 1) * 0.125f;
}

struct Minibatch {
  std::vector<KeySet> home;  ///< per rank: features whose key maps to it
  /// pool[r][b]: rank r's pre-drawn batch b of raw feature indices.
  std::vector<std::vector<std::vector<index_t>>> pool;
  std::vector<real_t> tape;  ///< input_value(p) for p < largest out set
};

struct Inputs {
  std::vector<KeySet> in_sets;   ///< graph workloads: sources per rank
  std::vector<KeySet> out_sets;  ///< graph workloads: sources ∪ dests
  Values values;                 ///< contributions, stride-interleaved
  Values expected;               ///< oracle results for `values`
  Minibatch mb;
  std::uint64_t keys = 0;  ///< Σ |in| + |out| of the graph sets
};

KeySet set_from_bits(const std::uint64_t* bits, std::size_t words) {
  std::vector<index_t> indices;
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      indices.push_back(w * 64 + static_cast<index_t>(__builtin_ctzll(b)));
    }
  }
  return KeySet::from_indices(indices);
}

/// Per-rank sets of an m-way random edge partition of `spec`'s graph: the
/// exact draws of generate_zipf_graph(spec) followed by
/// random_edge_partition(edges, m, seed), streamed through per-rank vertex
/// bitmaps so neither the edge list nor the partitions are ever held.
/// in = local sources, out = sources ∪ destinations (the PageRank wiring).
void partition_sets(const GraphSpec& spec, rank_t m, std::uint64_t seed,
                    Inputs& in) {
  const std::uint64_t n = spec.num_vertices;
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> src_bits(std::size_t{m} * words);
  std::vector<std::uint64_t> any_bits(std::size_t{m} * words);
  Rng rng(spec.seed);
  Rng part(mix64(seed));
  const ZipfSampler src(n, spec.alpha_out);
  const ZipfSampler dst(n, spec.alpha_in);
  for (std::uint64_t e = 0; e < spec.num_edges; ++e) {
    const index_t s = src(rng) - 1;
    const index_t d = dst(rng) - 1;
    const std::size_t base = part.below(m) * words;
    src_bits[base + s / 64] |= std::uint64_t{1} << (s % 64);
    any_bits[base + s / 64] |= std::uint64_t{1} << (s % 64);
    any_bits[base + d / 64] |= std::uint64_t{1} << (d % 64);
  }
  for (rank_t r = 0; r < m; ++r) {
    in.in_sets.push_back(set_from_bits(&src_bits[r * words], words));
    in.out_sets.push_back(set_from_bits(&any_bits[r * words], words));
    in.keys += in.in_sets.back().size() + in.out_sets.back().size();
  }
}

Values make_values(const std::vector<KeySet>& out_sets, std::uint64_t seed,
                   std::uint32_t stride) {
  Values values(out_sets.size());
  for (std::size_t r = 0; r < out_sets.size(); ++r) {
    values[r].resize(out_sets[r].size() * stride);
    for (std::size_t p = 0; p < out_sets[r].size(); ++p) {
      for (std::uint32_t j = 0; j < stride; ++j) {
        values[r][p * stride + j] =
            input_value(p, seed) + static_cast<real_t>(j);
      }
    }
  }
  return values;
}

/// K payload lanes reduced as one value, so ReferenceReduce checks a
/// strided reduce in one pass.
template <std::size_t K>
struct Lanes {
  std::array<real_t, K> c{};
  Lanes& operator+=(const Lanes& o) {
    for (std::size_t i = 0; i < K; ++i) c[i] += o.c[i];
    return *this;
  }
};

template <typename T>
Values oracle_as(const std::vector<KeySet>& in_sets,
                 const std::vector<KeySet>& out_sets, const Values& values) {
  constexpr std::size_t kLanes = sizeof(T) / sizeof(real_t);
  std::vector<SparseVector<T>> contributions(out_sets.size());
  for (std::size_t r = 0; r < out_sets.size(); ++r) {
    KYLIX_CHECK(values[r].size() == out_sets[r].size() * kLanes);
    contributions[r].keys = out_sets[r];
    contributions[r].values.resize(out_sets[r].size());
    std::memcpy(static_cast<void*>(contributions[r].values.data()),
                values[r].data(),
                values[r].size() * sizeof(real_t));
  }
  const ReferenceReduce<T> reference(contributions);
  Values expected(in_sets.size());
  for (std::size_t r = 0; r < in_sets.size(); ++r) {
    const std::vector<T> got = reference.lookup(in_sets[r]);
    expected[r].resize(got.size() * kLanes);
    std::memcpy(expected[r].data(), static_cast<const void*>(got.data()),
                expected[r].size() * sizeof(real_t));
  }
  return expected;
}

/// ReferenceReduce's answer for every rank's requested set.
Values oracle(const std::vector<KeySet>& in_sets,
              const std::vector<KeySet>& out_sets, const Values& values,
              std::uint32_t stride) {
  if (stride == 1) return oracle_as<real_t>(in_sets, out_sets, values);
  KYLIX_CHECK_MSG(stride == 8, "the oracle supports strides 1 and 8");
  return oracle_as<Lanes<8>>(in_sets, out_sets, values);
}

bool same_bits(const Values& got, const Values& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t r = 0; r < got.size(); ++r) {
    if (got[r].size() != want[r].size() ||
        std::memcmp(got[r].data(), want[r].data(),
                    got[r].size() * sizeof(real_t)) != 0) {
      return false;
    }
  }
  return true;
}

void make_minibatch(const Workload& w, std::uint64_t seed, Minibatch& mb) {
  const rank_t m = w.topology().num_machines();
  std::vector<std::vector<index_t>> home(m);
  for (index_t f = 0; f < w.features; ++f) {
    home[hash_index(f) % m].push_back(f);
  }
  std::size_t largest_home = 0;
  for (const auto& h : home) {
    mb.home.push_back(KeySet::from_indices(h));
    largest_home = std::max(largest_home, h.size());
  }
  const ZipfSampler sampler(w.features, w.alpha);
  const Rng base(mix64(seed ^ 0x706f6f6cULL));
  mb.pool.resize(m);
  for (rank_t r = 0; r < m; ++r) {
    Rng rng = base.fork(r);
    mb.pool[r].resize(w.pool);
    for (auto& batch : mb.pool[r]) {
      batch.resize(w.batch_indices);
      for (index_t& f : batch) f = sampler(rng) - 1;
    }
  }
  mb.tape.resize(largest_home + w.batch_indices);
  for (std::size_t p = 0; p < mb.tape.size(); ++p) {
    mb.tape[p] = input_value(p, seed);
  }
}

/// Everything a run needs before its first set-up. Generator-side buffers
/// (bitmaps, index lists) are released on return, before the memory
/// baseline is read.
Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  const rank_t m = w.topology().num_machines();
  if (w.kind == Kind::kMinibatch) {
    make_minibatch(w, seed, in.mb);
    return in;
  }
  partition_sets(w.graph, m, seed, in);
  in.values = make_values(in.out_sets, seed, w.stride);
  in.expected = oracle(in.in_sets, in.out_sets, in.values, w.stride);
  return in;
}

// ---- one workload's ops ---------------------------------------------------

/// The closed-loop caller of one workload: its set-up and ops against
/// engine E. Ops come in three steps so input copies and oracle checks stay
/// out of the timed part: prepare (untimed staging), run (the timed op),
/// verify (untimed check).
template <typename E>
class Caller {
 public:
  using Allreduce = SparseAllreduce<real_t, OpSum, E>;

  Caller(const Workload& w, const Inputs& in, std::uint64_t seed, E* engine,
          bench::Recorder* rec)
      : w_(w),
        in_(in),
        engine_(engine),
        rec_(rec),
        topo_(w.topology()),
        net_(bench_network()),
        steps_(mix64(seed ^ 0x73746570ULL)) {}

  Caller(const Caller&) = delete;
  Caller& operator=(const Caller&) = delete;

  void set_recorder(bench::Recorder* rec) { rec_ = rec; }

  /// Untimed: the copies the cold set-up consumes.
  void stage_setup() {
    if (w_.kind == Kind::kMinibatch) {
      draw_step(false);
    } else {
      stage_sets();
    }
  }

  /// The cold set-up after the engine exists: construct the allreduce and
  /// configure (minibatch: run the first step). Returns its host time.
  Nanos setup() {
    if (w_.kind == Kind::kMinibatch) return run_step();
    const Nanos t0 = now_ns();
    configure();
    return now_ns() - t0;
  }

  /// Untimed: stage op `i`'s inputs and drop the previous op's outputs.
  void prepare(std::uint64_t i) {
    results_.clear();
    switch (w_.kind) {
      case Kind::kReplay:
      case Kind::kStrided:
        staged_values_ = in_.values;
        break;
      case Kind::kConfigure:
        ar_.reset();
        stage_sets();
        break;
      case Kind::kMinibatch:
        draw_step(verified(i));
        break;
    }
  }

  /// The timed op; returns its host time.
  Nanos run() {
    switch (w_.kind) {
      case Kind::kReplay:
      case Kind::kStrided: {
        const Nanos t0 = now_ns();
        {
          bench::ScopedSpan api(rec_, SpanKind::kApi, &OpLayers::api);
          results_ = w_.stride == 1
                         ? ar_->reduce(std::move(staged_values_))
                         : ar_->reduce_strided(std::move(staged_values_),
                                               w_.stride);
        }
        return now_ns() - t0;
      }
      case Kind::kConfigure: {
        const Nanos t0 = now_ns();
        configure();
        return now_ns() - t0;
      }
      case Kind::kMinibatch:
        return run_step();
    }
    return 0;
  }

  [[nodiscard]] bool verified(std::uint64_t i) const {
    return i % w_.verify_every == 0;
  }

  /// Untimed: the last op's results against the oracle, bit for bit.
  [[nodiscard]] bool verify() {
    switch (w_.kind) {
      case Kind::kReplay:
      case Kind::kStrided:
        return same_bits(results_, in_.expected);
      case Kind::kConfigure:
        return same_bits(ar_->reduce(in_.values), in_.expected);
      case Kind::kMinibatch:
        return same_bits(results_,
                         oracle(check_in_, check_out_, check_values_, 1));
    }
    return false;
  }

  /// Keys in the last op's input sets.
  [[nodiscard]] std::uint64_t keys() const {
    return w_.kind == Kind::kMinibatch ? step_keys_ : in_.keys;
  }

  /// The compiled plan of the last configure (null for minibatch, whose
  /// combined pass freezes none).
  [[nodiscard]] const CollectivePlan* plan() const {
    return ar_ && ar_->plan() ? ar_->plan().get() : nullptr;
  }

  /// The last verified minibatch step's sets (to compile a plan from).
  [[nodiscard]] const std::vector<KeySet>& checked_in() const {
    return check_in_;
  }
  [[nodiscard]] const std::vector<KeySet>& checked_out() const {
    return check_out_;
  }

 private:
  void stage_sets() {
    staged_in_ = in_.in_sets;
    staged_out_ = in_.out_sets;
  }

  void configure() {
    bench::ScopedSpan api(rec_, SpanKind::kApi, &OpLayers::api);
    ar_.emplace(engine_, topo_, &compute_);
    if (w_.streaming) {
      ar_->set_network(&net_);
      ar_->set_streaming(true);
    }
    ar_->configure(std::move(staged_in_), std::move(staged_out_));
  }

  /// Pick this step's in- and out-batch from every rank's pool.
  void draw_step(bool keep_for_check) {
    const rank_t m = topo_.num_machines();
    in_pick_.resize(m);
    out_pick_.resize(m);
    for (rank_t r = 0; r < m; ++r) {
      in_pick_[r] = static_cast<std::uint32_t>(steps_.below(w_.pool));
      out_pick_[r] = static_cast<std::uint32_t>(steps_.below(w_.pool));
    }
    keep_for_check_ = keep_for_check;
  }

  /// One SGD step: build every rank's sets from raw indices, then a fresh
  /// allreduce's combined configure+reduce. Returns the time of those two
  /// segments; staging the contributions between them is generator work.
  Nanos run_step() {
    const rank_t m = topo_.num_machines();
    const Minibatch& mb = in_.mb;
    std::vector<KeySet> in_sets(m);
    std::vector<KeySet> out_sets(m);
    const Nanos t0 = now_ns();
    {
      bench::ScopedSpan sets(rec_, SpanKind::kBuildSets,
                             &OpLayers::build_sets);
      for (rank_t r = 0; r < m; ++r) {
        in_sets[r] = with_home(mb.pool[r][in_pick_[r]], mb.home[r]);
        out_sets[r] = with_home(mb.pool[r][out_pick_[r]], mb.home[r]);
      }
    }
    const Nanos t1 = now_ns();
    Values values(m);
    step_keys_ = 0;
    for (rank_t r = 0; r < m; ++r) {
      values[r].assign(mb.tape.begin(),
                       mb.tape.begin() + static_cast<std::ptrdiff_t>(
                                             out_sets[r].size()));
      step_keys_ += in_sets[r].size() + out_sets[r].size();
    }
    if (keep_for_check_) {
      check_in_ = in_sets;
      check_out_ = out_sets;
      check_values_ = values;
    }
    const Nanos t2 = now_ns();
    {
      bench::ScopedSpan api(rec_, SpanKind::kApi, &OpLayers::api);
      Allreduce allreduce(engine_, topo_, &compute_);
      results_ = allreduce.reduce_with_config(
          std::move(in_sets), std::move(out_sets), std::move(values));
    }
    return (t1 - t0) + (now_ns() - t2);
  }

  static KeySet with_home(const std::vector<index_t>& batch,
                          const KeySet& home) {
    const KeySet drawn = KeySet::from_indices(batch);
    UnionResult u = merge_union(drawn.keys(), home.keys());
    return KeySet::from_sorted_keys(std::move(u.keys));
  }

  const Workload& w_;
  const Inputs& in_;
  E* engine_;
  bench::Recorder* rec_;
  Topology topo_;
  NetworkModel net_;
  ComputeModel compute_;
  Rng steps_;
  std::optional<Allreduce> ar_;
  std::vector<KeySet> staged_in_;
  std::vector<KeySet> staged_out_;
  Values staged_values_;
  Values results_;
  std::vector<std::uint32_t> in_pick_;
  std::vector<std::uint32_t> out_pick_;
  bool keep_for_check_ = false;
  std::vector<KeySet> check_in_;
  std::vector<KeySet> check_out_;
  Values check_values_;
  std::uint64_t step_keys_ = 0;
};

// ---- measurement ----------------------------------------------------------

/// Machine-drift probe: 256 Ki random reads from a 64 MB table plus a sort
/// of 256 Ki keys. Reported beside the metrics (env.host_probe_ms) so a
/// slow host reads as a slow probe, not as a regression.
class HostProbe {
 public:
  HostProbe() : table_((std::size_t{64} << 20) / sizeof(float)) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = static_cast<float>(i & 1023);
    }
    keys_.resize(std::size_t{256} << 10);
  }

  double run_ms() {
    for (std::uint64_t& k : keys_) k = rng_();
    std::uint64_t x = rng_();
    const Nanos t0 = now_ns();
    float sum = 0;
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      sum += table_[(x >> 24) % table_.size()];
    }
    std::sort(keys_.begin(), keys_.end());
    const Nanos t1 = now_ns();
    sink_ = sum + static_cast<float>(keys_.front() & 1);
    return ms(t1 - t0);
  }

 private:
  std::vector<float> table_;
  std::vector<std::uint64_t> keys_;
  Rng rng_{0x70726f6265ULL};
  volatile float sink_ = 0;  ///< keeps the probe's work observable
};

/// Closed-loop budget: keep issuing ops until `seconds` of loop time have
/// passed and at least `min_ops` ran.
class Budget {
 public:
  Budget(double seconds, std::uint64_t min_ops)
      : start_(now_ns()), seconds_(seconds), min_ops_(min_ops) {}
  [[nodiscard]] bool more(std::uint64_t done) const {
    return done < min_ops_ || ms(now_ns() - start_) * 1e-3 < seconds_;
  }

 private:
  Nanos start_;
  double seconds_;
  std::uint64_t min_ops_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;
  std::vector<double> probes_ms;
};

struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::uint64_t min_ops = kMinOps;
  unsigned threads = 1;
  std::string trace_out;
};

/// Run op `i` of a pass: stage, time, verify when due, probe every
/// kProbeEvery ops. Returns the op's host time.
template <typename E>
Nanos one_op(Caller<E>& s, std::uint64_t i, RunResult& out,
             HostProbe& probe) {
  s.prepare(i);
  const Nanos t = s.run();
  ++out.attempted;
  if (s.verified(i)) {
    ++out.verified;
    if (!s.verify()) ++out.failed;
  }
  if ((i + 1) % kProbeEvery == 0) out.probes_ms.push_back(probe.run_ms());
  return t;
}

/// The end-to-end pass: cold set-ups, then the timed closed loop on a bare
/// engine, then a separate traced engine counts wire bytes and messages.
RunResult end_to_end(const RunConfig& cfg, const Inputs& in,
                     HostProbe& probe) {
  const Workload& w = *cfg.workload;
  const rank_t m = w.topology().num_machines();
  RunResult out;
  const double baseline_mb = rss_mb();

  std::unique_ptr<Engine> engine;
  std::unique_ptr<Caller<Engine>> caller;
  std::vector<double> setups;
  for (int k = 0; k < kColdSetups; ++k) {
    caller.reset();
    engine.reset();
    const Nanos t0 = now_ns();
    engine = std::make_unique<Engine>(m, cfg.threads);
    const Nanos t1 = now_ns();
    caller = std::make_unique<Caller<Engine>>(w, in, cfg.seed,
                                                engine.get(), nullptr);
    caller->stage_setup();
    setups.push_back(ms(t1 - t0 + caller->setup()) * 1e-3);
  }

  std::uint64_t i = 0;
  for (; i < w.warmups; ++i) (void)one_op(*caller, i, out, probe);
  std::vector<double> op_ms;
  const Budget budget(cfg.seconds, cfg.min_ops);
  while (budget.more(op_ms.size())) {
    op_ms.push_back(ms(one_op(*caller, i++, out, probe)));
  }
  const double mem_mb = rss_mb() - baseline_mb;
  caller.reset();
  engine.reset();

  // Wire volume from the library's own message trace, on an engine the
  // timed loop never saw. Self-letters never touch the wire.
  Trace trace;
  Engine counter(m, cfg.threads, nullptr, &trace);
  Caller<Engine> counted(w, in, cfg.seed, &counter, nullptr);
  counted.stage_setup();
  (void)counted.setup();
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  for (std::uint32_t k = 0; k < w.wire_ops; ++k) {
    counted.prepare(k + 1);
    trace.clear();
    (void)counted.run();
    for (const MsgEvent& e : trace.events()) {
      if (e.src == e.dst) continue;
      bytes += e.bytes;
      ++messages;
    }
  }

  double total_s = 0;
  for (const double t : op_ms) total_s += t * 1e-3;
  const auto per_op = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(w.wire_ops);
  };
  out.metrics = {
      {"setup_s", median(setups), "s"},
      {"op_p50_ms", median(op_ms), "ms"},
      {"ops_per_s", static_cast<double>(op_ms.size()) / total_s, "1/s"},
      {"wire_bytes_per_op", per_op(bytes), "bytes"},
      {"messages_per_op", per_op(messages), "count"},
      {"mem_mb", mem_mb, "MB"},
  };
  std::printf("diag.op_p90_ms %.4f (%zu timed ops; op_p50_ms over the same)\n",
              quantile(op_ms, 0.9), op_ms.size());
  std::printf("diag.setup_s");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  return out;
}

/// Per-op records of the traced pass.
struct TracedOp {
  OpLayers layers;
  std::array<std::uint64_t, bench::kMaxLayers> layer_bytes{};
  TimingAccumulator::PhaseTimes modeled;
  std::uint64_t keys = 0;
};

/// One scatter_combine_strided + gather_strided_into pass over every map of
/// `plan`, with no engine: the value-kernel floor under one replay.
double kernel_floor_ms(const CollectivePlan& plan, std::uint32_t stride) {
  std::size_t acc_len = 0;
  std::size_t piece_len = 0;
  for (rank_t r = 0; r < plan.num_ranks(); ++r) {
    const RankPlan& rp = plan.rank_plan(r);
    for (const std::size_t s : rp.in_sizes) acc_len = std::max(acc_len, s);
    for (const std::size_t s : rp.out_sizes) acc_len = std::max(acc_len, s);
    for (const PlanLayer& layer : rp.layers) {
      for (const PosMap& map : layer.out_maps) {
        piece_len = std::max(piece_len, map.size());
      }
      for (const PosMap& map : layer.in_maps) {
        piece_len = std::max(piece_len, map.size());
      }
    }
    piece_len = std::max(piece_len, rp.out0_size);
  }
  for (const IntraHost& ih : plan.intra_hosts()) {
    acc_len = std::max(acc_len, ih.out_union_size);
  }
  std::vector<real_t> acc(acc_len * stride, 0.0f);
  const std::vector<real_t> piece(piece_len * stride, 1.0f);
  std::vector<real_t> gathered;
  gathered.reserve(std::max(acc_len, piece_len) * stride);
  const std::span<real_t> acc_span(acc);
  const std::span<const real_t> src(acc);
  const auto pass = [&] {
    for (rank_t r = 0; r < plan.num_ranks(); ++r) {
      const RankPlan& rp = plan.rank_plan(r);
      for (const PlanLayer& layer : rp.layers) {
        for (const PosMap& map : layer.out_maps) {
          scatter_combine_strided<real_t, OpSum>(
              acc_span,
              std::span<const real_t>(piece).first(map.size() * stride), map,
              stride);
        }
        for (const PosMap& map : layer.in_maps) {
          gather_strided_into(src, map, stride, gathered);
        }
      }
      if (!rp.bottom_map.empty() && rp.missing_bottom.empty()) {
        gather_strided_into(src, rp.bottom_map, stride, gathered);
      }
    }
    for (const IntraHost& ih : plan.intra_hosts()) {
      for (std::size_t k = 0; k < ih.members.size(); ++k) {
        const PosMap& out_map = ih.out_maps[k];
        scatter_combine_strided<real_t, OpSum>(
            acc_span,
            std::span<const real_t>(piece).first(out_map.size() * stride),
            out_map, stride);
        gather_strided_into(src, ih.in_maps[k], stride, gathered);
      }
    }
  };
  pass();
  std::vector<double> passes;
  for (int k = 0; k < 5; ++k) {
    const Nanos t0 = now_ns();
    pass();
    passes.push_back(ms(now_ns() - t0));
  }
  return median(passes);
}

template <typename Fn>
double median_of(const std::vector<TracedOp>& ops, Fn&& field) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const TracedOp& op : ops) v.push_back(field(op));
  return median(v);
}

/// The traced pass: one allreduce behind a TimedEngine whose inner engine
/// alternates between a traced one (Trace + TimingAccumulator attached,
/// recorder on) and a bare one, op by op, so trace.overhead_frac compares
/// neighbours in time on the same plan.
RunResult traced(const RunConfig& cfg, const Inputs& in, HostProbe& probe) {
  const Workload& w = *cfg.workload;
  const rank_t m = w.topology().num_machines();
  RunResult out;
  bench::Recorder rec(kSpanCapacity, kDetailedOps);
  Trace trace;
  TimingAccumulator timing(m, bench_network(), ComputeModel{});
  Engine traced_inner(m, cfg.threads, nullptr, &trace, &timing);
  Engine bare_inner(m, cfg.threads);
  Timed engine(&traced_inner, &rec);
  Caller<Timed> caller(w, in, cfg.seed, &engine, &rec);
  caller.stage_setup();
  (void)caller.setup();

  const auto use = [&](bool on) {
    engine.attach(on ? &traced_inner : &bare_inner, on ? &rec : nullptr);
    caller.set_recorder(on ? &rec : nullptr);
  };
  std::uint64_t i = 0;
  for (; i < std::max<std::uint32_t>(w.warmups, 2); ++i) {
    use(i % 2 == 0);
    (void)one_op(caller, i, out, probe);
  }
  std::vector<TracedOp> ops;
  std::vector<double> traced_ms;
  std::vector<double> bare_ms;
  const Budget budget(cfg.seconds, 2 * cfg.min_ops);
  for (std::uint64_t done = 0; budget.more(done); ++done, ++i) {
    const bool on = done % 2 == 0;
    use(on);
    if (!on) {
      bare_ms.push_back(ms(one_op(caller, i, out, probe)));
      continue;
    }
    caller.prepare(i);
    trace.clear();
    timing.clear();
    rec.begin_op();
    const Nanos a = now_ns();
    const Nanos t = caller.run();
    rec.span(SpanKind::kOp, a, now_ns());
    TracedOp op;
    op.layers = rec.end_op(t);
    for (const MsgEvent& e : trace.events()) {
      if (e.src != e.dst && e.layer >= 1 && e.layer <= bench::kMaxLayers) {
        op.layer_bytes[e.layer - 1] += e.bytes;
      }
    }
    op.modeled = timing.times();
    op.keys = caller.keys();
    ops.push_back(op);
    traced_ms.push_back(ms(t));
    use(false);  // the oracle check's own reduce stays out of the trace
    ++out.attempted;
    if (caller.verified(i)) {
      ++out.verified;
      if (!caller.verify()) ++out.failed;
    }
    if ((i + 1) % kProbeEvery == 0) out.probes_ms.push_back(probe.run_ms());
  }
  use(false);

  // Minibatch freezes no plan; compile one from a verified step's sets (on
  // the bare engine, outside every op) for the kernel floor.
  double floor_ms = 0;
  if (const CollectivePlan* plan = caller.plan()) {
    floor_ms = kernel_floor_ms(*plan, w.stride);
  } else {
    SparseAllreduce<real_t, OpSum, Engine> compiler(&bare_inner,
                                                    w.topology());
    const auto compiled =
        compiler.compile(caller.checked_in(), caller.checked_out());
    floor_ms = kernel_floor_ms(*compiled, w.stride);
  }

  using L = const TracedOp&;
  std::vector<Metric>& mt = out.metrics;
  const auto add = [&](std::string name, const char* unit, auto&& field) {
    mt.push_back({std::move(name), median_of(ops, field), unit});
  };
  const auto add_ms = [&](std::string name, Nanos OpLayers::*sum) {
    add(std::move(name), "ms", [sum](L op) { return ms(op.layers.*sum); });
  };
  add_ms("sparse.build_sets_ms", &OpLayers::build_sets);
  mt.push_back({"sparse.kernel_floor_ms", floor_ms, "ms"});
  add("sparse.keys_per_op", "count", [](L op) { return double(op.keys); });
  add("core.api_ms", "ms", [](L op) {
    return ms(op.layers.api - op.layers.rounds - op.layers.intra);
  });
  add_ms("core.produce_wall_ms", &OpLayers::produce_wall);
  add_ms("core.consume_wall_ms", &OpLayers::consume_wall);
  add_ms("core.produce_cpu_ms", &OpLayers::produce_busy);
  add_ms("core.consume_cpu_ms", &OpLayers::consume_busy);
  add("comm.deliver_ms", "ms", [](L op) {
    const OpLayers& l = op.layers;
    return ms(l.rounds - l.produce_wall - l.consume_wall);
  });
  add_ms("comm.intra_ms", &OpLayers::intra);
  add("comm.rounds_per_op", "count",
      [](L op) { return double(op.layers.num_rounds); });
  add("comm.letters_per_op", "count",
      [](L op) { return double(op.layers.letters); });
  add("comm.parallelism", "ratio", [](L op) {
    const OpLayers& l = op.layers;
    const Nanos wall = l.produce_wall + l.consume_wall;
    return wall > 0 ? double(l.produce_busy + l.consume_busy) / double(wall)
                    : 0.0;
  });
  add("cluster.modeled_config_ms", "ms",
      [](L op) { return op.modeled.config * 1e3; });
  add("cluster.modeled_down_ms", "ms",
      [](L op) { return op.modeled.reduce_down * 1e3; });
  add("cluster.modeled_up_ms", "ms",
      [](L op) { return op.modeled.reduce_up * 1e3; });
  add("cluster.modeled_intra_ms", "ms",
      [](L op) { return op.modeled.intra() * 1e3; });
  const char* const phases[3] = {"config", "down", "up"};
  for (std::size_t p = 0; p < 3; ++p) {
    add(std::string("phase.") + phases[p] + "_ms", "ms",
        [p](L op) { return ms(op.layers.phase[p]); });
  }
  for (std::size_t l = 0; l < bench::kMaxLayers; ++l) {
    const std::string layer = "bfly.L" + std::to_string(l + 1);
    add(layer + ".host_ms", "ms", [l](L op) { return ms(op.layers.layer[l]); });
    add(layer + ".wire_bytes", "bytes",
        [l](L op) { return double(op.layer_bytes[l]); });
  }
  add("trace.residual_frac", "fraction", [](L op) {
    const OpLayers& l = op.layers;
    const double unattributed = double(l.op - l.api - l.build_sets);
    return l.op > 0 ? std::abs(unattributed) / double(l.op) : 0.0;
  });
  mt.push_back({"trace.overhead_frac",
                median(traced_ms) / median(bare_ms) - 1.0, "fraction"});

  std::printf("diag.traced_ops %zu bare_ops %zu spans_dropped %zu\n",
              ops.size(), bare_ms.size(), rec.dropped());
  if (!cfg.trace_out.empty()) {
    std::ofstream file(cfg.trace_out);
    rec.write_chrome_trace(file);
    if (!file.good()) {
      std::fprintf(stderr, "error: could not write %s\n",
                   cfg.trace_out.c_str());
      ++out.failed;
    }
  }
  return out;
}

// ---- output ---------------------------------------------------------------

void print_env(const RunConfig& cfg, const RunResult& r) {
  std::ostringstream os;
  obs::JsonWriter json(os);
  json.begin_object();
  json.key("env");
  json.begin_object();
  json.key_value("workload", cfg.workload->name);
  json.key_value("seed", static_cast<std::uint64_t>(cfg.seed));
  json.key_value("nproc", std::thread::hardware_concurrency());
  json.key_value("affinity_cpus", affinity_cpus());
  json.key_value("engine_threads", cfg.threads);
  json.key_value("build_type", KYLIX_BENCH_BUILD_TYPE);
  json.key_value("compiler", KYLIX_BENCH_COMPILER);
  json.key_value("host_probe_ms", median(r.probes_ms));
  json.key_value("host_probes", static_cast<std::uint64_t>(r.probes_ms.size()));
  json.key_value("verified_ops", r.verified);
  json.end_object();
  json.end_object();
  std::cout << os.str() << '\n';
}

void print_result(const RunResult& r, bool correct) {
  std::ostringstream os;
  obs::JsonWriter json(os);
  json.begin_object();
  json.key_value("correct", correct);
  json.key_value("attempted", r.attempted);
  json.key_value("failed", r.failed);
  json.key("metrics");
  json.begin_object();
  for (const Metric& m : r.metrics) {
    json.key(m.name);
    json.begin_object();
    json.key_value("value", m.value);
    json.key_value("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::cout << os.str() << std::endl;
}

/// One workload, one pass. Returns the result (metrics empty when the
/// library threw).
RunResult run_pass(const RunConfig& cfg, bool trace, HostProbe& probe) {
  RunResult r;
  try {
    const Nanos t0 = now_ns();
    const Inputs in = make_inputs(*cfg.workload, cfg.seed);
    std::printf("diag.inputs_s %.3f\n", ms(now_ns() - t0) * 1e-3);
    r = trace ? traced(cfg, in, probe) : end_to_end(cfg, in, probe);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    ++r.attempted;
    ++r.failed;
    r.metrics.clear();
  }
  return r;
}

double metric(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// Every workload at toy size, both passes: oracle agreement and per-layer
/// parts that sum to the op. (run.py --smoke also checks the emitted names
/// against BENCHMARK.json.)
int smoke(unsigned threads) {
  HostProbe probe;
  int bad = 0;
  for (const Workload& w : workloads(true)) {
    RunConfig cfg;
    cfg.workload = &w;
    cfg.seconds = 0;
    cfg.min_ops = kSmokeOps;
    cfg.threads = threads;
    const RunResult e2e = run_pass(cfg, false, probe);
    const RunResult layers = run_pass(cfg, true, probe);
    const double residual = metric(layers, "trace.residual_frac");
    const bool ok = e2e.failed == 0 && layers.failed == 0 &&
                    e2e.verified > 0 && layers.verified > 0 &&
                    !e2e.metrics.empty() && !layers.metrics.empty() &&
                    residual <= 0.10;
    std::printf("smoke %-22s %s  (verified %llu+%llu, residual %.4f)\n",
                w.name.c_str(), ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(e2e.verified),
                static_cast<unsigned long long>(layers.verified), residual);
    if (!ok) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: kylix_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--smoke]\n"
               "       kylix_bench --smoke\n"
               "workloads:");
  for (const Workload& w : workloads(false)) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool toy = false;
  std::string trace_out;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const bool has_value = a + 1 < argc;
    if (arg == "--smoke") {
      toy = true;
    } else if (arg == "--workload" && has_value) {
      name = argv[++a];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++a], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++a], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++a]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++a];
    } else {
      return usage();
    }
  }
  const unsigned threads = std::clamp(affinity_cpus(), 2u, 4u) - 1;
  if (toy && name.empty()) return smoke(threads);
  if (name.empty() || (trace != 0 && trace != 1) || !(seconds >= 0)) {
    return usage();
  }
  const std::vector<Workload> all = workloads(toy);
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == name;
  });
  if (it == all.end()) return usage();

  RunConfig cfg;
  cfg.workload = &*it;
  cfg.seed = seed;
  cfg.seconds = seconds;
  cfg.min_ops = toy ? kSmokeOps : kMinOps;
  cfg.threads = threads;
  cfg.trace_out = trace_out;
  HostProbe probe;
  const RunResult r = run_pass(cfg, trace == 1, probe);
  const bool correct = r.failed == 0 && !r.metrics.empty() && r.verified > 0;
  print_env(cfg, r);
  print_result(r, correct);
  return correct ? 0 : 1;
}
