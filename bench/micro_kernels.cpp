// Per-kernel throughput regression harness (BENCH_kernels.json).
//
// Measures each vectorized sparse kernel against its scalar/standard-library
// counterpart over a size x skew grid that mirrors real configure/reduce
// traffic:
//   * radix_sort_dedup vs std::sort + std::unique — uniform hashed keys
//     (already-unique sets), duplicate-heavy keys, and raw Zipf(1.1) draws
//     (a minibatch's indices, where the repeat filter does the work);
//   * merge_union_into (union + both maps) vs std::set_union (keys only) —
//     balanced pairs (the branch-free loop) and 8x-skewed pairs (gallop);
//   * tree_merge_into vs hash_union at fan-in 16 and 64 over overlapping
//     Zipf sets — the paper's §VI-A "tree merge ~5x faster than hashing";
//   * prefetched scatter_combine / gather vs their scalar forms — random
//     (cache-hostile) and strictly-increasing (cache-friendly) maps;
//   * fingerprint_key_sets (per-set 8-lane digests) vs the one mix64 chain
//     over every key that it replaced, over 64 ranks' {in, out} sets.
//
// Output rows carry elements/s for kernel and baseline plus the ratio;
// tools/bench_check.sh diffs kernel_eps against the committed JSON with a
// tolerance, which is the perf gate until CI exists. Timing is min-of-trials
// over repeated calls on warm scratch buffers, so the numbers track the
// steady-state (allocation-free) regime the engines run in.
//
// Output: argv[1] or BENCH_kernels.json.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

#include "bench_common.hpp"
#include "core/plan.hpp"
#include "obs/json_writer.hpp"
#include "powerlaw/zipf.hpp"
#include "sparse/kernels/radix_sort.hpp"
#include "sparse/kernels/scatter_gather.hpp"
#include "sparse/merge.hpp"

namespace {

using namespace kylix;
using kylix::key_t;  // <sched.h> drags in POSIX ::key_t, an int

constexpr int kTrials = 5;
constexpr std::size_t kTargetElementsPerTrial = std::size_t{1} << 22;

const std::size_t kSizes[] = {std::size_t{1} << 14, std::size_t{1} << 17,
                              std::size_t{1} << 20};

/// Seconds per call, min over kTrials trials of reps calls each.
template <typename Fn>
double time_per_call(std::size_t elements, Fn&& fn) {
  const std::size_t reps =
      std::max<std::size_t>(1, kTargetElementsPerTrial / (elements + 1));
  double best = 1e30;
  for (int trial = 0; trial < kTrials; ++trial) {
    bench::WallTimer t;
    for (std::size_t r = 0; r < reps; ++r) fn();
    best = std::min(best, t.seconds() / static_cast<double>(reps));
  }
  return best;
}

struct Row {
  const char* kernel;
  const char* baseline;
  std::size_t size;
  const char* skew;
  double kernel_eps = 0;
  double baseline_eps = 0;
};

void emit(obs::JsonWriter& json, const Row& row) {
  json.begin_object();
  json.key_value("kernel", row.kernel);
  json.key_value("baseline", row.baseline);
  json.key_value("size", static_cast<std::uint64_t>(row.size));
  json.key_value("skew", row.skew);
  json.key_value("kernel_eps", row.kernel_eps);
  json.key_value("baseline_eps", row.baseline_eps);
  json.key_value("speedup", row.baseline_eps > 0
                                ? row.kernel_eps / row.baseline_eps
                                : 0.0);
  json.end_object();
  std::printf("%-14s %8zu %-9s  kernel %.3g el/s  baseline %.3g el/s  "
              "(%.2fx)\n",
              row.kernel, row.size, row.skew, row.kernel_eps,
              row.baseline_eps,
              row.baseline_eps > 0 ? row.kernel_eps / row.baseline_eps : 0.0);
}

/// Raw feature draws of a minibatch: Zipf(alpha = 1.1) over 2^20 features.
const ZipfSampler& feature_zipf() {
  static const ZipfSampler zipf(std::uint64_t{1} << 20, 1.1);
  return zipf;
}

enum class SortSkew : std::uint64_t { kUniform, kDupHeavy, kZipf };
constexpr const char* kSortSkewNames[] = {"uniform", "dup-heavy", "zipf"};

std::vector<key_t> make_keys(std::size_t n, SortSkew skew,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<key_t> keys(n);
  switch (skew) {
    case SortSkew::kUniform:
      for (auto& k : keys) k = rng();
      break;
    case SortSkew::kDupHeavy:
      for (auto& k : keys) k = hash_index(rng.below(n / 16 + 1));
      break;
    case SortSkew::kZipf:
      for (auto& k : keys) k = hash_index(feature_zipf()(rng) - 1);
      break;
  }
  return keys;
}

/// Sorted sets of exactly `na` and `nb` hashed keys: each fresh index goes
/// to a, to b or to both at random until both are full, so a union walk
/// mixes a-only, b-only and shared steps in random order.
void make_pair(Rng& rng, std::size_t na, std::size_t nb, std::vector<key_t>& a,
               std::vector<key_t>& b) {
  for (index_t i = 0; a.size() < na || b.size() < nb; ++i) {
    const std::uint64_t pick = rng.below(3);  // 0: a, 1: b, 2: both
    if (pick != 1 && a.size() < na) a.push_back(hash_index(i));
    if (pick != 0 && b.size() < nb) b.push_back(hash_index(i));
  }
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
}

/// A sorted set of exactly `n` distinct hashed feature draws.
std::vector<key_t> zipf_set(Rng& rng, std::size_t n) {
  std::vector<key_t> keys;
  while (keys.size() < n) {
    for (std::size_t i = keys.size(); i < n; ++i) {
      keys.push_back(hash_index(feature_zipf()(rng) - 1));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  return keys;
}

void bench_sort(obs::JsonWriter& json) {
  for (const std::size_t n : kSizes) {
    for (const SortSkew skew :
         {SortSkew::kUniform, SortSkew::kDupHeavy, SortSkew::kZipf}) {
      const auto kind = static_cast<std::uint64_t>(skew);
      const auto data = make_keys(n, skew, n * 3 + kind);
      Row row{"radix_sort", "std_sort_unique", n, kSortSkewNames[kind]};

      std::vector<key_t> work(n);
      std::vector<key_t> scratch(n);
      const double radix_s = time_per_call(n, [&] {
        work.assign(data.begin(), data.end());
        kernels::radix_sort_dedup(work, scratch);
      });
      const double std_s = time_per_call(n, [&] {
        work.assign(data.begin(), data.end());
        std::sort(work.begin(), work.end());
        work.erase(std::unique(work.begin(), work.end()), work.end());
      });
      // Both loops pay the same refill copy; report elements/s of the whole
      // call so the ratio is conservative for the radix side.
      row.kernel_eps = static_cast<double>(n) / radix_s;
      row.baseline_eps = static_cast<double>(n) / std_s;
      emit(json, row);
    }
  }
}

void bench_pairwise(obs::JsonWriter& json) {
  for (const std::size_t total : kSizes) {
    for (const bool skewed : {false, true}) {
      // Balanced: two halves (the branch-free loop). Skewed: 8:1, at
      // gallop_ratio (the galloping path).
      Rng rng(total * 5 + (skewed ? 1 : 0));
      const std::size_t nb = skewed ? total / 9 : total / 2;
      std::vector<key_t> a;
      std::vector<key_t> b;
      make_pair(rng, skewed ? 8 * nb : nb, nb, a, b);
      const auto elements = static_cast<double>(a.size() + b.size());
      Row row{"merge_union", "std_set_union", total,
              skewed ? "skew8" : "balanced"};

      std::vector<key_t> keys;
      PosMap map_a, map_b;
      merge_union_into(a, b, keys, map_a, map_b);  // warm
      row.kernel_eps = elements / time_per_call(total, [&] {
        merge_union_into(a, b, keys, map_a, map_b);
      });

      std::vector<key_t> out(a.size() + b.size());
      row.baseline_eps = elements / time_per_call(total, [&] {
        std::set_union(a.begin(), a.end(), b.begin(), b.end(), out.begin());
      });
      emit(json, row);
    }
  }
}

void bench_tree_vs_hash(obs::JsonWriter& json) {
  for (const std::size_t total : kSizes) {
    for (const std::size_t ways : {std::size_t{16}, std::size_t{64}}) {
      // Overlapping sets with a shared hot head, as one node's configure
      // union sees them.
      Rng rng(total * 11 + ways);
      std::vector<std::vector<key_t>> inputs;
      for (std::size_t i = 0; i < ways; ++i) {
        inputs.push_back(zipf_set(rng, total / ways));
      }
      std::vector<std::span<const key_t>> spans(inputs.begin(), inputs.end());
      Row row{"tree_merge", "hash_union", total,
              ways == 16 ? "fanin16" : "fanin64"};

      UnionResult out;
      MergeScratch scratch;
      tree_merge_into(spans, out, scratch);  // warm
      row.kernel_eps =
          static_cast<double>(total) / time_per_call(total, [&] {
            tree_merge_into(spans, out, scratch);
          });
      row.baseline_eps =
          static_cast<double>(total) / time_per_call(total, [&] {
            out = hash_union(spans);
          });
      emit(json, row);
    }
  }
}

void bench_scatter_gather(obs::JsonWriter& json) {
  for (const std::size_t n : kSizes) {
    for (const bool random_map : {true, false}) {
      Rng rng(n * 13 + (random_map ? 1 : 0));
      std::vector<real_t> values(n);
      std::vector<real_t> acc(n + 4);
      PosMap map(n);
      if (random_map) {
        for (std::size_t p = 0; p < n; ++p) {
          map[p] = static_cast<pos_t>(rng.below(acc.size()));
        }
      } else {
        for (std::size_t p = 0; p < n; ++p) map[p] = static_cast<pos_t>(p);
      }
      for (auto& v : values) v = static_cast<real_t>(rng.uniform());
      const char* skew = random_map ? "random-map" : "sequential-map";

      Row srow{"scatter_combine", "scatter_scalar", n, skew};
      srow.kernel_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::scatter_combine<real_t, OpSum>(std::span<real_t>(acc),
                                                values, map, {});
      });
      srow.baseline_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::scatter_combine_scalar<real_t, OpSum>(std::span<real_t>(acc),
                                                       values, map, {});
      });
      emit(json, srow);

      Row grow{"gather", "gather_scalar", n, skew};
      std::vector<real_t> out(n);
      grow.kernel_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::gather<real_t>(std::span<const real_t>(acc), map,
                                out.data());
      });
      grow.baseline_eps = static_cast<double>(n) / time_per_call(n, [&] {
        kernels::gather_scalar<real_t>(std::span<const real_t>(acc), map,
                                       out.data());
      });
      emit(json, grow);
    }
  }
}

/// The fingerprint fingerprint_key_sets replaced: one mix64 chain over
/// every rank's lengths and keys, so each key waits on the one before it.
/// Kept only as this bench's baseline.
std::uint64_t chained_fingerprint(std::span<const KeySet> in_sets,
                                  std::span<const KeySet> out_sets) {
  std::uint64_t h = mix64(0x6b796c6978ULL ^ (in_sets.size() << 1) ^
                          out_sets.size());
  for (const KeySet& set : in_sets) {
    h = mix64(h ^ set.size());
    for (const key_t key : set) h = mix64(h ^ key);
  }
  h = mix64(h ^ 0x9e3779b97f4a7c15ULL);
  for (const KeySet& set : out_sets) {
    h = mix64(h ^ set.size());
    for (const key_t key : set) h = mix64(h ^ key);
  }
  return h == 0 ? 1 : h;
}

void bench_fingerprint(obs::JsonWriter& json) {
  constexpr std::size_t kRanks = 64;
  for (const std::size_t total : kSizes) {
    // `total` hashed keys over 64 ranks' in and out sets, as compile() and
    // configure_cached() hash them before every lookup.
    Rng rng(total * 17);
    std::vector<KeySet> in_sets;
    std::vector<KeySet> out_sets;
    for (auto* sets : {&in_sets, &out_sets}) {
      for (std::size_t r = 0; r < kRanks; ++r) {
        std::vector<key_t> keys(total / (2 * kRanks));
        for (auto& k : keys) k = rng();
        sets->push_back(KeySet::from_keys(std::move(keys)));
      }
    }
    Row row{"fingerprint", "mix64_chain", total, "64-ranks"};
    // Both digests are pure functions of unchanged sets: the empty asm's
    // memory clobber keeps the compiler from hoisting one call out of the
    // repetitions, and folding every result into the printed `sink` keeps
    // it from dropping them.
    std::uint64_t sink = 0;
    row.kernel_eps = static_cast<double>(total) / time_per_call(total, [&] {
      asm volatile("" ::: "memory");
      sink ^= fingerprint_key_sets(in_sets, out_sets);
    });
    row.baseline_eps = static_cast<double>(total) / time_per_call(total, [&] {
      asm volatile("" ::: "memory");
      sink ^= chained_fingerprint(in_sets, out_sets);
    });
    emit(json, row);
    std::printf("  (fingerprint sink %016llx)\n",
                static_cast<unsigned long long>(sink));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  unsigned affinity = 0;
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    affinity = static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif

  std::ofstream out(out_path);
  obs::JsonWriter json(out);
  json.begin_object();
  json.key_value("benchmark", std::string("micro_kernels"));
  json.key_value("hardware_concurrency",
                 static_cast<int>(std::thread::hardware_concurrency()));
  json.key_value("affinity_cpus", static_cast<int>(affinity));
  json.key_value("trials", kTrials);
  json.key("tuning");
  json.begin_object();
  json.key_value("radix_min_keys",
                 static_cast<std::uint64_t>(kernels::kRadixMinKeys));
  json.key_value("gallop_ratio", static_cast<std::uint64_t>(kGallopRatio));
  json.key_value("prefetch_ahead",
                 static_cast<std::uint64_t>(kernels::kPrefetchAhead));
  json.key_value("repeat_probe_keys",
                 static_cast<std::uint64_t>(kernels::kRepeatProbeKeys));
  json.end_object();
  json.key("kernels");
  json.begin_array();
  bench_sort(json);
  bench_pairwise(json);
  bench_tree_vs_hash(json);
  bench_scatter_gather(json);
  bench_fingerprint(json);
  json.end_array();
  json.end_object();
  out << '\n';
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error: could not write %s\n", out_path);
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}
