// Shared helpers for the Kylix test suite: random sparse workload
// generation with the ∪in ⊆ ∪out invariant, brute-force oracles, and
// check-message assertions.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sparse/key_set.hpp"
#include "sparse/ops.hpp"

namespace kylix::testing {

/// A complete random sparse-allreduce instance over m machines.
template <typename V>
struct Workload {
  std::vector<KeySet> in_sets;
  std::vector<KeySet> out_sets;
  std::vector<std::vector<V>> out_values;  ///< aligned with out_sets
};

/// Machines contribute random subsets of [0, n); every machine requests a
/// random subset of the union of contributions (so ∪in ⊆ ∪out holds by
/// construction). Values are small integers stored exactly in float, so
/// sums are exact and comparisons can be ==.
template <typename V>
Workload<V> random_workload(rank_t machines, std::uint64_t num_features,
                            double out_prob, double in_prob,
                            std::uint64_t seed) {
  Rng rng(seed);
  Workload<V> w;
  std::set<index_t> contributed;
  for (rank_t r = 0; r < machines; ++r) {
    std::vector<index_t> out;
    for (index_t f = 0; f < num_features; ++f) {
      if (rng.uniform() < out_prob) {
        out.push_back(f);
        contributed.insert(f);
      }
    }
    // Guarantee non-empty contributions so every machine participates.
    if (out.empty()) {
      out.push_back(rng.below(num_features));
      contributed.insert(out.back());
    }
    w.out_sets.push_back(KeySet::from_indices(out));
    std::vector<V> values;
    for (std::size_t p = 0; p < w.out_sets.back().size(); ++p) {
      values.push_back(static_cast<V>(rng.below(100)));
    }
    w.out_values.push_back(std::move(values));
  }
  const std::vector<index_t> pool(contributed.begin(), contributed.end());
  for (rank_t r = 0; r < machines; ++r) {
    std::vector<index_t> in;
    for (index_t f : pool) {
      if (rng.uniform() < in_prob) in.push_back(f);
    }
    if (in.empty()) in.push_back(pool[rng.below(pool.size())]);
    w.in_sets.push_back(KeySet::from_indices(in));
  }
  return w;
}

/// Brute-force oracle: per-index totals via a std::map.
template <typename V, typename Op = OpSum>
std::map<key_t, V> brute_force_totals(const Workload<V>& w, Op op = {}) {
  std::map<key_t, V> totals;
  for (std::size_t r = 0; r < w.out_sets.size(); ++r) {
    for (std::size_t p = 0; p < w.out_sets[r].size(); ++p) {
      const key_t k = w.out_sets[r][p];
      auto [it, inserted] =
          totals.emplace(k, Op::template identity<V>());
      op(it->second, w.out_values[r][p]);
    }
  }
  return totals;
}

/// Assert that `results` (aligned with w.in_sets, key order) equals the
/// brute-force reduction exactly.
template <typename V, typename Op = OpSum>
void expect_matches_oracle(const Workload<V>& w,
                           const std::vector<std::vector<V>>& results) {
  const auto totals = brute_force_totals<V, Op>(w);
  ASSERT_EQ(results.size(), w.in_sets.size());
  for (std::size_t r = 0; r < w.in_sets.size(); ++r) {
    ASSERT_EQ(results[r].size(), w.in_sets[r].size()) << "machine " << r;
    for (std::size_t p = 0; p < w.in_sets[r].size(); ++p) {
      const key_t k = w.in_sets[r][p];
      ASSERT_TRUE(totals.contains(k));
      EXPECT_EQ(results[r][p], totals.at(k))
          << "machine " << r << " position " << p << " index "
          << unhash_index(k);
    }
  }
}

/// Runs `fn` and expects a check_error whose message contains `needle`.
template <typename Fn>
void expect_check_message(Fn&& fn, const std::string& needle) {
  try {
    fn();
  } catch (const check_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    return;
  }
  ADD_FAILURE() << "expected a check_error mentioning \"" << needle << "\"";
}

}  // namespace kylix::testing
