// Tree allreduce (§II-A.1, Fig. 1a) — implemented so its pathology is
// measurable, exactly as the paper describes it: "intermediate reductions
// grow in size … the middle (full reduction) node will have complete (fully
// dense) data which will often be intractably large."
//
// Upward pass: a binary aggregation tree over ranks; at level t every node
// whose low t bits are zero absorbs the (in set, out set, values) of the
// node 2^(t-1) above it. The root ends with the complete union. Downward
// pass: each parent answers its child's requested in-set from its own
// accumulated out-values.
//
// Phases map onto the trace as kReduceDown for aggregation and kReduceUp for
// distribution, with layer = tree level, so TimingAccumulator and Fig.-style
// volume charts work unchanged.
#pragma once

#include <cmath>
#include <vector>

#include "comm/parallel.hpp"
#include "core/topology.hpp"
#include "sparse/merge.hpp"
#include "sparse/ops.hpp"

namespace kylix {

template <typename V, typename Op = OpSum,
          typename Engine = ParallelBspEngine<V>>
class TreeAllreduce {
 public:
  explicit TreeAllreduce(Engine* engine) : engine_(engine) {
    KYLIX_CHECK(engine_ != nullptr);
    const rank_t m = engine_->num_ranks();
    KYLIX_CHECK_MSG((m & (m - 1)) == 0,
                    "tree allreduce requires a power-of-two machine count");
    levels_ = 0;
    for (rank_t x = m; x > 1; x /= 2) ++levels_;
  }

  /// One-shot sparse allreduce. result[r] aligns with in_sets[r] key order.
  [[nodiscard]] std::vector<std::vector<V>> reduce(
      std::vector<KeySet> in_sets, std::vector<KeySet> out_sets,
      std::vector<std::vector<V>> out_values) {
    const rank_t m = engine_->num_ranks();
    KYLIX_CHECK(in_sets.size() == m && out_sets.size() == m &&
                out_values.size() == m);
    states_.assign(m, State{});
    peak_out_ = 0;
    for (rank_t r = 0; r < m; ++r) {
      KYLIX_CHECK(out_values[r].size() == out_sets[r].size());
      states_[r].in = std::move(in_sets[r]);
      states_[r].subtree_in = states_[r].in;
      states_[r].out = std::move(out_sets[r]);
      states_[r].values = std::move(out_values[r]);
    }

    // Aggregate to the root. At level t, senders are ranks with bit t-1 set
    // and lower bits clear; receiver clears that bit.
    for (std::uint16_t level = 1; level <= levels_; ++level) {
      const rank_t bit = rank_t{1} << (level - 1);
      const rank_t mask = (rank_t{1} << level) - 1;
      engine_->round(
          Phase::kReduceDown, level,
          [&](rank_t r) {
            std::vector<Letter<V>> letters;
            if ((r & mask) == bit) {
              Letter<V> letter;
              letter.src = r;
              letter.dst = r ^ bit;
              letter.packet.in_keys.assign(states_[r].subtree_in.begin(),
                                           states_[r].subtree_in.end());
              letter.packet.out_keys.assign(states_[r].out.begin(),
                                            states_[r].out.end());
              letter.packet.values = states_[r].values;
              letters.push_back(std::move(letter));
            }
            return letters;
          },
          [&](rank_t r) {
            std::vector<rank_t> senders;
            if ((r & mask) == 0) senders.push_back(r | bit);
            return senders;
          },
          [&](rank_t r, std::vector<Letter<V>>&& inbox) {
            for (Letter<V>& letter : inbox) absorb(r, std::move(letter));
          });
    }

    // Distribute answers back down, deepest level last.
    for (std::uint16_t level = levels_; level >= 1; --level) {
      const rank_t bit = rank_t{1} << (level - 1);
      const rank_t mask = (rank_t{1} << level) - 1;
      engine_->round(
          Phase::kReduceUp, level,
          [&](rank_t r) {
            std::vector<Letter<V>> letters;
            if ((r & mask) == 0) {
              const rank_t child = r | bit;
              Letter<V> letter;
              letter.src = r;
              letter.dst = child;
              // Answer everything the child's subtree asked for (its
              // request set arrived over the wire during aggregation).
              for (key_t k : states_[r].child_requests[level - 1]) {
                const std::size_t pos = states_[r].out.find(k);
                KYLIX_CHECK_MSG(pos != KeySet::npos,
                                "requested index contributed by no machine");
                letter.packet.in_keys.push_back(k);
                letter.packet.values.push_back(states_[r].values[pos]);
              }
              letters.push_back(std::move(letter));
            }
            return letters;
          },
          [&](rank_t r) {
            std::vector<rank_t> senders;
            if ((r & mask) == bit) senders.push_back(r ^ bit);
            return senders;
          },
          [&](rank_t r, std::vector<Letter<V>>&& inbox) {
            for (Letter<V>& letter : inbox) {
              // The answered set becomes this subtree root's full reduction
              // source for deeper levels.
              states_[r].out =
                  KeySet::from_sorted_keys(std::move(letter.packet.in_keys));
              states_[r].values = std::move(letter.packet.values);
            }
          });
    }

    std::vector<std::vector<V>> results(m);
    for (rank_t r = 0; r < m; ++r) {
      results[r].reserve(states_[r].in.size());
      for (key_t k : states_[r].in) {
        const std::size_t pos = states_[r].out.find(k);
        KYLIX_CHECK(pos != KeySet::npos);
        results[r].push_back(states_[r].values[pos]);
      }
    }
    states_.clear();
    return results;
  }

  /// Peak accumulated out-set size across nodes — the "intractably large
  /// middle" the paper warns about; read after reduce() via probe_peak().
  [[nodiscard]] std::size_t last_peak_out_size() const { return peak_out_; }

 private:
  struct State {
    KeySet in;           ///< own request set
    KeySet subtree_in;   ///< own ∪ absorbed children's requests
    KeySet out;
    std::vector<V> values;
    /// child_requests[t-1] is what the level-t child asked for.
    std::vector<KeySet> child_requests;
  };

  void absorb(rank_t r, Letter<V>&& letter) {
    State& s = states_[r];
    const KeySet child_in = KeySet::from_sorted_keys(
        std::move(letter.packet.in_keys));
    UnionResult in_union =
        merge_union(s.subtree_in.keys(), child_in.keys());
    s.subtree_in = KeySet::from_sorted_keys(std::move(in_union.keys));
    s.child_requests.push_back(child_in);

    UnionResult out_union =
        merge_union(s.out.keys(), letter.packet.out_keys);
    std::vector<V> merged(out_union.keys.size(), Op::template identity<V>());
    scatter_combine<V, Op>(std::span<V>(merged),
                           std::span<const V>(s.values), out_union.maps[0]);
    scatter_combine<V, Op>(std::span<V>(merged),
                           std::span<const V>(letter.packet.values),
                           out_union.maps[1]);
    s.out = KeySet::from_sorted_keys(std::move(out_union.keys));
    s.values = std::move(merged);
    peak_out_ = std::max(peak_out_, s.out.size());
  }

  Engine* engine_;
  std::uint16_t levels_ = 0;
  std::vector<State> states_;
  std::size_t peak_out_ = 0;
};

}  // namespace kylix
