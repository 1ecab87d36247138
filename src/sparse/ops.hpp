// Value-buffer primitives driven by positional maps, plus the reduction
// operators Kylix supports.
//
// After configuration, value traffic never touches keys again: the downward
// scatter-reduce accumulates arriving buffers into the union layout via a
// PosMap (scatter_combine), and the upward allgather extracts per-neighbor
// buffers via the same maps (gather). Both are O(1) per element, the property
// the paper's f/g maps exist to provide.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "sparse/kernels/scatter_gather.hpp"
#include "sparse/merge.hpp"

namespace kylix {

/// Reduction operators. Kylix is a *sum* allreduce in the paper; min and
/// bit-or extend it to the graph-mining applications of §I-A (connected
/// components / BFS use min over labels, diameter estimation ORs
/// Flajolet–Martin bit strings).
struct OpSum {
  template <typename V>
  void operator()(V& acc, const V& x) const {
    acc += x;
  }
  template <typename V>
  static constexpr V identity() {
    return V{};
  }
};

struct OpMin {
  template <typename V>
  void operator()(V& acc, const V& x) const {
    acc = std::min(acc, x);
  }
  template <typename V>
  static constexpr V identity() {
    return std::numeric_limits<V>::max();
  }
};

struct OpBitOr {
  template <typename V>
  void operator()(V& acc, const V& x) const {
    acc |= x;
  }
  template <typename V>
  static constexpr V identity() {
    return V{};
  }
};

/// acc[map[p]] = op(acc[map[p]], values[p]) for all p, in ascending p
/// (kernels/scatter_gather.hpp: unrolled + software-prefetched, combine
/// order bit-identical to the scalar loop).
template <typename V, typename Op>
void scatter_combine(std::span<V> acc, std::span<const V> values,
                     const PosMap& map, Op op = {}) {
  kernels::scatter_combine<V, Op>(acc, values, map, op);
}

/// out[p] = values[map[p]] for all p, into a caller-owned buffer
/// (overwritten, capacity reused — the zero-allocation hot-path form).
template <typename V>
void gather_into(std::span<const V> values, const PosMap& map,
                 std::vector<V>& out) {
  out.resize(map.size());
  kernels::gather<V>(values, map, out.data());
}

/// out[p] = values[map[p]] for all p.
template <typename V>
std::vector<V> gather(std::span<const V> values, const PosMap& map) {
  std::vector<V> out;
  gather_into(values, map, out);
  return out;
}

/// Strided multi-payload forms: `stride` value vectors interleaved key-major
/// share one positional map (kernels/scatter_gather.hpp; bit-identical to
/// `stride` independent stride-1 calls per component).
template <typename V, typename Op>
void scatter_combine_strided(std::span<V> acc, std::span<const V> values,
                             const PosMap& map, std::size_t stride,
                             Op op = {}) {
  kernels::scatter_combine_strided<V, Op>(acc, values, map, stride, op);
}

template <typename V>
void gather_strided_into(std::span<const V> values, const PosMap& map,
                         std::size_t stride, std::vector<V>& out) {
  out.resize(map.size() * stride);
  kernels::gather_strided<V>(values, map, stride, out.data());
}

/// Map-slice forms: the streamed executor routes each chunk through a
/// subspan of the piece's positional map, so a chunked scatter/gather is
/// the same kernel over the same positions in the same order as one
/// whole-piece call — which is the bit-identity argument for streaming.
/// With `base`, `acc` holds only target positions [base, ...) of the
/// union: the executor's slices combine straight into a letter that
/// carries one range of it.
template <typename V, typename Op>
void scatter_combine_strided(std::span<V> acc, std::span<const V> values,
                             std::span<const pos_t> map, std::size_t stride,
                             std::size_t base = 0, Op op = {}) {
  kernels::scatter_combine_strided<V, Op>(acc, values, map, stride, op, base);
}

template <typename V>
void gather_strided_into(std::span<const V> values, std::span<const pos_t> map,
                         std::size_t stride, std::vector<V>& out) {
  out.resize(map.size() * stride);
  kernels::gather_strided<V>(values, map, stride, out.data());
}

/// A sparse vector at the API boundary: aligned (sorted keys, values).
template <typename V>
struct SparseVector {
  KeySet keys;
  std::vector<V> values;

  [[nodiscard]] std::size_t size() const { return keys.size(); }

  /// Build from (index, value) pairs; duplicate indices are combined by Op.
  /// Positions are produced by the key construction itself: one sort of
  /// (key, input position) tags followed by a linear fold — no per-element
  /// binary search (each probe of which re-hashed the index).
  template <typename Op = OpSum>
  static SparseVector from_pairs(std::span<const index_t> indices,
                                 std::span<const V> vals, Op op = {}) {
    KYLIX_CHECK(indices.size() == vals.size());
    std::vector<std::pair<key_t, pos_t>> tagged(indices.size());
    for (std::size_t p = 0; p < indices.size(); ++p) {
      tagged[p] = {hash_index(indices[p]), static_cast<pos_t>(p)};
    }
    // Sorting ties by input position keeps duplicate combination in input
    // order, so results stay bit-identical to the lookup-based build.
    std::sort(tagged.begin(), tagged.end());
    SparseVector out;
    std::vector<key_t> keys;
    keys.reserve(tagged.size());
    out.values.reserve(tagged.size());
    for (const auto& [key, p] : tagged) {
      if (keys.empty() || keys.back() != key) {
        keys.push_back(key);
        out.values.push_back(Op::template identity<V>());
      }
      op(out.values.back(), vals[p]);
    }
    out.keys = KeySet::from_sorted_keys(std::move(keys));
    return out;
  }
};

/// Single-node reference sparse allreduce: union all contributions, combine
/// duplicates with Op, then answer each request set by lookup. The oracle
/// every distributed engine is tested against.
template <typename V, typename Op = OpSum>
class ReferenceReduce {
 public:
  /// `contributions[i]` is machine i's (out set, values).
  explicit ReferenceReduce(std::span<const SparseVector<V>> contributions,
                           Op op = {}) {
    std::vector<std::span<const key_t>> key_spans;
    key_spans.reserve(contributions.size());
    for (const auto& c : contributions) {
      KYLIX_CHECK(c.keys.size() == c.values.size());
      key_spans.push_back(c.keys.keys());
    }
    UnionResult u = tree_merge(key_spans);
    totals_.assign(u.keys.size(), Op::template identity<V>());
    for (std::size_t i = 0; i < contributions.size(); ++i) {
      scatter_combine<V, Op>(std::span<V>(totals_),
                             std::span<const V>(contributions[i].values),
                             u.maps[i], op);
    }
    keys_ = KeySet::from_sorted_keys(std::move(u.keys));
  }

  /// Reduced value for one key; dies if the key was never contributed.
  [[nodiscard]] V at(key_t key) const {
    const std::size_t pos = keys_.find(key);
    KYLIX_CHECK_MSG(pos != KeySet::npos, "key not present in reduction");
    return totals_[pos];
  }

  /// Reduced values for a whole request set, aligned with `request`.
  [[nodiscard]] std::vector<V> lookup(const KeySet& request) const {
    std::vector<V> out;
    out.reserve(request.size());
    for (key_t k : request) out.push_back(at(k));
    return out;
  }

  [[nodiscard]] const KeySet& keys() const { return keys_; }
  [[nodiscard]] std::span<const V> totals() const { return totals_; }

 private:
  KeySet keys_;
  std::vector<V> totals_;
};

}  // namespace kylix
