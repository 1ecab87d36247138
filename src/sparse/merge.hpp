// Set-union with positional maps — the workhorse of Kylix configuration.
//
// During configuration every node unions the index sets arriving from its
// layer neighbors, and records, for each input set, a positional map from
// positions in that input to positions in the union (the paper's f/g maps,
// §III-A). During reduction those maps make value accumulation and gathering
// O(1) per element.
//
// Two implementations are provided:
//  * tree_merge — sorted-sequence k-way union via a balanced merge tree, the
//    paper's preferred method (§VI-A, "5x faster than a hash implementation").
//    The workhorse form is tree_merge_into, an iterative ping-pong over two
//    reusable run buffers with a caller-suppliable MergeScratch: repeated
//    unions of same-shaped inputs (minibatch SGD, one union per node per
//    layer per step) stop touching the allocator once capacities warm up.
//    Every level is merge_union_into, a branch-free two-way union (galloping
//    when one side is kGallopRatio times the other).
//  * hash_union — the hash-table alternative, kept as the measured baseline
//    of bench/micro_kernels' tree_merge vs. hash_union rows.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/key_set.hpp"

namespace kylix {

/// Positional map: map[p] is the position in the union of element p of an
/// input sequence.
using PosMap = std::vector<pos_t>;

/// Result of uniting k sorted inputs: the union (sorted for tree_merge,
/// insertion-ordered for hash_union) plus one map per input.
struct UnionResult {
  std::vector<key_t> keys;
  std::vector<PosMap> maps;  ///< maps[i].size() == inputs[i].size()
};

/// Reusable working storage for tree_merge_into. One scratch may serve any
/// sequence of calls (input counts and sizes may vary between calls); its
/// buffers only ever grow, so steady-state repeated unions are
/// allocation-free.
struct MergeScratch {
  std::vector<std::vector<key_t>> runs[2];  ///< ping-pong key runs per level
  PosMap map_a;                             ///< 2-way merge temporaries
  PosMap map_b;
  std::vector<std::span<pos_t>> maps;       ///< UnionResult form's map views
};

/// merge_union_into gallops (exponential search plus a bulk copy) when one
/// input is at least this many times the other; measured by
/// bench/micro_kernels.
inline constexpr std::size_t kGallopRatio = 8;

/// Union of two strictly-sorted sequences into caller-owned buffers:
/// `keys` receives the union (overwritten, capacity reused), and
/// map_a[p] / map_b[p] — spans exactly as long as `a` / `b` — the position
/// of a[p] / b[p] in it plus `base`, so a union that is one part of a
/// larger one writes its maps in place. Linear time, with no data-dependent
/// branch per element on balanced sizes; galloping when one side is at
/// least kGallopRatio times the other.
void merge_union_into(std::span<const key_t> a, std::span<const key_t> b,
                      std::vector<key_t>& keys, std::span<pos_t> map_a,
                      std::span<pos_t> map_b, pos_t base);

/// The same with base 0, sizing the maps to their inputs.
void merge_union_into(std::span<const key_t> a, std::span<const key_t> b,
                      std::vector<key_t>& keys, PosMap& map_a, PosMap& map_b);

/// Union of two strictly-sorted sequences, with maps for both. Linear time.
UnionResult merge_union(std::span<const key_t> a, std::span<const key_t> b);

/// Union of k strictly-sorted sequences via a balanced binary merge tree,
/// iteratively ping-ponging between two reusable run arenas; per-leaf maps
/// are composed level by level. Total cost O(N log k) for N total input
/// elements. Accepts k == 0 (empty result) and k == 1 (identity map), and
/// arbitrarily many empty inputs. `keys` receives the union (overwritten,
/// capacity reused) and maps[i], exactly as long as inputs[i], the union
/// positions of its keys plus `base`: the top level's two-way maps carry
/// the base into the last composition, so every map is written in place.
void tree_merge_into(std::span<const std::span<const key_t>> inputs,
                     std::vector<key_t>& keys,
                     std::span<const std::span<pos_t>> maps, pos_t base,
                     MergeScratch& scratch);

/// The same with base 0 into a UnionResult, whose maps are sized to their
/// inputs. `out` is overwritten, reusing its buffers.
void tree_merge_into(std::span<const std::span<const key_t>> inputs,
                     UnionResult& out, MergeScratch& scratch);

/// Allocating convenience wrapper around tree_merge_into.
UnionResult tree_merge(std::span<const std::span<const key_t>> inputs);

/// Convenience overload over vectors.
UnionResult tree_merge(const std::vector<std::vector<key_t>>& inputs);

/// Hash-table union baseline: the union is in first-appearance order, NOT
/// sorted. Maps have identical semantics to tree_merge.
UnionResult hash_union(std::span<const std::span<const key_t>> inputs);

}  // namespace kylix
