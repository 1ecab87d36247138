// Branchless, unrolled, software-prefetched scatter/gather kernels.
//
// scatter_combine and gather are map-driven: every element chases
// acc[map[p]], a data-dependent address the hardware prefetcher cannot
// predict once the union no longer fits in cache. The map itself *is*
// sequential though, so the target address is known kPrefetchAhead elements
// early — a software prefetch hides the DRAM latency behind the arithmetic
// of the intervening elements. The body is unrolled 4-wide; within one
// scatter call the map is strictly increasing (piece keys are strictly
// sorted), so the unrolled ops never alias and the combine order — hence
// every floating-point sum — is bit-identical to the scalar loop.
//
// KYLIX_NATIVE builds (-march=native) additionally let the compiler
// vectorize the gather side with native gather instructions where available;
// the code is identical, only the flags differ.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define KYLIX_PREFETCH_READ(addr) __builtin_prefetch((addr), 0)
#define KYLIX_PREFETCH_WRITE(addr) __builtin_prefetch((addr), 1)
#else
#define KYLIX_PREFETCH_READ(addr) ((void)0)
#define KYLIX_PREFETCH_WRITE(addr) ((void)0)
#endif

namespace kylix::kernels {

/// Prefetch lookahead in elements. One map entry is 4 bytes, so 16 elements
/// of lookahead keep ~1 cache line of map reads in flight while covering the
/// ~100 ns DRAM latency of the value-line fetch at typical combine rates.
/// KYLIX_NATIVE builds vectorize the body and consume map entries faster,
/// so the lookahead doubles.
#if defined(KYLIX_NATIVE)
inline constexpr std::size_t kPrefetchAhead = 32;
#else
inline constexpr std::size_t kPrefetchAhead = 16;
#endif

/// acc[map[p] - base] = op(acc[map[p] - base], values[p]) for all p, in
/// ascending p. `base` (0 unless given) lets `acc` hold only the target
/// positions [base, base + acc.size()) of a larger buffer.
template <typename V, typename Op>
void scatter_combine(std::span<V> acc, std::span<const V> values,
                     std::span<const pos_t> map, Op op = {},
                     std::size_t base = 0) {
  KYLIX_CHECK(values.size() == map.size());
  const std::size_t n = map.size();
  const pos_t* m = map.data();
  const V* v = values.data();
  V* a = acc.data();
  std::size_t p = 0;
  if (n > kPrefetchAhead + 4) {
    const std::size_t fenced = n - kPrefetchAhead;
    for (; p + 4 <= fenced; p += 4) {
      KYLIX_PREFETCH_WRITE(a + (m[p + kPrefetchAhead] - base));
      KYLIX_PREFETCH_WRITE(a + (m[p + kPrefetchAhead + 2] - base));
      KYLIX_DCHECK(m[p] >= base && m[p + 3] - base < acc.size());
      op(a[m[p] - base], v[p]);
      op(a[m[p + 1] - base], v[p + 1]);
      op(a[m[p + 2] - base], v[p + 2]);
      op(a[m[p + 3] - base], v[p + 3]);
    }
  }
  for (; p < n; ++p) {
    KYLIX_DCHECK(m[p] >= base && m[p] - base < acc.size());
    op(a[m[p] - base], v[p]);
  }
}

/// out[p] = values[map[p]] for all p; `out` must already have map.size()
/// elements (the resize policy stays with the caller).
template <typename V>
void gather(std::span<const V> values, std::span<const pos_t> map, V* out) {
  const std::size_t n = map.size();
  const pos_t* m = map.data();
  const V* v = values.data();
  std::size_t p = 0;
  if (n > kPrefetchAhead + 4) {
    const std::size_t fenced = n - kPrefetchAhead;
    for (; p + 4 <= fenced; p += 4) {
      KYLIX_PREFETCH_READ(v + m[p + kPrefetchAhead]);
      KYLIX_PREFETCH_READ(v + m[p + kPrefetchAhead + 2]);
      KYLIX_DCHECK(m[p] < values.size() && m[p + 1] < values.size() &&
                   m[p + 2] < values.size() && m[p + 3] < values.size());
      out[p] = v[m[p]];
      out[p + 1] = v[m[p + 1]];
      out[p + 2] = v[m[p + 2]];
      out[p + 3] = v[m[p + 3]];
    }
  }
  for (; p < n; ++p) {
    KYLIX_DCHECK(m[p] < values.size());
    out[p] = v[m[p]];
  }
}

// ---- strided (multi-payload) forms ----------------------------------------
//
// A strided buffer interleaves `stride` payload vectors key-major: the
// stride values of key position p occupy [p*stride, (p+1)*stride). One map
// entry then routes a whole block, so k payloads share one positional
// lookup (and, one level up, one set of routing keys on the wire). The
// per-component op order is exactly the order a stride-1 call would apply
// for that component, so a strided reduce is bit-identical to k independent
// reduces. stride == 1 degrades to the plain kernels above.

/// acc[(map[p] - base)*stride + c] = op(..., values[p*stride + c]) for all
/// p in ascending order and all c < stride; `base` as in scatter_combine.
template <typename V, typename Op>
void scatter_combine_strided(std::span<V> acc, std::span<const V> values,
                             std::span<const pos_t> map, std::size_t stride,
                             Op op = {}, std::size_t base = 0) {
  if (stride == 1) {
    scatter_combine<V, Op>(acc, values, map, op, base);
    return;
  }
  KYLIX_CHECK(values.size() == map.size() * stride);
  const std::size_t n = map.size();
  const pos_t* m = map.data();
  const V* v = values.data();
  V* a = acc.data();
  std::size_t p = 0;
  if (n > kPrefetchAhead) {
    const std::size_t fenced = n - kPrefetchAhead;
    for (; p < fenced; ++p) {
      KYLIX_PREFETCH_WRITE(a + (m[p + kPrefetchAhead] - base) * stride);
      KYLIX_DCHECK(m[p] >= base && (m[p] - base + 1) * stride <= acc.size());
      V* block = a + (m[p] - base) * stride;
      const V* src = v + p * stride;
      for (std::size_t c = 0; c < stride; ++c) op(block[c], src[c]);
    }
  }
  for (; p < n; ++p) {
    KYLIX_DCHECK(m[p] >= base && (m[p] - base + 1) * stride <= acc.size());
    V* block = a + (m[p] - base) * stride;
    const V* src = v + p * stride;
    for (std::size_t c = 0; c < stride; ++c) op(block[c], src[c]);
  }
}

/// out[p*stride + c] = values[map[p]*stride + c]; `out` must already have
/// map.size() * stride elements.
template <typename V>
void gather_strided(std::span<const V> values, std::span<const pos_t> map,
                    std::size_t stride, V* out) {
  if (stride == 1) {
    gather<V>(values, map, out);
    return;
  }
  const std::size_t n = map.size();
  const pos_t* m = map.data();
  const V* v = values.data();
  std::size_t p = 0;
  if (n > kPrefetchAhead) {
    const std::size_t fenced = n - kPrefetchAhead;
    for (; p < fenced; ++p) {
      KYLIX_PREFETCH_READ(v + static_cast<std::size_t>(m[p + kPrefetchAhead]) *
                                  stride);
      KYLIX_DCHECK((static_cast<std::size_t>(m[p]) + 1) * stride <=
                   values.size());
      const V* block = v + static_cast<std::size_t>(m[p]) * stride;
      V* dst = out + p * stride;
      for (std::size_t c = 0; c < stride; ++c) dst[c] = block[c];
    }
  }
  for (; p < n; ++p) {
    KYLIX_DCHECK((static_cast<std::size_t>(m[p]) + 1) * stride <=
                 values.size());
    const V* block = v + static_cast<std::size_t>(m[p]) * stride;
    V* dst = out + p * stride;
    for (std::size_t c = 0; c < stride; ++c) dst[c] = block[c];
  }
}

/// Scalar reference forms, kept for bench/micro_kernels to measure the
/// prefetched kernels against (and for tests to assert equivalence).
template <typename V, typename Op>
void scatter_combine_scalar(std::span<V> acc, std::span<const V> values,
                            std::span<const pos_t> map, Op op = {}) {
  KYLIX_CHECK(values.size() == map.size());
  for (std::size_t p = 0; p < values.size(); ++p) {
    KYLIX_DCHECK(map[p] < acc.size());
    op(acc[map[p]], values[p]);
  }
}

template <typename V>
void gather_scalar(std::span<const V> values, std::span<const pos_t> map,
                   V* out) {
  for (std::size_t p = 0; p < map.size(); ++p) {
    KYLIX_DCHECK(map[p] < values.size());
    out[p] = values[map[p]];
  }
}

}  // namespace kylix::kernels
