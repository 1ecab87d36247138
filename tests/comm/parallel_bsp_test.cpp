// ThreadPool behavior and ParallelBspEngine round-level parity across
// thread counts: 4 threads deliver the same state, trace event sequence and
// modeled timing as 1 — with failures and compute charges in play.
#include "comm/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace kylix {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.parallel_for(17, [&](std::size_t i) {
      total.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  // 200 batches of sum 1..17 = 153 each.
  EXPECT_EQ(total.load(), 200u * 153u);
}

TEST(ThreadPool, RethrowsWorkerException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   ran.fetch_add(1);
                                   if (i == 7) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Remaining indices still ran to completion.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "should not run"; });
}

TEST(ThreadPool, InterleavedBatchesRunEveryIndexOnce) {
  // Short batches back to back, alternating both kinds: a worker that
  // wakes after a balanced batch closed must skip it and join a later one.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(9);
  std::vector<int> want(9, 0);
  for (int batch = 0; batch < 3000; ++batch) {
    const std::size_t n = 1 + static_cast<std::size_t>(batch % 9);
    for (std::size_t i = 0; i < n; ++i) ++want[i];
    auto body = [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    };
    if (batch % 2 == 0) {
      pool.parallel_for_balanced(n, body);
    } else {
      pool.parallel_for(n, body);
    }
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), want[i]) << "index " << i;
  }
}

TEST(ThreadPool, BalancedBatchStallsOnlyOneShortShard) {
  // Index 0 stalls its thread until all but 6 of the other 47 indices
  // have run, so the other threads must claim what the stalled thread
  // would have run next. With one shard per thread (16 of 48 indices on
  // 3 threads) at most 32 others could run, and index 0 would give up at
  // the deadline.
  ThreadPool pool(3);
  constexpr std::size_t kIndices = 48;
  std::atomic<std::size_t> ran{0};
  bool released = false;
  pool.parallel_for_balanced(kIndices, [&](std::size_t i) {
    if (i != 0) {
      ran.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (ran.load(std::memory_order_relaxed) < kIndices - 7) {
      if (std::chrono::steady_clock::now() > deadline) return;
      std::this_thread::yield();
    }
    released = true;
  });
  EXPECT_TRUE(released) << "only " << ran.load() << " other indices ran";
  EXPECT_EQ(ran.load(), kIndices - 1);
}

TEST(ThreadPool, BalancedBatchRethrowsAfterEveryIndexRan) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for_balanced(64,
                                          [&](std::size_t i) {
                                            ran.fetch_add(1);
                                            if (i == 7) {
                                              throw std::runtime_error(
                                                  "boom");
                                            }
                                          }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------------------
// Engine parity. A synthetic round: rank r sends (r+1)%m and (r+3)%m a
// packet of values; consumers sum what they receive and charge compute
// proportional to the received element count.

using Engine = ParallelBspEngine<float>;

bool same_event(const MsgEvent& a, const MsgEvent& b) {
  return a.phase == b.phase && a.layer == b.layer && a.src == b.src &&
         a.dst == b.dst && a.bytes == b.bytes;
}

void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_TRUE(same_event(a.events()[i], b.events()[i])) << "event " << i;
  }
}

template <typename E>
std::vector<float> run_synthetic_rounds(E& engine, rank_t m) {
  std::vector<float> state(m, 0.0f);
  std::vector<std::vector<Letter<float>>> outboxes(m);
  std::vector<std::vector<rank_t>> groups(m);
  for (rank_t r = 0; r < m; ++r) {
    groups[r] = {static_cast<rank_t>((r + m - 1) % m),
                 static_cast<rank_t>((r + m - 3) % m)};
  }
  for (std::uint16_t layer = 1; layer <= 3; ++layer) {
    engine.round(
        Phase::kReduceDown, layer,
        [&](rank_t r) -> std::vector<Letter<float>>& {
          auto& out = outboxes[r];
          out.clear();
          for (rank_t offset : {rank_t{1}, rank_t{3}}) {
            Letter<float> letter;
            letter.src = r;
            letter.dst = static_cast<rank_t>((r + offset) % m);
            for (rank_t v = 0; v < 4 + r; ++v) {
              letter.packet.values.push_back(
                  static_cast<float>(r * 100 + layer * 10 + v));
            }
            out.push_back(std::move(letter));
          }
          return out;
        },
        [&](rank_t r) -> const std::vector<rank_t>& { return groups[r]; },
        [&](rank_t r, std::vector<Letter<float>>&& inbox) {
          std::size_t elements = 0;
          for (const Letter<float>& letter : inbox) {
            for (float v : letter.packet.values) state[r] += v;
            elements += letter.packet.values.size();
          }
          engine.charge_compute(Phase::kReduceDown, layer, r,
                                1e-7 * static_cast<double>(elements));
        });
  }
  return state;
}

// `seq` — the engine at one thread — is the sequential BSP reference.
TEST(ParallelBspEngine, MatchesBspStateTraceAndTimingExactly) {
  const rank_t m = 12;
  const NetworkModel net = NetworkModel::ec2_like();
  const ComputeModel compute;

  Trace seq_trace, par_trace;
  TimingAccumulator seq_timing(m, net, compute, 16);
  TimingAccumulator par_timing(m, net, compute, 16);

  Engine seq(m, 1, nullptr, &seq_trace, &seq_timing);
  Engine par(m, 4, nullptr, &par_trace, &par_timing);

  const auto seq_state = run_synthetic_rounds(seq, m);
  const auto par_state = run_synthetic_rounds(par, m);

  EXPECT_EQ(seq_state, par_state);
  expect_same_trace(seq_trace, par_trace);
  EXPECT_EQ(seq_timing.times().total(), par_timing.times().total());
  for (std::uint16_t layer = 1; layer <= 3; ++layer) {
    EXPECT_EQ(seq_timing.round_time(Phase::kReduceDown, layer),
              par_timing.round_time(Phase::kReduceDown, layer))
        << "layer " << layer;
  }
}

TEST(ParallelBspEngine, MatchesBspUnderFailures) {
  const rank_t m = 12;
  FailureModel failures(m);
  failures.kill(2);
  failures.kill(9);

  Trace seq_trace, par_trace;
  Engine seq(m, 1, &failures, &seq_trace, nullptr);
  Engine par(m, 4, &failures, &par_trace, nullptr);

  const auto seq_state = run_synthetic_rounds(seq, m);
  const auto par_state = run_synthetic_rounds(par, m);

  EXPECT_EQ(seq_state, par_state);
  expect_same_trace(seq_trace, par_trace);
  EXPECT_TRUE(par.is_dead(2));
  EXPECT_FALSE(par.is_dead(3));
}

}  // namespace
}  // namespace kylix
