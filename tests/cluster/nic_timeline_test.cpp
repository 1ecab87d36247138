#include "cluster/nic_timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace kylix {
namespace {

// The modeled-clock properties the async speedups rest on (DESIGN §11):
// the tx NIC is work-conserving regardless of the order the simulation
// discovers sends in. A scalar "free-at" clock fails most of these.

void expect_sorted_disjoint(const NicTimeline& line) {
  for (std::size_t i = 0; i < line.busy.size(); ++i) {
    EXPECT_LT(line.busy[i].first, line.busy[i].second);
    if (i > 0) {
      EXPECT_LE(line.busy[i - 1].second, line.busy[i].first);
    }
  }
}

TEST(NicTimeline, BackToBackClaimsSerialize) {
  NicTimeline line;
  EXPECT_DOUBLE_EQ(line.claim(0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(line.claim(0.0, 3.0), 2.0);  // pushed past the first
  EXPECT_DOUBLE_EQ(line.claim(1.0, 1.0), 5.0);  // ready mid-busy: queues
  expect_sorted_disjoint(line);
}

TEST(NicTimeline, ClaimAfterAllBusyStartsOnTime) {
  NicTimeline line;
  (void)line.claim(0.0, 2.0);
  EXPECT_DOUBLE_EQ(line.claim(10.0, 1.0), 10.0);
  expect_sorted_disjoint(line);
}

TEST(NicTimeline, FillsTheEarliestFittingGap) {
  NicTimeline line;
  (void)line.claim(0.0, 10.0);    // [0, 10)
  (void)line.claim(20.0, 10.0);   // [20, 30)
  // Ready at 0, needs 5: the wire is busy until 10 and the [10, 20) gap
  // fits, so the claim starts there — not after everything.
  EXPECT_DOUBLE_EQ(line.claim(0.0, 5.0), 10.0);
  // An exact-fit claim takes the rest of the gap.
  EXPECT_DOUBLE_EQ(line.claim(0.0, 5.0), 15.0);
  // The gap is now gone; the next claim queues behind [20, 30).
  EXPECT_DOUBLE_EQ(line.claim(0.0, 1.0), 30.0);
  expect_sorted_disjoint(line);
}

TEST(NicTimeline, TooSmallGapIsSkipped) {
  NicTimeline line;
  (void)line.claim(0.0, 10.0);   // [0, 10)
  (void)line.claim(12.0, 8.0);   // [12, 20)
  EXPECT_DOUBLE_EQ(line.claim(0.0, 3.0), 20.0);  // 2s gap can't hold 3s
  expect_sorted_disjoint(line);
}

TEST(NicTimeline, LateClaimDoesNotFenceAnEarlierOne) {
  // The anti-convoy property: a stream that books the wire at t=5 must
  // not delay a letter that was ready at t=0 (claim order != time order
  // when many lanes are simulated breadth-first).
  NicTimeline line;
  EXPECT_DOUBLE_EQ(line.claim(5.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(line.claim(0.0, 5.0), 0.0);  // fills [0, 5) before it
  expect_sorted_disjoint(line);
}

TEST(NicTimeline, AllReadyAtZeroPacksGaplesslyInAnyOrder) {
  // When every send is ready at t=0 the wire must run saturated: one
  // contiguous busy block of sum-of-durations length, whatever order the
  // simulation happens to claim in. (A scalar free-at clock also passes
  // this one; the staggered cases above/below are where it fails.)
  std::vector<double> durations = {4.0, 2.0, 3.0, 1.0, 5.0};
  std::sort(durations.begin(), durations.end());
  double sum = 0;
  for (const double d : durations) sum += d;
  do {
    NicTimeline line;
    for (const double d : durations) (void)line.claim(0.0, d);
    expect_sorted_disjoint(line);
    // Intervals are stored unmerged; contiguity means each abuts the next.
    EXPECT_DOUBLE_EQ(line.busy.front().first, 0.0);
    EXPECT_DOUBLE_EQ(line.busy.back().second, sum);
    for (std::size_t i = 1; i < line.busy.size(); ++i) {
      EXPECT_DOUBLE_EQ(line.busy[i].first, line.busy[i - 1].second);
    }
  } while (std::next_permutation(durations.begin(), durations.end()));
}

TEST(NicTimeline, WorkConservingUnderAnyClaimOrder) {
  // The property the async makespans rest on: in the final schedule, no
  // send sits queued past an idle window that could have carried it.
  // Verified against every claim order of a staggered send set — later
  // claims only add busy time, so a gap that was infeasible at claim
  // time stays infeasible in the final timeline.
  const std::vector<std::pair<double, double>> sends = {
      {0.0, 4.0}, {1.0, 2.0}, {0.5, 3.0}, {9.0, 1.0}, {2.0, 5.0}};
  std::vector<std::size_t> order = {0, 1, 2, 3, 4};
  do {
    NicTimeline line;
    std::vector<double> starts(sends.size());
    for (const std::size_t i : order) {
      starts[i] = line.claim(sends[i].first, sends[i].second);
    }
    expect_sorted_disjoint(line);
    for (std::size_t i = 0; i < sends.size(); ++i) {
      const double ready = sends[i].first;
      const double dur = sends[i].second;
      EXPECT_GE(starts[i], ready);
      // Every idle window [gap_start, gap_end) wholly before this send's
      // start must be too late or too small for it.
      double prev_end = 0.0;
      for (const auto& iv : line.busy) {
        const double gap_start = std::max(prev_end, ready);
        const double gap_end = std::min(iv.first, starts[i]);
        EXPECT_LT(gap_end - gap_start, dur)
            << "send " << i << " idled past a usable gap";
        prev_end = iv.second;
      }
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(NicTimeline, ClearForgetsEverything) {
  NicTimeline line;
  (void)line.claim(0.0, 10.0);
  line.clear();
  EXPECT_DOUBLE_EQ(line.claim(0.0, 1.0), 0.0);
}

}  // namespace
}  // namespace kylix
