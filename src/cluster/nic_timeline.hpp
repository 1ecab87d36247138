// NicTimeline — one modeled NIC direction as a work-conserving timeline of
// busy intervals (DESIGN §11).
//
// A scalar free-clock NIC commits wire time in *claim* order — which, in
// the async executor's timeline pricer, is node-step order, not virtual-time
// order — so one lane's burst fences off wire time that another lane's
// earlier-in-virtual-time letter could have used, and the in-flight streams
// convoy into slot waves that leave the wire idle while every lane computes.
// First-fit gap claiming models the NIC real hardware gives k independent
// send queues: a letter departs in the earliest idle interval at or after
// its send time, no matter which order the pricer discovers the sends in.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

namespace kylix {

struct NicTimeline {
  /// Sorted, disjoint busy intervals [start, end).
  std::vector<std::pair<double, double>> busy;

  void clear() { busy.clear(); }

  /// Occupy the earliest `duration`-long idle window starting at or after
  /// `t`; returns the chosen start time.
  double claim(double t, double duration) {
    auto it = std::upper_bound(
        busy.begin(), busy.end(), t,
        [](double v, const std::pair<double, double>& iv) {
          return v < iv.second;
        });
    // `it` is the first interval ending after t: the candidate gap starts
    // at max(t, previous end) and must reach the next interval's start.
    double start = t;
    while (it != busy.end()) {
      if (start + duration <= it->first) break;  // fits before this interval
      start = std::max(start, it->second);
      ++it;
    }
    busy.insert(it, {start, start + duration});
    return start;
  }
};

}  // namespace kylix
