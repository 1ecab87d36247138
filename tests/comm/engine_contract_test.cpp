// The engine contract. EngineContract runs ParallelBspEngine at one and at
// four threads on the plain delivery policy: besides the round() basics it
// pins what Wire owns — duplicates charged twice but delivered once,
// delayed letters redelivered at the next round with the same {phase,
// layer} or counted stale, the misuse messages — and the fault-channel
// adoption rule, which ReplicatedBsp shares. EngineFailedRound adds the
// replicated engine: a round whose callback throws leaves every engine
// usable, charges nothing, and stops buffering charges.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cluster/fault_plan.hpp"
#include "comm/fault_channel.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::expect_check_message;

template <unsigned Threads>
struct ParallelAt {
  using Engine = ParallelBspEngine<float>;
  static constexpr rank_t kReplicas = 1;
  static std::unique_ptr<Engine> make(rank_t m,
                                      const FailureModel* failures = nullptr,
                                      Trace* trace = nullptr,
                                      TimingAccumulator* timing = nullptr) {
    return std::make_unique<Engine>(m, Threads, failures, trace, timing);
  }
};

/// The replicated engine at s = 2: failures, trace and timing address its
/// kReplicas * m physical machines.
template <unsigned Threads>
struct ReplicatedAt {
  using Engine = ReplicatedBsp<float>;
  static constexpr rank_t kReplicas = 2;
  static std::unique_ptr<Engine> make(rank_t m,
                                      const FailureModel* failures = nullptr,
                                      Trace* trace = nullptr,
                                      TimingAccumulator* timing = nullptr) {
    return std::make_unique<Engine>(m, kReplicas, failures, trace, timing,
                                    Threads);
  }
};

template <typename Policy>
class EngineContract : public ::testing::Test {};

using WireEngines = ::testing::Types<ParallelAt<1>, ParallelAt<4>>;
TYPED_TEST_SUITE(EngineContract, WireEngines);

using Event = std::tuple<Phase, std::uint16_t, rank_t, rank_t, std::uint64_t>;

/// The trace as comparable tuples, in recorded order.
std::vector<Event> events_of(const Trace& trace) {
  std::vector<Event> events;
  for (const MsgEvent& e : trace.events()) {
    events.emplace_back(e.phase, e.layer, e.src, e.dst, e.bytes);
  }
  return events;
}

/// Counts every hook Wire fires.
struct CountingObserver : EngineObserver {
  int begins = 0, ends = 0, messages = 0, drops = 0, faults = 0;
  int redelivered = 0, stale = 0;
  void on_round_begin(Phase, std::uint16_t) override { ++begins; }
  void on_round_end(Phase, std::uint16_t) override { ++ends; }
  void on_message(const MsgEvent&) override { ++messages; }
  void on_drop(const MsgEvent&) override { ++drops; }
  void on_fault(const MsgEvent&, FaultAction) override { ++faults; }
  void on_redelivery(const MsgEvent&, bool was_stale) override {
    ++(was_stale ? stale : redelivered);
  }
};

/// A toy exchange: every node sends its rank*10 to every node (incl. self);
/// consume sums what arrived.
template <typename Engine>
std::vector<int> run_all_to_all(Engine& engine) {
  const rank_t m = engine.num_ranks();
  std::vector<int> sums(m, 0);
  engine.round(
      Phase::kConfig, 1,
      [&](rank_t r) {
        std::vector<Letter<float>> letters;
        for (rank_t dst = 0; dst < m; ++dst) {
          Letter<float> letter;
          letter.src = r;
          letter.dst = dst;
          letter.packet.values = {static_cast<float>(r * 10)};
          letters.push_back(std::move(letter));
        }
        return letters;
      },
      [&](rank_t) {
        std::vector<rank_t> all(m);
        for (rank_t s = 0; s < m; ++s) all[s] = s;
        return all;
      },
      [&](rank_t r, std::vector<Letter<float>>&& inbox) {
        for (const auto& letter : inbox) {
          sums[r] += static_cast<int>(letter.packet.values[0]);
        }
      });
  return sums;
}

/// One {kReduceDown, layer} round over two ranks: rank 0 sends `value` to
/// rank 1, which awaits it. Returns the values rank 1 consumed.
template <typename Engine>
std::vector<float> send_0_to_1(Engine& engine, std::uint16_t layer,
                               float value) {
  std::vector<float> got;
  engine.round(
      Phase::kReduceDown, layer,
      [&](rank_t r) {
        std::vector<Letter<float>> letters;
        if (r == 0) {
          letters.resize(1);
          letters[0].src = 0;
          letters[0].dst = 1;
          letters[0].packet.values = {value};
        }
        return letters;
      },
      [&](rank_t r) {
        return r == 1 ? std::vector<rank_t>{0} : std::vector<rank_t>{};
      },
      [&](rank_t r, std::vector<Letter<float>>&& inbox) {
        if (r != 1) return;
        for (const auto& letter : inbox) got.push_back(letter.packet.values[0]);
      });
  return got;
}

/// A round in which nobody sends or waits.
template <typename Engine>
void idle_round(Engine& engine, std::uint16_t layer) {
  engine.round(
      Phase::kReduceDown, layer,
      [](rank_t) { return std::vector<Letter<float>>{}; },
      [](rank_t) { return std::vector<rank_t>{}; },
      [](rank_t, std::vector<Letter<float>>&&) {});
}

TYPED_TEST(EngineContract, DeliversAllToAll) {
  auto engine = TypeParam::make(4);
  EXPECT_EQ(run_all_to_all(*engine), (std::vector<int>{60, 60, 60, 60}));
}

TYPED_TEST(EngineContract, RecordsTraceEvents) {
  Trace trace;
  auto engine = TypeParam::make(3, nullptr, &trace);
  run_all_to_all(*engine);
  // Self-messages are traced too (Fig. 5), in (src, production) order.
  std::vector<Event> expected;
  for (rank_t src = 0; src < 3; ++src) {
    for (rank_t dst = 0; dst < 3; ++dst) {
      expected.emplace_back(Phase::kConfig, 1, src, dst,
                            kPacketHeaderBytes + sizeof(float));
    }
  }
  EXPECT_EQ(events_of(trace), expected);
}

TYPED_TEST(EngineContract, ChargesTiming) {
  NetworkModel net;
  TimingAccumulator timing(3, net, ComputeModel{}, 1);
  auto engine = TypeParam::make(3, nullptr, nullptr, &timing);
  run_all_to_all(*engine);
  EXPECT_GT(timing.times().config, 0.0);
  engine->charge_compute(Phase::kConfig, 1, 0, 1.0);
  EXPECT_GT(timing.times().config, 1.0);
}

TYPED_TEST(EngineContract, DeadNodesNeitherSendNorReceive) {
  FailureModel failures(4);
  failures.kill(2);
  auto engine = TypeParam::make(4, &failures);
  EXPECT_TRUE(engine->is_dead(2));
  EXPECT_TRUE(engine->has_failed());
  // Node 2 (value 20) contributed nothing; node 2 consumed nothing.
  EXPECT_EQ(run_all_to_all(*engine), (std::vector<int>{40, 40, 0, 40}));
  EXPECT_EQ(engine->dropped_messages(), 3u);  // one per live sender
}

TYPED_TEST(EngineContract, SendToDeadNodeStillCostsTheSender) {
  FailureModel failures(2);
  failures.kill(1);
  Trace trace;
  auto engine = TypeParam::make(2, &failures, &trace);
  CountingObserver observer;
  engine->set_observer(&observer);
  run_all_to_all(*engine);
  // Node 0 sent to itself and to dead node 1: both traced.
  EXPECT_EQ(trace.num_messages(), 2u);
  EXPECT_EQ(observer.messages, 2);
  EXPECT_EQ(observer.drops, 1);
  EXPECT_EQ(engine->dropped_messages(), 1u);
}

TYPED_TEST(EngineContract, LetterToInvalidRankThrows) {
  auto engine = TypeParam::make(2);
  const auto bad_produce = [&](rank_t r) {
    std::vector<Letter<float>> letters(1);
    letters[0].src = r;
    letters[0].dst = 7;
    return letters;
  };
  const auto expected = [](rank_t) { return std::vector<rank_t>{}; };
  const auto consume = [](rank_t, std::vector<Letter<float>>&&) {};
  expect_check_message(
      [&] { engine->round(Phase::kConfig, 1, bad_produce, expected, consume); },
      "letter to invalid rank");
}

TYPED_TEST(EngineContract, InboxArrivesSortedBySource) {
  auto engine = TypeParam::make(5);
  std::vector<rank_t> senders;
  engine->round(
      Phase::kReduceDown, 2,
      [&](rank_t r) {
        std::vector<Letter<float>> letters(1);
        letters[0].src = r;
        letters[0].dst = 0;
        return letters;
      },
      [&](rank_t r) {
        return r == 0 ? std::vector<rank_t>{0, 1, 2, 3, 4}
                      : std::vector<rank_t>{};
      },
      [&](rank_t r, std::vector<Letter<float>>&& inbox) {
        if (r != 0) {
          EXPECT_TRUE(inbox.empty());
          return;
        }
        for (const auto& letter : inbox) senders.push_back(letter.src);
      });
  EXPECT_EQ(senders, (std::vector<rank_t>{0, 1, 2, 3, 4}));
}

TYPED_TEST(EngineContract, FailureModelMustCoverEngineRanks) {
  // FailureModel::is_dead answers false out of range, so an undersized
  // model would silently make uncovered ranks immortal; the constructor
  // rejects it instead.
  FailureModel small(3);
  expect_check_message([&] { (void)TypeParam::make(4, &small); },
                       "FailureModel covers fewer ranks");
  FailureModel exact(4);
  EXPECT_EQ(TypeParam::make(4, &exact)->num_ranks(), 4u);
}

TYPED_TEST(EngineContract, FaultPlanMustCoverEngineRanks) {
  auto engine = TypeParam::make(4);
  FaultPlan small(3);
  FaultChannel<float> channel(&small);
  expect_check_message([&] { engine->set_fault_channel(&channel); },
                       "FaultPlan covers fewer ranks");
}

TYPED_TEST(EngineContract, DuplicateIsChargedTwiceButDeliveredOnce) {
  FaultPlan plan(2);
  plan.add_edge_rule({.src = 0, .dst = 1, .action = FaultAction::kDuplicate});
  FaultChannel<float> channel(&plan);
  Trace trace;
  auto engine = TypeParam::make(2, nullptr, &trace);
  engine->set_fault_channel(&channel);
  CountingObserver observer;
  engine->set_observer(&observer);

  EXPECT_EQ(send_0_to_1(*engine, 1, 5.0f), (std::vector<float>{5.0f}));
  const Event copy{Phase::kReduceDown, 1, 0, 1,
                   kPacketHeaderBytes + sizeof(float)};
  EXPECT_EQ(events_of(trace), (std::vector<Event>{copy, copy}));
  EXPECT_EQ(observer.messages, 2);
  EXPECT_EQ(observer.faults, 1);
  EXPECT_EQ(plan.stats().duplicated, 1u);
}

// A delayed letter skips rounds of other signatures and comes back at the
// next {kReduceDown, 1}; there the fresh letter is dropped, so the delayed
// copy fills its slot.
TYPED_TEST(EngineContract, DelayedLetterIsRedeliveredAtTheSameSignature) {
  FaultPlan plan(2);
  plan.add_edge_rule({.src = 0, .dst = 1, .action = FaultAction::kDelay});
  plan.add_edge_rule({.src = 0, .dst = 1, .action = FaultAction::kDrop});
  FaultChannel<float> channel(&plan);
  auto engine = TypeParam::make(2);
  engine->set_fault_channel(&channel);
  CountingObserver observer;
  engine->set_observer(&observer);

  EXPECT_TRUE(send_0_to_1(*engine, 1, 5.0f).empty());
  EXPECT_EQ(channel.pending_delayed(), 1u);
  idle_round(*engine, 2);
  EXPECT_EQ(channel.pending_delayed(), 1u);
  EXPECT_EQ(send_0_to_1(*engine, 1, 7.0f), (std::vector<float>{5.0f}));
  EXPECT_EQ(channel.pending_delayed(), 0u);
  EXPECT_EQ(channel.redelivered(), 1u);
  EXPECT_EQ(channel.stale(), 0u);
  EXPECT_EQ(observer.redelivered, 1);
  EXPECT_EQ(observer.faults, 2);
  EXPECT_EQ(observer.begins, 3);
  EXPECT_EQ(observer.ends, 3);
}

TYPED_TEST(EngineContract, DelayedLetterIsStaleWhenItsSlotWasRefilled) {
  FaultPlan plan(2);
  plan.add_edge_rule({.src = 0, .dst = 1, .action = FaultAction::kDelay});
  FaultChannel<float> channel(&plan);
  auto engine = TypeParam::make(2);
  engine->set_fault_channel(&channel);
  CountingObserver observer;
  engine->set_observer(&observer);

  EXPECT_TRUE(send_0_to_1(*engine, 1, 5.0f).empty());
  EXPECT_EQ(send_0_to_1(*engine, 1, 7.0f), (std::vector<float>{7.0f}));
  EXPECT_EQ(channel.stale(), 1u);
  EXPECT_EQ(channel.redelivered(), 0u);
  EXPECT_EQ(observer.stale, 1);
}

TYPED_TEST(EngineContract, DelayedLetterIsStaleWhenItsDestinationDied) {
  FaultPlan plan(2);
  plan.add_edge_rule({.src = 0, .dst = 1, .action = FaultAction::kDelay});
  plan.crash_at(1, Phase::kReduceDown, 1, /*occurrence=*/1);
  FaultChannel<float> channel(&plan);
  auto engine = TypeParam::make(2);
  engine->set_fault_channel(&channel);
  CountingObserver observer;
  engine->set_observer(&observer);

  EXPECT_TRUE(send_0_to_1(*engine, 1, 5.0f).empty());
  EXPECT_TRUE(send_0_to_1(*engine, 1, 7.0f).empty());
  EXPECT_TRUE(engine->is_dead(1));
  EXPECT_EQ(engine->dropped_messages(), 1u);  // the fresh 7 to dead rank 1
  EXPECT_EQ(channel.stale(), 1u);
  EXPECT_EQ(channel.redelivered(), 0u);
  EXPECT_EQ(observer.stale, 1);
}

// An engine without its own FailureModel reads the attached plan's; it must
// follow the channel across re-attach and detach, never the plan it was
// first given (which may be gone).
TYPED_TEST(EngineContract, FaultChannelAdoptionFollowsTheChannel) {
  auto engine = TypeParam::make(4);
  {
    auto plan_a = std::make_unique<FaultPlan>(4);
    plan_a->failures().kill(1);
    FaultChannel<float> channel_a(plan_a.get());
    engine->set_fault_channel(&channel_a);
    EXPECT_TRUE(engine->is_dead(1));
  }
  FaultPlan plan_b(4);
  FaultChannel<float> channel_b(&plan_b);
  engine->set_fault_channel(&channel_b);
  EXPECT_FALSE(engine->is_dead(1));
  EXPECT_FALSE(engine->has_failed());
  engine->set_fault_channel(nullptr);
  EXPECT_FALSE(engine->is_dead(1));
}

TYPED_TEST(EngineContract, OwnFailureModelOutlivesAttachAndDetach) {
  FailureModel own(4);
  own.kill(2);
  auto engine = TypeParam::make(4, &own);
  FaultPlan plan(4);
  plan.failures().kill(1);
  FaultChannel<float> channel(&plan);
  engine->set_fault_channel(&channel);
  EXPECT_TRUE(engine->is_dead(2));
  EXPECT_FALSE(engine->is_dead(1));
  engine->set_fault_channel(nullptr);
  EXPECT_TRUE(engine->is_dead(2));
}

TEST(ReplicatedFaultChannel, AdoptionFollowsTheChannel) {
  const rank_t m = 4;
  ReplicatedBsp<float> engine(m, 2);
  {
    auto plan_a = std::make_unique<FaultPlan>(2 * m);
    plan_a->failures().kill(1);
    plan_a->failures().kill(1 + m);  // the whole replica group of 1
    FaultChannel<float> channel_a(plan_a.get());
    engine.set_fault_channel(&channel_a);
    EXPECT_TRUE(engine.is_dead(1));
  }
  FaultPlan plan_b(2 * m);
  FaultChannel<float> channel_b(&plan_b);
  engine.set_fault_channel(&channel_b);
  EXPECT_FALSE(engine.is_dead(1));
  EXPECT_FALSE(engine.has_failed());
  engine.set_fault_channel(nullptr);
  EXPECT_FALSE(engine.is_dead(1));
}

// ---- A round whose callback throws, on every engine ----

template <typename Policy>
class EngineFailedRound : public ::testing::Test {
 protected:
  static constexpr rank_t kRanks = 2;

  EngineFailedRound()
      : timing_(kRanks * Policy::kReplicas, idle_net(), ComputeModel{}, 1),
        engine_(Policy::make(kRanks, nullptr, nullptr, &timing_)) {}

  /// No latency, so a round's modeled time is exactly its charges.
  static NetworkModel idle_net() {
    NetworkModel net;
    net.base_latency_s = 0;
    return net;
  }

  /// A charge made outside any round must reach the accumulator at once.
  void expect_out_of_round_charge_lands(std::uint16_t layer) {
    engine_->charge_compute(Phase::kReduceUp, layer, 0, 2.0);
    EXPECT_EQ(timing_.round_time(Phase::kReduceUp, layer), 2.0);
  }

  /// A clean round at {config, 1} in which every rank sends itself r + 1
  /// (self-letters cost no modeled time) and charges 0.25 s; it must
  /// deliver exactly its own letters and charges.
  void expect_clean_round() {
    std::vector<float> sums(kRanks, 0.0f);
    engine_->round(
        Phase::kConfig, 1,
        [&](rank_t r) {
          std::vector<Letter<float>> letters(1);
          letters[0].src = r;
          letters[0].dst = r;
          letters[0].packet.values = {static_cast<float>(r + 1)};
          return letters;
        },
        [&](rank_t r) { return std::vector<rank_t>{r}; },
        [&](rank_t r, std::vector<Letter<float>>&& inbox) {
          for (const auto& letter : inbox) sums[r] += letter.packet.values[0];
          engine_->charge_compute(Phase::kConfig, 1, r, 0.25);
        });
    EXPECT_EQ(sums, (std::vector<float>{1.0f, 2.0f}));
    EXPECT_EQ(timing_.round_time(Phase::kConfig, 1), 0.25);
  }

  TimingAccumulator timing_;
  std::unique_ptr<typename Policy::Engine> engine_;
};

using AllEngines = ::testing::Types<ParallelAt<1>, ParallelAt<4>,
                                    ReplicatedAt<1>, ReplicatedAt<4>>;
TYPED_TEST_SUITE(EngineFailedRound, AllEngines);

// Rank 1's produce throws after rank 0 staged a letter for it: the error
// reaches the caller, and the staged letter never arrives later.
TYPED_TEST(EngineFailedRound, ThrowingProduceKeepsEngineUsable) {
  auto& engine = *this->engine_;
  EXPECT_THROW(
      engine.round(
          Phase::kReduceDown, 1,
          [&](rank_t r) {
            if (r == 1) throw check_error("boom");
            std::vector<Letter<float>> letters(1);
            letters[0].src = 0;
            letters[0].dst = 1;
            letters[0].packet.values = {100.0f};
            return letters;
          },
          [&](rank_t) { return std::vector<rank_t>{0}; },
          [&](rank_t, std::vector<Letter<float>>&&) {}),
      check_error);
  this->expect_out_of_round_charge_lands(1);
  this->expect_clean_round();
  this->expect_out_of_round_charge_lands(2);
}

// Rank 1's consume throws while rank 0 charges 1 s: that charge belongs to
// a round that failed, so it never lands, and charges made after the round
// reach the accumulator at once instead of being buffered.
TYPED_TEST(EngineFailedRound, ThrowingConsumeChargesNothing) {
  auto& engine = *this->engine_;
  EXPECT_THROW(
      engine.round(
          Phase::kReduceDown, 1,
          [&](rank_t) { return std::vector<Letter<float>>{}; },
          [&](rank_t) { return std::vector<rank_t>{}; },
          [&](rank_t r, std::vector<Letter<float>>&&) {
            if (r == 1) throw check_error("boom");
            engine.charge_compute(Phase::kReduceDown, 1, r, 1.0);
          }),
      check_error);
  this->expect_out_of_round_charge_lands(1);
  this->expect_clean_round();
  EXPECT_EQ(this->timing_.round_time(Phase::kReduceDown, 1), 0.0);
  this->expect_out_of_round_charge_lands(2);
}

}  // namespace
}  // namespace kylix
