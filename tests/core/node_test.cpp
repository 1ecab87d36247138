// White-box tests of the KylixNode layer structure — the §III-A invariants
// that make the nested butterfly work.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "comm/parallel.hpp"
#include "core/allreduce.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;
using Allreduce = SparseAllreduce<float, OpSum, ParallelBspEngine<float>>;

struct Configured {
  Topology topo{{}};
  ParallelBspEngine<float> engine;
  Allreduce allreduce;
  testing::Workload<float> workload;

  explicit Configured(std::vector<std::uint32_t> degrees,
                      double out_prob = 0.3)
      : topo(std::move(degrees)),
        engine(topo.num_machines()),
        allreduce(&engine, topo),
        workload(random_workload<float>(topo.num_machines(), 150, out_prob,
                                        0.4, 321)) {
    allreduce.configure(workload.in_sets, workload.out_sets);
  }
};

/// The engine interface configure uses, forwarded to a one-thread
/// ParallelBspEngine, with round()'s produce callback wrapped to record
/// every key a rank sends in a config round (as kylix_bench's TimedEngine
/// wraps it to time the callback).
class SendLog {
 public:
  struct Sent {
    std::uint16_t layer;
    rank_t src;
    rank_t dst;
    std::vector<key_t> keys;  ///< in keys, then out keys
  };

  explicit SendLog(rank_t m) : inner_(m, 1) {}

  [[nodiscard]] rank_t num_ranks() const { return inner_.num_ranks(); }
  [[nodiscard]] bool is_dead(rank_t r) const { return inner_.is_dead(r); }
  void charge_compute(Phase phase, std::uint16_t layer, rank_t rank,
                      double seconds) {
    inner_.charge_compute(phase, layer, rank, seconds);
  }
  void charge_intra(Phase phase, rank_t rank, double seconds) {
    inner_.charge_intra(phase, rank, seconds);
  }
  template <typename Fn>
  void intra_round(Phase phase, rank_t tasks, Fn&& fn) {
    inner_.intra_round(phase, tasks, std::forward<Fn>(fn));
  }
  template <typename ProduceFn, typename ExpectedFn, typename ConsumeFn>
  void round(Phase phase, std::uint16_t layer, ProduceFn&& produce,
             ExpectedFn&& expected, ConsumeFn&& consume) {
    inner_.round(
        phase, layer,
        [&](rank_t r) -> decltype(produce(r)) {
          decltype(produce(r)) letters = produce(r);
          for (const Letter<float>& letter : letters) {
            if (phase != Phase::kConfig) continue;
            Sent sent{layer, letter.src, letter.dst, letter.packet.in_keys};
            sent.keys.insert(sent.keys.end(), letter.packet.out_keys.begin(),
                             letter.packet.out_keys.end());
            sent_.push_back(std::move(sent));
          }
          return letters;
        },
        std::forward<ExpectedFn>(expected), std::forward<ConsumeFn>(consume));
  }

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }

 private:
  ParallelBspEngine<float> inner_;  ///< one thread: produce runs inline
  std::vector<Sent> sent_;
};

TEST(KylixNode, LayerSetsStayInsideTheNodesKeyRange) {
  // Config round i carries the senders' node-layer i-1 sets, cut by the
  // receivers' node-layer i ranges; the node keeps layers 0 and l.
  const Topology topo({4, 2});
  const auto w = random_workload<float>(topo.num_machines(), 150, 0.3, 0.4,
                                        321);
  SendLog engine(topo.num_machines());
  SparseAllreduce<float, OpSum, SendLog> allreduce(&engine, topo);
  allreduce.configure(w.in_sets, w.out_sets);
  std::vector<std::size_t> keys_per_round(topo.num_layers() + 1, 0);
  for (const SendLog::Sent& sent : engine.sent()) {
    const KeyRange from = topo.key_range(sent.layer - 1, sent.src);
    const KeyRange to = topo.key_range(sent.layer, sent.dst);
    for (const key_t k : sent.keys) {
      EXPECT_TRUE(from.contains(k))
          << "rank " << sent.src << " layer " << sent.layer - 1;
      EXPECT_TRUE(to.contains(k))
          << "rank " << sent.dst << " layer " << sent.layer;
    }
    keys_per_round[sent.layer] += sent.keys.size();
  }
  for (std::uint16_t layer = 1; layer <= topo.num_layers(); ++layer) {
    EXPECT_GT(keys_per_round[layer], 0u) << "round " << layer;
  }
  for (rank_t r = 0; r < topo.num_machines(); ++r) {
    for (const std::uint16_t layer : {std::uint16_t{0}, topo.num_layers()}) {
      const KeyRange range = topo.key_range(layer, r);
      for (key_t k : allreduce.node(r).out_set(layer)) {
        EXPECT_TRUE(range.contains(k)) << "rank " << r << " layer " << layer;
      }
      for (key_t k : allreduce.node(r).in_set(layer)) {
        EXPECT_TRUE(range.contains(k));
      }
    }
  }
}

TEST(KylixNode, IntermediateLayerSetsPointToThePlanSizes) {
  Configured c({4, 2, 2});
  const std::uint16_t l = c.topo.num_layers();
  for (const rank_t r : {rank_t{0}, rank_t{7}}) {
    for (std::uint16_t layer = 1; layer < l; ++layer) {
      for (const bool in : {true, false}) {
        try {
          const KylixNode<float>& node = c.allreduce.node(r);
          (void)(in ? node.in_set(layer) : node.out_set(layer));
          ADD_FAILURE() << "node layer " << layer << " set was readable";
        } catch (const check_error& e) {
          EXPECT_NE(std::string(e.what()).find("RankPlan::in_sizes"),
                    std::string::npos)
              << e.what();
        }
      }
    }
    EXPECT_NO_THROW((void)c.allreduce.node(r).in_set(0));
    EXPECT_NO_THROW((void)c.allreduce.node(r).out_set(l));
  }
}

TEST(KylixNode, BottomOutSetsPartitionTheGlobalUnion) {
  Configured c({2, 2, 2});
  const auto totals = testing::brute_force_totals<float>(c.workload);
  std::map<key_t, int> owners;
  const std::uint16_t l = c.topo.num_layers();
  for (rank_t r = 0; r < c.topo.num_machines(); ++r) {
    for (key_t k : c.allreduce.node(r).out_set(l)) {
      ++owners[k];
    }
  }
  // Every contributed key lands on exactly one bottom node.
  EXPECT_EQ(owners.size(), totals.size());
  for (const auto& [key, count] : owners) {
    EXPECT_EQ(count, 1) << "key " << key;
    EXPECT_TRUE(totals.contains(key));
  }
}

TEST(KylixNode, BottomInSetsAreSubsetsOfBottomOutSets) {
  Configured c({4, 2});
  const std::uint16_t l = c.topo.num_layers();
  for (rank_t r = 0; r < c.topo.num_machines(); ++r) {
    EXPECT_TRUE(c.allreduce.node(r).in_set(l).subset_of(
        c.allreduce.node(r).out_set(l)));
  }
}

TEST(KylixNode, LayerZeroSetsAreTheUserSets) {
  Configured c({2, 2});
  for (rank_t r = 0; r < c.topo.num_machines(); ++r) {
    EXPECT_EQ(c.allreduce.node(r).in_set(0), c.workload.in_sets[r]);
    EXPECT_EQ(c.allreduce.node(r).out_set(0), c.workload.out_sets[r]);
  }
}

TEST(KylixNode, ExpectedSendersAreTheLayerGroup) {
  Configured c({4, 2});
  for (rank_t r = 0; r < c.topo.num_machines(); ++r) {
    for (std::uint16_t layer = 1; layer <= c.topo.num_layers(); ++layer) {
      EXPECT_EQ(c.allreduce.node(r).expected(layer),
                c.topo.group(layer, r));
    }
  }
}

TEST(KylixNode, TotalLayerElementsNeverGrowOnOverlappingData) {
  // Σ_nodes |out^i| is non-increasing in i: collisions only collapse.
  Configured c({4, 2, 2}, /*out_prob=*/0.5);
  const std::uint16_t l = c.topo.num_layers();
  std::size_t previous = static_cast<std::size_t>(-1);
  for (std::uint16_t layer = 0; layer <= l; ++layer) {
    std::size_t total = 0;
    for (rank_t r = 0; r < c.topo.num_machines(); ++r) {
      total += c.allreduce.plan()->rank_plan(r).out_sizes[layer];
    }
    EXPECT_LE(total, previous) << "layer " << layer;
    previous = total;
  }
}

TEST(KylixNode, CombinedModeProducesIdenticalResultsToSeparate) {
  const Topology topo({4, 2});
  const auto w = random_workload<float>(topo.num_machines(), 120, 0.3, 0.4,
                                        654);
  std::vector<std::vector<float>> separate;
  {
    ParallelBspEngine<float> engine(topo.num_machines(), 1);
    Allreduce ar(&engine, topo);
    ar.configure(w.in_sets, w.out_sets);
    separate = ar.reduce(w.out_values);
  }
  std::vector<std::vector<float>> combined;
  {
    ParallelBspEngine<float> engine(topo.num_machines(), 1);
    Allreduce ar(&engine, topo);
    combined = ar.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
  }
  EXPECT_EQ(combined, separate);
}

TEST(KylixNode, CombinedModeSavesTheDownwardValuePass) {
  const Topology topo({4, 2});
  const auto w = random_workload<float>(topo.num_machines(), 120, 0.3, 0.4,
                                        654);
  Trace separate_trace;
  {
    ParallelBspEngine<float> engine(topo.num_machines(), 1, nullptr,
                                    &separate_trace);
    Allreduce ar(&engine, topo);
    ar.configure(w.in_sets, w.out_sets);
    (void)ar.reduce(w.out_values);
  }
  Trace combined_trace;
  {
    ParallelBspEngine<float> engine(topo.num_machines(), 1, nullptr,
                                    &combined_trace);
    Allreduce ar(&engine, topo);
    (void)ar.reduce_with_config(w.in_sets, w.out_sets, w.out_values);
  }
  // A third fewer messages (config + up instead of config + down + up)...
  EXPECT_EQ(combined_trace.num_messages(),
            separate_trace.num_messages() * 2 / 3);
  // ...and strictly fewer bytes (value payloads ride config messages, so
  // only the per-message headers of the down pass disappear).
  EXPECT_LT(combined_trace.total_bytes(), separate_trace.total_bytes());
  // The combined run sends no kReduceDown messages at all.
  EXPECT_TRUE(combined_trace
                  .bytes_by_layer(Phase::kReduceDown, topo.num_layers())
                  .front() == 0);
}

TEST(Packet, WireBytesCountKeysValuesAndHeader) {
  Packet<float> packet;
  EXPECT_EQ(packet.wire_bytes(), kPacketHeaderBytes);
  packet.in_keys = {1, 2, 3};
  packet.out_keys = {4};
  packet.values = {1.0f, 2.0f};
  EXPECT_EQ(packet.wire_bytes(), kPacketHeaderBytes + 8 * 4 + 4 * 2);
  Packet<std::uint64_t> wide;
  wide.values = {1, 2};
  EXPECT_EQ(wide.wire_bytes(), kPacketHeaderBytes + 16);
}

}  // namespace
}  // namespace kylix
