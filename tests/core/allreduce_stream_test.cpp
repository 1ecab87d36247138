// Streaming packetized reduction (DESIGN §9): wire-frame header accounting,
// compiled chunk sizes, the pipelined timing model, and — the core contract
// — bit-identity of streamed replay against letter-at-once delivery on the
// plain and the replicated engine, for float and double, plain and strided,
// across seeds. Streamed combining is eager but ordered: the engine sorts
// each inbox by (src, chunk_index) before consume, so the per-position op
// order is the letter-at-once order no matter how chunks were delivered.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <vector>

#include "cluster/timing.hpp"
#include "comm/parallel.hpp"
#include "comm/replicated.hpp"
#include "core/allreduce.hpp"
#include "test_util.hpp"

namespace kylix {
namespace {

using testing::random_workload;

// ---- Wire-frame accounting (satellite: per-chunk header cost) -------------

TEST(WireFrames, OneHeaderPerFrame) {
  EXPECT_EQ(wire_frames(0), 1u);
  EXPECT_EQ(wire_frames(1), 1u);
  EXPECT_EQ(wire_frames(kWireFrameBytes), 1u);
  EXPECT_EQ(wire_frames(kWireFrameBytes + 1), 2u);
  EXPECT_EQ(wire_frames(2 * kWireFrameBytes), 2u);
  EXPECT_EQ(wire_frames(2 * kWireFrameBytes + 1), 3u);
}

TEST(WireFrames, OversizedLetterPaysPerFrameHeaders) {
  Packet<float> p;
  p.values.resize(2 * (kWireFrameBytes / sizeof(float)) + 1);
  const std::uint64_t payload = p.payload_bytes();
  ASSERT_GT(payload, 2 * kWireFrameBytes);
  EXPECT_EQ(p.wire_bytes(), 3 * kPacketHeaderBytes + payload);
}

TEST(WireFrames, LetterSplitIntoKChunksIsChargedKHeaders) {
  Packet<float> whole;
  whole.values.resize(1024);
  EXPECT_EQ(whole.wire_bytes(), kPacketHeaderBytes + whole.payload_bytes());

  constexpr std::uint32_t k = 4;
  std::uint64_t split_wire = 0;
  std::uint64_t split_payload = 0;
  for (std::uint32_t c = 0; c < k; ++c) {
    Packet<float> chunk;
    chunk.chunk_index = c;
    chunk.chunk_count = k;
    chunk.values.resize(1024 / k);
    split_wire += chunk.wire_bytes();
    split_payload += chunk.payload_bytes();
  }
  EXPECT_EQ(split_payload, whole.payload_bytes());
  EXPECT_EQ(split_wire, whole.payload_bytes() + k * kPacketHeaderBytes);
}

// ---- Compiled chunk schedule ----------------------------------------------

TEST(StreamPlan, ChunkBytesCompileFromTheNetworkModel) {
  const Topology topo({2, 2});
  const auto w = random_workload<float>(4, 80, 0.3, 0.4, 7);
  ParallelBspEngine<float> engine(4, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> ar(&engine, topo);

  // No network model: no chunk schedule is compiled in.
  auto plan = ar.compile(w.in_sets, w.out_sets);
  EXPECT_EQ(plan->chunk_bytes(), 0u);

  const NetworkModel net = NetworkModel::ec2_like();
  ar.set_network(&net);
  plan = ar.compile(w.in_sets, w.out_sets);
  EXPECT_EQ(plan->chunk_bytes(),
            static_cast<std::uint64_t>(net.min_efficient_packet()));

  // The tuning override beats the compiled value; 0 restores it.
  ar.set_chunk_bytes(4096);
  plan = ar.compile(w.in_sets, w.out_sets);
  EXPECT_EQ(plan->chunk_bytes(), 4096u);
  ar.set_chunk_bytes(0);
  plan = ar.compile(w.in_sets, w.out_sets);
  EXPECT_EQ(plan->chunk_bytes(),
            static_cast<std::uint64_t>(net.min_efficient_packet()));
}

// ---- Pipelined timing model -----------------------------------------------

TEST(PipelinedTiming, DegeneratesToBarrieredSumAndApproachesBottleneck) {
  const NetworkModel net = NetworkModel::ec2_like();
  TimingAccumulator timing(4, net, ComputeModel{}, 1);
  timing.on_message({Phase::kConfig, 1, 0, 1, 1u << 16});  // excluded
  timing.on_message({Phase::kReduceDown, 1, 0, 1, 4u << 20});
  timing.on_message({Phase::kReduceDown, 2, 1, 2, 8u << 20});  // bottleneck
  timing.on_message({Phase::kReduceUp, 1, 2, 3, 2u << 20});

  // k = 1 barriers every stage: the reduce-phase sum, base latency once per
  // pipeline instead of once per round.
  const double k1 = timing.pipelined_reduce_time(1);
  EXPECT_NEAR(k1, timing.times().reduce() - 2 * net.base_latency_s, 1e-12);

  // Monotone non-increasing in k, bounded below by the bottleneck stage.
  const double bottleneck =
      timing.round_time(Phase::kReduceDown, 2) - net.base_latency_s;
  double prev = k1;
  for (std::uint32_t k : {2u, 4u, 8u, 64u, 1024u}) {
    const double t = timing.pipelined_reduce_time(k);
    EXPECT_LE(t, prev) << "k = " << k;
    EXPECT_GE(t, bottleneck + net.base_latency_s) << "k = " << k;
    prev = t;
  }
  EXPECT_NEAR(timing.pipelined_reduce_time(1 << 20),
              bottleneck + net.base_latency_s, bottleneck * 1e-3);
}

// ---- Bit-identity fuzz: streamed == letter-at-once, all engines -----------

template <typename Engine, typename V>
std::vector<std::vector<V>> run_once(const Topology& topo,
                                     const testing::Workload<V>& w,
                                     const std::vector<std::vector<V>>& values,
                                     std::uint32_t stride,
                                     std::uint64_t chunk_bytes,
                                     StreamStats* stats = nullptr) {
  const rank_t m = topo.num_machines();
  std::unique_ptr<Engine> engine;
  if constexpr (std::is_same_v<Engine, ReplicatedBsp<V>>) {
    engine = std::make_unique<Engine>(m, 2);
  } else {
    engine = std::make_unique<Engine>(m);
  }
  SparseAllreduce<V, OpSum, Engine> ar(engine.get(), topo);
  ar.set_streaming(chunk_bytes != 0);
  ar.set_chunk_bytes(chunk_bytes);
  ar.configure(w.in_sets, w.out_sets);
  auto results =
      stride <= 1 ? ar.reduce(values) : ar.reduce_strided(values, stride);
  if (stats != nullptr) *stats = ar.stream_stats();
  return results;
}

template <typename V>
void fuzz_engines(std::uint64_t seed) {
  static const std::vector<std::vector<std::uint32_t>> schedules = {
      {}, {2}, {2, 2}, {3, 2}, {2, 2, 2}};
  const Topology topo(schedules[seed % schedules.size()]);
  const rank_t m = topo.num_machines();
  const auto w = random_workload<V>(m, 40 + 7 * (seed % 9), 0.25, 0.4,
                                    900 + seed);
  // Tiny chunks so nearly every letter splits; varies per seed to cover
  // exact-fit, one-position, and ragged-tail chunkings.
  const std::uint64_t chunk = 32 + 16 * (seed % 5);

  for (const std::uint32_t stride : {1u, 3u}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    std::vector<std::vector<V>> values(m);
    for (rank_t r = 0; r < m; ++r) {
      values[r].resize(w.out_values[r].size() * stride);
      for (std::size_t p = 0; p < w.out_values[r].size(); ++p) {
        for (std::uint32_t c = 0; c < stride; ++c) {
          values[r][p * stride + c] = w.out_values[r][p] + static_cast<V>(c);
        }
      }
    }

    const auto check = [&](const char* name, const auto& letter,
                           const auto& streamed, const StreamStats& stats) {
      SCOPED_TRACE(name);
      EXPECT_EQ(streamed, letter) << "streamed replay diverged";
      EXPECT_TRUE(stats.streamed);
      EXPECT_GE(stats.chunks, stats.letters);
      if (stride == 1) testing::expect_matches_oracle<V>(w, letter);
    };

    StreamStats stats;
    {
      const auto letter =
          run_once<ParallelBspEngine<V>, V>(topo, w, values, stride, 0);
      const auto streamed = run_once<ParallelBspEngine<V>, V>(
          topo, w, values, stride, chunk, &stats);
      check("parallel", letter, streamed, stats);
    }
    {
      const auto letter =
          run_once<ReplicatedBsp<V>, V>(topo, w, values, stride, 0);
      const auto streamed = run_once<ReplicatedBsp<V>, V>(
          topo, w, values, stride, chunk, &stats);
      check("replicated", letter, streamed, stats);
    }
  }
}

class StreamBitIdentityFuzzTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamBitIdentityFuzzTest, StreamedEqualsLetterAtOnceEverywhere) {
  fuzz_engines<float>(GetParam());
  fuzz_engines<double>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamBitIdentityFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 25));

// ---- Buffer envelopes and stream telemetry --------------------------------

TEST(StreamEnvelope, StreamedPeakIsBoundedByTheLetterPeak) {
  const Topology topo({2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 3000, 0.2, 0.3, 31);

  StreamStats letter;
  (void)run_once<ParallelBspEngine<float>, float>(topo, w, w.out_values, 1, 0,
                                                  &letter);
  EXPECT_FALSE(letter.streamed);
  EXPECT_GT(letter.peak_letter_buffer_bytes, 0u);
  // Letter-at-once has no chunk discipline: its "stream" envelope is the
  // full inbox too.
  EXPECT_EQ(letter.peak_stream_buffer_bytes, letter.peak_letter_buffer_bytes);
  EXPECT_EQ(letter.max_chunks_per_letter, 1u);
  EXPECT_EQ(letter.chunks, letter.letters);

  StreamStats streamed;
  (void)run_once<ParallelBspEngine<float>, float>(topo, w, w.out_values, 1, 512,
                                                  &streamed);
  EXPECT_TRUE(streamed.streamed);
  EXPECT_EQ(streamed.chunk_bytes, 512u);
  EXPECT_GT(streamed.max_chunks_per_letter, 1u);
  EXPECT_GT(streamed.chunks, streamed.letters);
  EXPECT_GT(streamed.blocks_flushed, 0u);
  EXPECT_GE(streamed.overlap_ratio(), 0.0);
  EXPECT_LE(streamed.overlap_ratio(), 1.0);
  // The envelope win the streaming mode exists for: one in-flight chunk per
  // in-edge instead of whole inboxes.
  EXPECT_LT(streamed.peak_stream_buffer_bytes,
            streamed.peak_letter_buffer_bytes);
  // Same workload, same letters: the letter envelope itself must agree
  // (modulo nothing — both runs deliver identical logical letters).
  EXPECT_EQ(streamed.peak_letter_buffer_bytes,
            letter.peak_letter_buffer_bytes);
}

TEST(StreamEnvelope, HalvingTheChunkDoublesTheSplit) {
  const Topology topo({4});
  const auto w = random_workload<float>(4, 200, 0.9, 0.9, 41);
  StreamStats coarse;
  (void)run_once<ParallelBspEngine<float>, float>(topo, w, w.out_values, 1,
                                                  64 * sizeof(float), &coarse);
  StreamStats fine;
  (void)run_once<ParallelBspEngine<float>, float>(topo, w, w.out_values, 1,
                                                  32 * sizeof(float), &fine);
  EXPECT_TRUE(coarse.streamed);
  EXPECT_TRUE(fine.streamed);
  EXPECT_EQ(fine.letters, coarse.letters);  // same schedule, same edges
  EXPECT_GT(fine.chunks, coarse.chunks);
  EXPECT_GE(fine.max_chunks_per_letter,
            2 * coarse.max_chunks_per_letter - 1);
  EXPECT_LE(fine.peak_stream_buffer_bytes, coarse.peak_stream_buffer_bytes);
}

// Streaming through an adopted (cache-served) plan behaves identically: the
// chunk schedule rides on the plan, the toggle on the executor.
TEST(StreamPlan, AdoptedPlanReplayStreamsBitIdentically) {
  const Topology topo({2, 2});
  const rank_t m = topo.num_machines();
  const auto w = random_workload<float>(m, 500, 0.2, 0.3, 53);

  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> compiler(
      &engine, topo);
  const auto plan = compiler.compile(w.in_sets, w.out_sets);
  const auto letter = compiler.reduce(w.out_values);

  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> replayer(
      &engine, topo);
  replayer.set_streaming(true);
  replayer.set_chunk_bytes(128);  // 32 positions: ~50-position pieces split
  replayer.configure(plan);
  const auto streamed = replayer.reduce(w.out_values);
  EXPECT_EQ(streamed, letter);
  EXPECT_TRUE(replayer.stream_stats().streamed);
  EXPECT_GT(replayer.stream_stats().max_chunks_per_letter, 1u);
}

}  // namespace
}  // namespace kylix
