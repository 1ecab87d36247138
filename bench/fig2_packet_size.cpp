// Figure 2 — network throughput vs. packet size on the (modeled) 64-node
// EC2 cluster with 10 Gb/s interconnect, plus the streamed-chunk sweep that
// turns the same curve into an end-to-end operating point.
//
// Paper reading: ~5 MB is the smallest efficient packet; a 0.4 MB packet
// (the Twitter direct-allreduce operating point) reaches only ~30% of the
// rated bandwidth. The first table reports the closed-form utilization
// curve and a replayed 64-node round-robin exchange; they agree by
// construction of the model, and the replay demonstrates the
// TimingAccumulator path end to end.
//
// The second table runs the real streaming executor (DESIGN §9) on the
// scaled twitter-like preset: for each chunk size it replays one streamed
// reduce, records the per-round message counts/bytes chunking actually
// produced, and reports the pipelined reduce time next to the barriered
// time of the same trace and the analytic per-chunk utilization. Small
// chunks buy overlap (k chunks per letter pipelines R rounds down toward
// the bottleneck round) but pay k per-message overheads; large chunks
// degenerate to letter-at-once. The sweep is U-shaped in between — the
// Fig. 2 tradeoff measured through the executor instead of asserted.
#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace kylix;

double replayed_throughput(double packet_bytes, std::uint32_t threads) {
  // One round of a 64-node circular exchange: every node sends one packet
  // of the given size to its successor and receives one from its
  // predecessor (Fig. 1b's schedule, one step).
  constexpr rank_t m = 64;
  TimingAccumulator timing(m, NetworkModel::ec2_like(), ComputeModel{},
                           threads);
  for (rank_t src = 0; src < m; ++src) {
    timing.on_message({Phase::kReduceDown, 1, src,
                       static_cast<rank_t>((src + 1) % m),
                       static_cast<std::uint64_t>(packet_bytes)});
  }
  return packet_bytes / timing.times().reduce_down;
}

struct StreamPoint {
  std::uint64_t chunk_bytes = 0;  ///< 0: letter-at-once baseline
  std::uint32_t max_chunks = 1;
  std::uint64_t chunks_sent = 0;
  double barriered_s = 0;   ///< same trace, every round barriers
  double streamed_s = 0;    ///< pipelined_reduce_time(max_chunks)
  double overlap = 0;
  std::uint64_t peak_stream_bytes = 0;
  std::uint64_t peak_letter_bytes = 0;
};

/// One streamed reduce of the preset at the given chunk size, replayed
/// against the scaled network model. chunk_bytes == 0 runs letter-at-once;
/// stride > 1 interleaves that many payloads (the big-letter regime where
/// letters stand several efficiency knees wide).
StreamPoint run_streamed(const bench::Dataset& data,
                         const Topology& topology,
                         std::uint64_t chunk_bytes,
                         std::uint32_t stride = 1) {
  const NetworkModel net = bench::scaled_network();
  TimingAccumulator timing(topology.num_machines(), net, ComputeModel{},
                           /*threads=*/1);
  ParallelBspEngine<real_t> engine(topology.num_machines(), 1, nullptr, nullptr,
                                   &timing);
  SparseAllreduce<real_t, OpSum, ParallelBspEngine<real_t>> allreduce(
      &engine, topology);
  allreduce.set_streaming(chunk_bytes != 0);
  allreduce.set_chunk_bytes(chunk_bytes);
  allreduce.configure(data.in_sets, data.out_sets);
  if (stride == 1) {
    (void)allreduce.reduce(data.out_values);
  } else {
    std::vector<std::vector<real_t>> interleaved(data.out_values.size());
    for (std::size_t r = 0; r < data.out_values.size(); ++r) {
      interleaved[r].resize(data.out_values[r].size() * stride);
      for (std::size_t p = 0; p < data.out_values[r].size(); ++p) {
        for (std::uint32_t c = 0; c < stride; ++c) {
          interleaved[r][p * stride + c] =
              data.out_values[r][p] + static_cast<real_t>(c);
        }
      }
    }
    (void)allreduce.reduce_strided(interleaved, stride);
  }

  const StreamStats& stats = allreduce.stream_stats();
  StreamPoint point;
  point.chunk_bytes = chunk_bytes;
  point.max_chunks = std::max(1u, stats.max_chunks_per_letter);
  point.chunks_sent = stats.chunks;
  point.barriered_s = timing.pipelined_reduce_time(1);
  point.streamed_s = timing.pipelined_reduce_time(point.max_chunks);
  point.overlap = stats.overlap_ratio();
  point.peak_stream_bytes = stats.peak_stream_buffer_bytes;
  point.peak_letter_bytes = stats.peak_letter_buffer_bytes;
  return point;
}

}  // namespace

int main() {
  const NetworkModel net = NetworkModel::ec2_like();
  std::printf("# Figure 2: throughput vs packet size (64-node EC2 model)\n");
  std::printf("# rated bandwidth: %s/s, min efficient packet (84%%): %s\n",
              format_bytes(net.bandwidth_bytes_per_s).c_str(),
              format_bytes(net.min_efficient_packet(0.84)).c_str());
  std::printf("%-14s %-16s %-14s %-18s\n", "packet", "util_model",
              "gbps_model", "gbps_replayed_1t");
  for (double packet = 64e3; packet <= 64e6; packet *= 2) {
    const double util = net.utilization(packet);
    const double gbps = util * net.bandwidth_bytes_per_s * 8 / 1e9;
    const double replay_gbps = replayed_throughput(packet, 1) * 8 / 1e9;
    std::printf("%-14s %-16.3f %-14.2f %-18.2f\n",
                format_bytes(packet).c_str(), util, gbps, replay_gbps);
  }
  std::printf("\n# paper checkpoints\n");
  std::printf("0.4 MB packet utilization: %.2f (paper: ~0.30)\n",
              net.utilization(0.4e6));
  std::printf("5 MB packet utilization:   %.2f (paper: 'smallest "
              "efficient')\n",
              net.utilization(5e6));

  // The end-to-end sweep: the streaming executor on the scaled twitter-like
  // preset, chunk sizes bracketing the scaled packet floor.
  const NetworkModel scaled = bench::scaled_network();
  const bench::Dataset data = bench::make_dataset("twitter");
  const Topology& topology = data.paper_topology;
  std::printf("\n# streamed chunk sweep: twitter-like, 8x4x2, scaled NIC\n");
  std::printf("# scaled min efficient packet (84%%): %s\n",
              format_bytes(scaled.min_efficient_packet(0.84)).c_str());
  std::printf("%-12s %-8s %-10s %-12s %-12s %-9s %-10s %-12s\n", "chunk",
              "k_max", "chunks", "barriered", "streamed", "speedup",
              "overlap", "util_chunk");

  const StreamPoint letter = run_streamed(data, topology, 0);
  std::printf("%-12s %-8u %-10llu %-12s %-12s %-9s %-10s %-12s\n",
              "letter", 1u,
              static_cast<unsigned long long>(letter.chunks_sent),
              format_seconds(letter.barriered_s).c_str(),
              format_seconds(letter.barriered_s).c_str(), "1.00x", "-", "-");

  for (std::uint64_t chunk = 1u << 10; chunk <= (1u << 20); chunk *= 4) {
    const StreamPoint p = run_streamed(data, topology, chunk);
    const double speedup =
        p.streamed_s > 0 ? letter.barriered_s / p.streamed_s : 0;
    std::printf("%-12s %-8u %-10llu %-12s %-12s %-8.2fx %-10.2f %-12.3f\n",
                format_bytes(static_cast<double>(chunk)).c_str(),
                p.max_chunks,
                static_cast<unsigned long long>(p.chunks_sent),
                format_seconds(p.barriered_s).c_str(),
                format_seconds(p.streamed_s).c_str(), speedup, p.overlap,
                scaled.utilization(static_cast<double>(chunk)));
  }
  std::printf("# peak streamed buffer at 16 KB chunks: %s "
              "(letter-at-once inbox: %s)\n",
              format_bytes(static_cast<double>(
                               run_streamed(data, topology, 1u << 14)
                                   .peak_stream_bytes))
                  .c_str(),
              format_bytes(static_cast<double>(letter.peak_letter_bytes))
                  .c_str());

  // The same sweep in the big-letter regime: 16 interleaved payloads put
  // the widest letters several knees above the packet floor, so chunks at
  // the knee both run the wire efficiently and split every letter — the
  // operating point where pipelining beats the barrier (this is the
  // configuration tests/paper asserts on).
  constexpr std::uint32_t kStride = 16;
  std::printf("\n# streamed chunk sweep: twitter-like, stride %u "
              "(big-letter regime)\n",
              kStride);
  std::printf("%-12s %-8s %-10s %-12s %-12s %-9s %-10s %-12s\n", "chunk",
              "k_max", "chunks", "barriered", "streamed", "speedup",
              "overlap", "util_chunk");
  const StreamPoint sletter = run_streamed(data, topology, 0, kStride);
  std::printf("%-12s %-8u %-10llu %-12s %-12s %-9s %-10s %-12s\n",
              "letter", 1u,
              static_cast<unsigned long long>(sletter.chunks_sent),
              format_seconds(sletter.barriered_s).c_str(),
              format_seconds(sletter.barriered_s).c_str(), "1.00x", "-", "-");
  for (std::uint64_t chunk = 32u << 10; chunk <= (2u << 20); chunk *= 2) {
    const StreamPoint p = run_streamed(data, topology, chunk, kStride);
    const double speedup =
        p.streamed_s > 0 ? sletter.barriered_s / p.streamed_s : 0;
    std::printf("%-12s %-8u %-10llu %-12s %-12s %-8.2fx %-10.2f %-12.3f\n",
                format_bytes(static_cast<double>(chunk)).c_str(),
                p.max_chunks,
                static_cast<unsigned long long>(p.chunks_sent),
                format_seconds(p.barriered_s).c_str(),
                format_seconds(p.streamed_s).c_str(), speedup, p.overlap,
                scaled.utilization(static_cast<double>(chunk)));
  }
  const StreamPoint sbest = run_streamed(data, topology, 256u << 10, kStride);
  std::printf("# peak streamed buffer at 256 KB chunks: %s "
              "(letter-at-once inbox: %s)\n",
              format_bytes(static_cast<double>(sbest.peak_stream_bytes))
                  .c_str(),
              format_bytes(static_cast<double>(sletter.peak_letter_bytes))
                  .c_str());
  return 0;
}
