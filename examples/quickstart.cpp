// Quickstart: the smallest complete Kylix program.
//
// Eight simulated machines each contribute values for a few indices and
// request values for a few (different) indices; one sparse sum-allreduce
// routes everything. Demonstrates the §III API surface: per-machine in/out
// index sets, configure() once, reduce() returning exactly the requested
// values, and where to find the per-layer structure.
#include <cstdio>

#include "kylix.hpp"

int main() {
  using namespace kylix;

  // An 8-machine nested butterfly with degrees 4 x 2 (Fig. 3's shape).
  const Topology topo({4, 2});
  const rank_t m = topo.num_machines();
  ParallelBspEngine<float> engine(m, 1);
  SparseAllreduce<float, OpSum, ParallelBspEngine<float>> allreduce(
      &engine, topo);

  // Machine r contributes 1.0 to indices {r, r+1, 100} and asks for the
  // totals of {r, 100}. Index 100 is shared by everyone, so its total is m.
  std::vector<KeySet> in_sets;
  std::vector<KeySet> out_sets;
  std::vector<std::vector<float>> out_values;
  for (rank_t r = 0; r < m; ++r) {
    const std::vector<index_t> outs = {r, r + 1, 100};
    const std::vector<index_t> ins = {r, 100};
    out_sets.push_back(KeySet::from_indices(outs));
    out_values.emplace_back(out_sets.back().size(), 1.0f);
    in_sets.push_back(KeySet::from_indices(ins));
  }

  // Step 1 (configuration): exchange and union index sets, build maps.
  allreduce.configure(in_sets, out_sets);

  // Step 2 (reduction): scatter-reduce down, allgather up.
  const auto results = allreduce.reduce(std::move(out_values));

  std::printf("machine | index -> reduced total\n");
  for (rank_t r = 0; r < m; ++r) {
    // Results align with the machine's in set in hashed-key order; recover
    // the original indices for printing.
    const std::vector<index_t> ids = in_sets[r].to_indices();
    std::printf("   %u    |", r);
    for (std::size_t p = 0; p < ids.size(); ++p) {
      std::printf("  %llu -> %.0f",
                  static_cast<unsigned long long>(ids[p]), results[r][p]);
    }
    std::printf("\n");
  }

  // Index 100 was contributed once per machine; interior indices r get 1
  // from machine r and 1 from machine r-1 (which contributed to r-1+1).
  std::printf("\nexpected: index 100 totals %u everywhere; index r totals "
              "2 for r in 1..%u, 1 for r = 0\n",
              m, m - 1);
  return 0;
}
