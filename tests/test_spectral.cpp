#include "expander/spectral.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/parallel_for.h"
#include "graph/generators.h"

namespace dcl {
namespace {

/// Restores the shard count on scope exit (mirrors test_parallel_for.cpp).
class ScopedShardThreads {
 public:
  explicit ScopedShardThreads(int threads) { set_shard_threads(threads); }
  ~ScopedShardThreads() { set_shard_threads(1); }
};

TEST(Lambda2, ShardedRowsAreBitIdentical) {
  // apply_lazy_walk shards rows over the worker pool; every double the
  // power iteration produces must be exactly the sequential value at any
  // shard count — same per-row summation order, disjoint row writes.
  Rng build_rng(42);
  const Graph g = random_regular(150, 6, build_rng);
  Rng vec_a(5), vec_b(5), l2_a(7), l2_b(7);
  const auto sequential = second_eigenvector(g, vec_a, 60);
  const double l2_seq = lazy_walk_lambda2(g, l2_a, 80);
  {
    ScopedShardThreads threads(4);
    const auto sharded = second_eigenvector(g, vec_b, 60);
    EXPECT_EQ(sequential, sharded);
    EXPECT_EQ(l2_seq, lazy_walk_lambda2(g, l2_b, 80));
  }
}

TEST(Lambda2, CompleteGraphHasLargeGap) {
  Rng rng(1);
  const Graph g = complete_graph(20);
  // Lazy walk on K_n: λ₂ = 1/2 - 1/(2(n-1)) ≈ 0.47.
  const double l2 = lazy_walk_lambda2(g, rng, 200);
  EXPECT_LT(l2, 0.6);
}

TEST(Lambda2, LongCycleHasTinyGap) {
  Rng rng(2);
  const Graph g = cycle_graph(200);
  // Lazy walk on C_n: λ₂ = 1/2 + cos(2π/n)/2 → very close to 1.
  const double l2 = lazy_walk_lambda2(g, rng, 600);
  EXPECT_GT(l2, 0.99);
}

TEST(Lambda2, ExpanderBeatsCycle) {
  Rng rng(3);
  const Graph expander = random_regular(100, 8, rng);
  const Graph cyc = cycle_graph(100);
  EXPECT_LT(lazy_walk_lambda2(expander, rng, 400),
            lazy_walk_lambda2(cyc, rng, 400));
}

TEST(MixingTime, OrdersFamiliesCorrectly) {
  Rng rng(4);
  const double t_expander = mixing_time_estimate(random_regular(128, 8, rng), rng, 400);
  const double t_cycle = mixing_time_estimate(cycle_graph(128), rng, 400);
  EXPECT_LT(t_expander * 10, t_cycle);
  EXPECT_LT(t_expander, 60.0);  // polylog-ish for an expander
}

TEST(SweepCut, FindsDumbbellBridge) {
  // Two K10's joined by a single edge: conductance of the planted cut is
  // 1/90; the sweep must find something comparably sparse.
  Graph g = disjoint_union(complete_graph(10), complete_graph(10));
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  edges.push_back({9, 10});
  g = Graph::from_edges(20, std::move(edges));

  Rng rng(5);
  const auto embedding = second_eigenvector(g, rng, 400);
  const Cut cut = sweep_cut(g, embedding);
  EXPECT_LE(cut.conductance, 2.0 / 90.0);
  EXPECT_EQ(cut.side.size(), 10u);
  EXPECT_EQ(cut.cut_edges, 1);
}

TEST(SweepCut, SbmRecoversPlantedCut) {
  Rng rng(6);
  const Graph g = stochastic_block_model({40, 40}, 0.5, 0.01, rng);
  const auto embedding = second_eigenvector(g, rng, 300);
  const Cut cut = sweep_cut(g, embedding);
  // The planted cut has conductance ≈ 16 cut edges / 800 volume = 0.02.
  EXPECT_LT(cut.conductance, 0.1);
  // The side should be (close to) one block.
  int first_block = 0;
  for (const NodeId v : cut.side) first_block += (v < 40) ? 1 : 0;
  const auto side_size = static_cast<int>(cut.side.size());
  EXPECT_TRUE(first_block >= side_size - 2 || first_block <= 2);
}

TEST(SweepCut, ConductanceMatchesExactRecount) {
  Rng rng(7);
  const Graph g = erdos_renyi_gnm(40, 160, rng);
  const auto embedding = second_eigenvector(g, rng, 200);
  const Cut cut = sweep_cut(g, embedding);
  EXPECT_NEAR(cut.conductance, conductance_of(g, cut.side), 1e-12);
}

TEST(SweepCut, RequiresEdges) {
  const Graph g = empty_graph(5);
  EXPECT_THROW(sweep_cut(g, std::vector<double>(5, 0.0)),
               std::invalid_argument);
}

TEST(ConductanceOf, HandValues) {
  const Graph g = path_graph(4);  // edges 0-1, 1-2, 2-3; volume 6
  // side {0}: cut 1, vol 1 -> 1.
  EXPECT_DOUBLE_EQ(conductance_of(g, {0}), 1.0);
  // side {0,1}: cut 1, vol 3 -> 1/3.
  EXPECT_DOUBLE_EQ(conductance_of(g, {0, 1}), 1.0 / 3.0);
  // whole graph: no valid cut -> 1.
  EXPECT_DOUBLE_EQ(conductance_of(g, {0, 1, 2, 3}), 1.0);
}

TEST(SecondEigenvector, DeterministicUnderSeed) {
  const Graph g = cycle_graph(30);
  Rng a(9), b(9);
  const auto ea = second_eigenvector(g, a, 50);
  const auto eb = second_eigenvector(g, b, 50);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_DOUBLE_EQ(ea[i], eb[i]);
  }
}

TEST(SecondEigenvector, MatchesParentBitsOnSkewedGraph) {
  // Golden value captured from the row-at-a-time lazy-walk kernel: an
  // FNV-1a hash of the bit patterns of every output double. A kernel that
  // batches rows must keep each row's own accumulator and neighbor order,
  // so no double may move. The graph is degree-skewed (hub rows long, most
  // rows short), n is not a multiple of 4, and at 4 threads the 2048-row
  // grain gives 4 shards whose bounds are not multiples of 4 either.
  Rng build_rng(31);
  const Graph g = power_law_chung_lu(9003, 2.2, 6.0, build_rng);
  ASSERT_EQ(g.node_count() % 4, 3);
  const auto bits_hash = [&] {
    Rng rng(77);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const double value : second_eigenvector(g, rng, 30)) {
      h = (h ^ std::bit_cast<std::uint64_t>(value)) * 0x100000001b3ULL;
    }
    return h;
  };
  constexpr std::uint64_t kGolden = 0x5885a964ddb64a39ULL;
  EXPECT_EQ(bits_hash(), kGolden);
  {
    ScopedShardThreads threads(4);
    EXPECT_EQ(bits_hash(), kGolden);
  }
}

}  // namespace
}  // namespace dcl
