#include "core/detection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/parallel_for.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

namespace dcl {
namespace {

TEST(Detection, FindsWitnessWhenPresent) {
  Rng rng(1);
  const auto planted = planted_clique(80, 6, 0.03, rng);
  KpConfig cfg;
  cfg.p = 6;
  const auto result = detect_kp(planted.graph, cfg);
  EXPECT_TRUE(result.found);
  ASSERT_EQ(result.witness.size(), 6u);
  EXPECT_TRUE(is_clique(planted.graph, result.witness));
  EXPECT_GT(result.rounds, 0.0);
}

TEST(Detection, WitnessIsTheSmallestOracleClique) {
  // The witness is the lexicographic minimum of the Kp set — a function
  // of the input alone, whatever order the listers reported in (thread
  // count and shard order permute the reports).
  Rng rng(3);
  const auto planted = planted_clique(80, 7, 0.05, rng);
  KpConfig cfg;
  cfg.p = 4;
  const auto oracle = list_k_cliques(planted.graph, cfg.p);
  ASSERT_GT(oracle.size(), 1u);
  const Clique smallest = *std::min_element(oracle.begin(), oracle.end());
  EXPECT_EQ(detect_kp(planted.graph, cfg).witness, smallest);

  const int threads = shard_threads();
  set_shard_threads(4);
  set_shard_audit(ShardAudit::reverse);
  const auto permuted = detect_kp(planted.graph, cfg);
  set_shard_audit(ShardAudit::off);
  set_shard_threads(threads);
  EXPECT_EQ(permuted.witness, smallest);
}

TEST(Detection, NegativeOnCliqueFreeGraphs) {
  KpConfig cfg;
  cfg.p = 3;
  EXPECT_FALSE(detect_kp(complete_bipartite(12, 12), cfg).found);
  cfg.p = 5;
  EXPECT_FALSE(detect_kp(cycle_graph(30), cfg).found);
}

TEST(Detection, ThresholdSensitivity) {
  // K5 contains K4 and K5 but no K6.
  const Graph g = complete_graph(5);
  for (const int p : {4, 5}) {
    KpConfig cfg;
    cfg.p = p;
    EXPECT_TRUE(detect_kp(g, cfg).found) << p;
  }
  KpConfig cfg;
  cfg.p = 6;
  EXPECT_FALSE(detect_kp(g, cfg).found);
}

TEST(Detection, AgreesWithOracleOnRandomSweep) {
  // Differential detection: found ⟺ the oracle count is positive, and
  // any witness is a real clique. Densities straddle the Kp emergence
  // thresholds so both outcomes occur across the sweep.
  int positives = 0, negatives = 0;
  for (const int p : {3, 4, 5}) {
    for (const double density : {0.03, 0.1, 0.3}) {
      for (const int seed : {1, 2}) {
        Rng rng(static_cast<std::uint64_t>(seed) * 271 + 9);
        const Graph g = erdos_renyi_gnp(60, density, rng);
        KpConfig cfg;
        cfg.p = p;
        cfg.seed = static_cast<std::uint64_t>(seed);
        const auto result = detect_kp(g, cfg);
        const bool truth = count_k_cliques(g, p) > 0;
        EXPECT_EQ(result.found, truth)
            << "p=" << p << " density=" << density << " seed=" << seed;
        EXPECT_GE(result.rounds, 0.0);
        if (result.found) {
          ASSERT_EQ(result.witness.size(), static_cast<std::size_t>(p));
          EXPECT_TRUE(is_clique(g, result.witness));
          ++positives;
        } else {
          ++negatives;
        }
      }
    }
  }
  EXPECT_GT(positives, 0) << "sweep never exercised the positive branch";
  EXPECT_GT(negatives, 0) << "sweep never exercised the negative branch";
}

TEST(Counting, MatchesSequentialOracle) {
  Rng rng(2);
  const Graph g = erdos_renyi_gnm(90, 1200, rng);
  for (const int p : {3, 4, 5}) {
    KpConfig cfg;
    cfg.p = p;
    const auto result = count_kp_distributed(g, cfg);
    EXPECT_EQ(result.count, count_k_cliques(g, p)) << "p=" << p;
  }
}

TEST(Counting, AggregationChargedSeparately) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnm(70, 500, rng);
  KpConfig cfg;
  cfg.p = 4;
  const auto result = count_kp_distributed(g, cfg);
  EXPECT_GT(result.aggregation_rounds, 0.0);
  EXPECT_GT(result.rounds, result.aggregation_rounds);
}

TEST(Counting, DisconnectedGraph) {
  const Graph g = disjoint_union(complete_graph(5), complete_graph(6));
  KpConfig cfg;
  cfg.p = 4;
  const auto result = count_kp_distributed(g, cfg);
  EXPECT_EQ(result.count, 5u + 15u);  // C(5,4) + C(6,4)
  EXPECT_DOUBLE_EQ(result.aggregation_rounds, 2.0);  // both depths are 1
}

TEST(Counting, AggregationChargesTwiceTheBfsDepth) {
  // Up and down a BFS tree rooted at each component's minimum id; the
  // components run in parallel, so the deepest tree sets the charge.
  KpConfig cfg;
  cfg.p = 3;
  EXPECT_DOUBLE_EQ(count_kp_distributed(path_graph(6), cfg).aggregation_rounds,
                   10.0);
  EXPECT_DOUBLE_EQ(count_kp_distributed(star_graph(6), cfg).aggregation_rounds,
                   2.0);  // rooted at the hub
  EXPECT_DOUBLE_EQ(
      count_kp_distributed(disjoint_union(path_graph(3), path_graph(5)), cfg)
          .aggregation_rounds,
      8.0);
}

TEST(Counting, EmptyGraph) {
  KpConfig cfg;
  cfg.p = 4;
  const auto result = count_kp_distributed(empty_graph(5), cfg);
  EXPECT_EQ(result.count, 0u);
  EXPECT_DOUBLE_EQ(result.aggregation_rounds, 0.0);
}

}  // namespace
}  // namespace dcl
