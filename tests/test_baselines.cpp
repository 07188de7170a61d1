#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/kp_lister.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dcl {
namespace {

TEST(TrivialBroadcast, ExactAndCostsDelta) {
  Rng rng(1);
  const Graph g = erdos_renyi_gnm(80, 900, rng);
  for (const int p : {3, 4, 5, 6}) {
    ListingOutput out(g.node_count());
    const auto result = trivial_broadcast_list(g, p, out);
    EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, p))) << p;
    EXPECT_DOUBLE_EQ(result.total_rounds(),
                     static_cast<double>(g.max_degree()));
    expect_ledger_valid(result.ledger);
  }
}

TEST(ObliviousCc, ExactListing) {
  Rng rng(2);
  const Graph g = erdos_renyi_gnm(81, 1200, rng);
  for (const int p : {3, 4, 5}) {
    ListingOutput out(g.node_count());
    const auto result = oblivious_cc_list(g, p, out);
    EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, p))) << p;
    EXPECT_GT(result.total_rounds(), 0.0);
    expect_ledger_valid(result.ledger);
  }
}

TEST(ObliviousCc, RoundsAreFlatInDensity) {
  // The defining weakness vs Theorem 1.3: the schedule cannot adapt to m.
  Rng rng(3);
  const NodeId n = 100;
  const Graph sparse = erdos_renyi_gnm(n, 300, rng);
  const Graph dense = erdos_renyi_gnm(n, 4000, rng);
  ListingOutput o1(n), o2(n);
  const auto r1 = oblivious_cc_list(sparse, 3, o1);
  const auto r2 = oblivious_cc_list(dense, 3, o2);
  EXPECT_DOUBLE_EQ(r1.total_rounds(), r2.total_rounds());
}

TEST(ObliviousCc, SharedBudgetIsPinned) {
  // n = 100, p = 3: q = floor(100^{1/3}) = 4 parts of ceil(100/4) = 25, so
  // each node budgets 3²·25²/2 = 2812 pair slots, routed by Lenzen in
  // ceil(2812/99) + 2 = 31 rounds. The worst-case in-cluster charge reads
  // the same budget.
  EXPECT_EQ(oblivious_pair_budget(100, 4, 3), 2812);
  EXPECT_DOUBLE_EQ(oblivious_cc_rounds(100, 3), 31.0);
  // p = 1 would budget zero slots; it is rejected rather than charged.
  EXPECT_THROW(oblivious_cc_rounds(100, 1), std::invalid_argument);
}

TEST(OneShot, ExactListing) {
  Rng rng(4);
  const Graph g = erdos_renyi_gnm(90, 2000, rng);
  for (const int p : {3, 4, 5}) {
    ListingOutput out(g.node_count());
    one_shot_list(g, p, out);
    EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, p))) << p;
  }
}

TEST(OneShot, SparseGraphStillCorrect) {
  // On a sparse graph the single pass finds no clusters; the leftover
  // broadcast must cover everything.
  Rng rng(5);
  const Graph g = erdos_renyi_gnm(100, 400, rng);
  ListingOutput out(g.node_count());
  one_shot_list(g, 4, out);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, 4)));
}

TEST(ChangStyleTriangles, MatchesGroundTruth) {
  Rng rng(6);
  const Graph g = erdos_renyi_gnm(120, 2400, rng);
  ListingOutput out(g.node_count());
  const auto result = chang_style_triangle_list(g, out);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, 3)));
  EXPECT_GT(result.total_rounds(), 0.0);
}

TEST(Comparison, AllListersAgreeOnTheSameGraph) {
  // Integration: four independent implementations produce the same set.
  Rng rng(7);
  const Graph g = erdos_renyi_gnm(70, 1100, rng);
  const int p = 4;
  ListingOutput o1(g.node_count()), o2(g.node_count()), o3(g.node_count()),
      o4(g.node_count());
  trivial_broadcast_list(g, p, o1);
  oblivious_cc_list(g, p, o2);
  one_shot_list(g, p, o3);
  KpConfig cfg;
  cfg.p = p;
  list_kp_collect(g, cfg, o4);
  EXPECT_TRUE(o1.cliques() == o2.cliques());
  EXPECT_TRUE(o2.cliques() == o3.cliques());
  EXPECT_TRUE(o3.cliques() == o4.cliques());
}

TEST(Comparison, OursBeatsTrivialOnDenseGraphsAtMessageLevel) {
  // The paper's headline: sub-linear rounds where the prior art for p ≥ 6
  // was the Δ-round trivial broadcast. At simulable n the polylog factors
  // buried in the Õ(·) of T2.3/T2.4 dominate absolute totals (bench_e5
  // prints the crossover analysis); the message-level exchange rounds —
  // the part with no polylog charges — must already be sub-Δ here.
  Rng rng(8);
  const Graph g = erdos_renyi_gnm(220, 8500, rng);  // avg degree ~77
  KpConfig cfg;
  cfg.p = 6;
  cfg.stop_scale = 0.5;
  const auto ours = list_kp(g, cfg);
  ListingOutput out(g.node_count());
  const auto trivial = trivial_broadcast_list(g, 6, out);
  EXPECT_LT(ours.ledger.rounds_of_kind(CostKind::exchange),
            trivial.total_rounds());
}

TEST(Baselines, EmptyGraphsAreFree) {
  const Graph g = empty_graph(10);
  ListingOutput o1(10), o3(10);
  EXPECT_DOUBLE_EQ(trivial_broadcast_list(g, 4, o1).total_rounds(), 0.0);
  EXPECT_DOUBLE_EQ(one_shot_list(g, 4, o3).total_rounds(), 0.0);
}

}  // namespace
}  // namespace dcl
