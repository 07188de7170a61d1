#include "graph/generators.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "enumeration/clique_enumeration.h"

namespace dcl {
namespace {

TEST(ErdosRenyiGnm, ExactEdgeCount) {
  Rng rng(1);
  for (const EdgeId m : {0, 1, 50, 300}) {
    const Graph g = erdos_renyi_gnm(40, m, rng);
    EXPECT_EQ(g.node_count(), 40);
    EXPECT_EQ(g.edge_count(), m);
  }
}

TEST(ErdosRenyiGnm, DensePathReachesCompleteGraph) {
  Rng rng(2);
  const EdgeId full = 20 * 19 / 2;
  const Graph g = erdos_renyi_gnm(20, full, rng);
  EXPECT_EQ(g.edge_count(), full);
  const Graph g2 = erdos_renyi_gnm(20, full - 3, rng);
  EXPECT_EQ(g2.edge_count(), full - 3);
}

TEST(ErdosRenyiGnm, RejectsImpossibleM) {
  Rng rng(3);
  EXPECT_THROW(erdos_renyi_gnm(5, 11, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_gnm(5, -1, rng), std::invalid_argument);
}

TEST(ErdosRenyiGnp, EdgeCountConcentrates) {
  Rng rng(4);
  const NodeId n = 200;
  const double p = 0.1;
  double total = 0;
  for (int rep = 0; rep < 10; ++rep) {
    total += static_cast<double>(erdos_renyi_gnp(n, p, rng).edge_count());
  }
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(total / 10.0, expected, expected * 0.1);
}

TEST(ErdosRenyiGnp, ExtremeProbabilities) {
  Rng rng(5);
  EXPECT_EQ(erdos_renyi_gnp(30, 0.0, rng).edge_count(), 0);
  EXPECT_EQ(erdos_renyi_gnp(30, 1.0, rng).edge_count(), 30 * 29 / 2);
  EXPECT_THROW(erdos_renyi_gnp(10, 1.5, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_gnp(10, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(erdos_renyi_gnp(10, std::nan(""), rng), std::invalid_argument);
}

TEST(ErdosRenyiGnp, TinyGraphs) {
  Rng rng(6);
  EXPECT_EQ(erdos_renyi_gnp(0, 0.5, rng).node_count(), 0);
  EXPECT_EQ(erdos_renyi_gnp(1, 0.9, rng).edge_count(), 0);
}

TEST(PlantedClique, CliqueIsPresent) {
  Rng rng(7);
  const auto planted = planted_clique(60, 8, 0.05, rng);
  EXPECT_EQ(planted.clique_nodes.size(), 8u);
  EXPECT_TRUE(is_clique(planted.graph, planted.clique_nodes));
}

TEST(PlantedClique, RejectsOversizedClique) {
  Rng rng(8);
  EXPECT_THROW(planted_clique(5, 6, 0.1, rng), std::invalid_argument);
}

TEST(StochasticBlockModel, RespectsBlockDensities) {
  Rng rng(9);
  const Graph g = stochastic_block_model({50, 50}, 0.5, 0.02, rng);
  EXPECT_EQ(g.node_count(), 100);
  std::int64_t within = 0, across = 0;
  for (const Edge& e : g.edges()) {
    const bool same = (e.u < 50) == (e.v < 50);
    (same ? within : across) += 1;
  }
  // E[within] = 2 * C(50,2) * 0.5 = 1225; E[across] = 2500 * 0.02 = 50.
  EXPECT_NEAR(static_cast<double>(within), 1225, 200);
  EXPECT_NEAR(static_cast<double>(across), 50, 35);
}

TEST(PowerLawChungLu, SkewedDegreesWithTargetAverage) {
  Rng rng(10);
  const Graph g = power_law_chung_lu(300, 2.5, 8.0, rng);
  EXPECT_EQ(g.node_count(), 300);
  EXPECT_NEAR(g.average_degree(), 8.0, 2.5);
  // Skew: earliest node's degree should dwarf the median.
  EXPECT_GT(g.degree(0), 3 * 8);
}

TEST(RandomRegular, ExactDegrees) {
  Rng rng(11);
  const Graph g = random_regular(50, 6, rng);
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_EQ(g.degree(v), 6);
  }
}

TEST(RandomRegular, RejectsInvalidParameters) {
  Rng rng(12);
  EXPECT_THROW(random_regular(5, 3, rng), std::invalid_argument);  // n*d odd
  EXPECT_THROW(random_regular(4, 4, rng), std::invalid_argument);  // d >= n
}

TEST(ClosedForms, CompleteGraph) {
  const Graph g = complete_graph(7);
  EXPECT_EQ(g.edge_count(), 21);
  for (NodeId v = 0; v < 7; ++v) EXPECT_EQ(g.degree(v), 6);
}

TEST(ClosedForms, CompleteBipartite) {
  const Graph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.node_count(), 7);
  EXPECT_EQ(g.edge_count(), 12);
  for (NodeId u = 0; u < 3; ++u) EXPECT_EQ(g.degree(u), 4);
  for (NodeId v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 3));
}

TEST(ClosedForms, StarPathCycleEmpty) {
  const Graph star = star_graph(6);
  EXPECT_EQ(star.degree(0), 5);
  EXPECT_EQ(star.edge_count(), 5);

  const Graph path = path_graph(5);
  EXPECT_EQ(path.edge_count(), 4);
  EXPECT_EQ(path.degree(0), 1);
  EXPECT_EQ(path.degree(2), 2);

  const Graph cyc = cycle_graph(5);
  EXPECT_EQ(cyc.edge_count(), 5);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(cyc.degree(v), 2);

  EXPECT_EQ(empty_graph(9).edge_count(), 0);
  EXPECT_EQ(cycle_graph(2).edge_count(), 1);  // degenerates to path
}

TEST(DisjointUnion, ShiftsSecondGraph) {
  const Graph g = disjoint_union(complete_graph(3), path_graph(3));
  EXPECT_EQ(g.node_count(), 6);
  EXPECT_EQ(g.edge_count(), 3 + 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(2, 3));
  EXPECT_EQ(g.connected_components().second, 2);
}

TEST(Generators, Deterministic) {
  Rng a(99), b(99);
  const Graph ga = erdos_renyi_gnm(50, 200, a);
  const Graph gb = erdos_renyi_gnm(50, 200, b);
  ASSERT_EQ(ga.edge_count(), gb.edge_count());
  for (EdgeId e = 0; e < ga.edge_count(); ++e) {
    ASSERT_EQ(ga.edge(e), gb.edge(e));
  }
}

}  // namespace
}  // namespace dcl
