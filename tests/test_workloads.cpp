#include "graph/workloads.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/math_util.h"
#include "expander/decomposition.h"
#include "graph/orientation.h"

namespace dcl {
namespace {

TEST(PowerWorkload, EdgeCountTracksExponent) {
  Rng rng(1);
  const Graph g = power_workload(256, 1.0, 1.5, rng);
  EXPECT_EQ(g.node_count(), 256);
  EXPECT_EQ(g.edge_count(), floor_pow(256, 1.5));
}

TEST(PowerWorkload, DensityCapApplies) {
  Rng rng(2);
  const Graph g = power_workload(32, 10.0, 2.0, rng);  // 10·n² ≫ C(n,2)
  EXPECT_EQ(g.edge_count(), static_cast<EdgeId>(32) * 31 / 3);
}

TEST(ClusteredWorkload, HubsAreHighDegree) {
  Rng rng(3);
  const int hubs = 4;
  const Graph g = clustered_workload(256, rng, 0.45, 0.015, hubs);
  // The trailing `hubs` nodes connect to ~30% of the body.
  for (NodeId h = 252; h < 256; ++h) {
    EXPECT_GT(g.degree(h), 50);
  }
  // Body nodes are much lighter than hubs.
  NodeId max_body = 0;
  for (NodeId v = 0; v < 252; ++v) max_body = std::max(max_body, g.degree(v));
  EXPECT_LT(max_body, g.degree(252) * 2);
}

TEST(ClusteredWorkload, BlocksAreDenserThanCross) {
  Rng rng(4);
  const Graph g = clustered_workload(256, rng, 0.45, 0.015, 0);
  const NodeId block = static_cast<NodeId>(floor_pow(256, 0.75));
  std::int64_t within = 0, across = 0;
  for (const Edge& e : g.edges()) {
    ((e.u / block == e.v / block) ? within : across) += 1;
  }
  EXPECT_GT(within, across);
}

TEST(PeripheryWorkload, PairsShareCoreAttachments) {
  Rng rng(5);
  const NodeId n = 256;
  const Graph g = periphery_workload(n, rng);
  const auto core = static_cast<NodeId>(floor_pow(n, 0.8));
  // Every periphery pair has its pair edge and only core attachments
  // otherwise.
  for (NodeId v = core; v + 1 < n; v = static_cast<NodeId>(v + 2)) {
    EXPECT_TRUE(g.has_edge(v, static_cast<NodeId>(v + 1)));
    for (const NodeId w : g.neighbors(v)) {
      EXPECT_TRUE(w < core || w == v + 1)
          << "periphery node " << v << " attached to periphery " << w;
    }
    // Attachment counts stay in the designed 2..8 range.
    EXPECT_GE(g.degree(v), 3);   // pair edge + >= 2 attachments
    EXPECT_LE(g.degree(v), 9);   // pair edge + <= 8 attachments
  }
}

TEST(PeripheryWorkload, PeripheryPairsFormCrossBoundaryK4s) {
  Rng rng(6);
  const NodeId n = 200;
  const Graph g = periphery_workload(n, rng, /*core_density=*/0.8);
  const auto core = static_cast<NodeId>(floor_pow(n, 0.8));
  // With a dense core, some pair (v, v+1) shares two adjacent core nodes —
  // a K4 with two outside nodes.
  bool found = false;
  for (NodeId v = core; v + 1 < n && !found; v = static_cast<NodeId>(v + 2)) {
    const auto nv = g.neighbors(v);
    for (std::size_t i = 0; i < nv.size() && !found; ++i) {
      for (std::size_t j = i + 1; j < nv.size() && !found; ++j) {
        if (nv[i] >= core || nv[j] >= core) continue;
        if (g.has_edge(nv[i], nv[j]) &&
            g.has_edge(nv[i], static_cast<NodeId>(v + 1)) &&
            g.has_edge(nv[j], static_cast<NodeId>(v + 1))) {
          found = true;
        }
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(RingOfCliques, BridgesAreTheOnlySparseCuts) {
  Rng rng(7);
  const Graph g = ring_of_cliques_workload(240, rng, 6, 0.5);
  EXPECT_EQ(g.node_count(), 240);
  // Exactly 6 bridges exist between consecutive blocks.
  std::int64_t bridges = 0;
  for (const Edge& e : g.edges()) {
    if (e.u / 40 != e.v / 40) ++bridges;
  }
  EXPECT_EQ(bridges, 6);
  // Fewer nodes than blocks, or one block, would bridge a node to itself.
  EXPECT_THROW(ring_of_cliques_workload(5, rng, 6, 0.5), std::invalid_argument);
  EXPECT_THROW(ring_of_cliques_workload(40, rng, 1, 0.5),
               std::invalid_argument);
}

TEST(RingOfCliques, DecompositionCutsTheBridges) {
  Rng rng(8);
  const Graph g = ring_of_cliques_workload(240, rng, 6, 0.5);
  DecompositionConfig cfg;
  cfg.absolute_degree = 8;
  Rng deco_rng(9);
  const auto d = expander_decompose(g, g.node_count(), cfg, deco_rng);
  // The blocks become clusters; the bridge edges cannot be cluster-internal.
  EXPECT_GE(d.clusters.size(), 4u);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (ed.u / 40 != ed.v / 40) {
      EXPECT_NE(d.part[static_cast<std::size_t>(e)], EdgePart::cluster)
          << "bridge " << ed.u << "-" << ed.v << " inside a cluster";
    }
  }
}

TEST(Workloads, DeterministicUnderSeed) {
  Rng a(10), b(10);
  const Graph ga = periphery_workload(128, a);
  const Graph gb = periphery_workload(128, b);
  ASSERT_EQ(ga.edge_count(), gb.edge_count());
  for (EdgeId e = 0; e < ga.edge_count(); ++e) {
    ASSERT_EQ(ga.edge(e), gb.edge(e));
  }
}

}  // namespace
}  // namespace dcl
