#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace dcl {
namespace {

Graph triangle_plus_pendant() {
  // 0-1-2 triangle, 3 hangs off 0.
  return Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
}

TEST(Graph, BasicCounts) {
  const Graph g = triangle_plus_pendant();
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_EQ(g.degree(0), 3);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_EQ(g.max_degree(), 3);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0);
}

TEST(Graph, EdgesAreSortedAndNormalized) {
  const Graph g = Graph::from_edges(3, {{2, 1}, {1, 0}, {2, 0}});
  ASSERT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.edge(0), (Edge{0, 1}));
  EXPECT_EQ(g.edge(1), (Edge{0, 2}));
  EXPECT_EQ(g.edge(2), (Edge{1, 2}));
}

TEST(Graph, DuplicateEdgesAreMerged) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph::from_edges(3, {{1, 1}}), std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(Graph::from_edges(3, {{0, 3}}), std::invalid_argument);
  EXPECT_THROW(Graph::from_edges(3, {{-1, 1}}), std::invalid_argument);
}

TEST(Graph, NeighborsSortedAndAligned) {
  const Graph g = triangle_plus_pendant();
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  const auto eids = g.incident_edges(0);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const Edge& e = g.edge(eids[i]);
    EXPECT_TRUE((e.u == 0 && e.v == nbrs[i]) || (e.v == 0 && e.u == nbrs[i]));
  }
}

TEST(Graph, EdgeIdLookup) {
  const Graph g = triangle_plus_pendant();
  ASSERT_TRUE(g.edge_id(1, 2).has_value());
  ASSERT_TRUE(g.edge_id(2, 1).has_value());
  EXPECT_EQ(*g.edge_id(1, 2), *g.edge_id(2, 1));
  EXPECT_FALSE(g.edge_id(1, 3).has_value());
  EXPECT_FALSE(g.edge_id(0, 0).has_value());
  EXPECT_FALSE(g.edge_id(0, 99).has_value());
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(2, 3));
}

TEST(Graph, OtherEndpoint) {
  const Graph g = triangle_plus_pendant();
  const EdgeId e = *g.edge_id(0, 3);
  EXPECT_EQ(g.other_endpoint(e, 0), 3);
  EXPECT_EQ(g.other_endpoint(e, 3), 0);
}

TEST(Graph, ConnectedComponents) {
  const Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  const auto [comp, count] = g.connected_components();
  EXPECT_EQ(count, 3);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[0], comp[5]);
  EXPECT_NE(comp[3], comp[5]);
}

TEST(Graph, EmptyGraph) {
  const Graph g = Graph::from_edges(0, {});
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
  EXPECT_EQ(g.connected_components().second, 0);
}

TEST(Graph, FromSortedEdgesMatchesFromEdges) {
  // The fast path must build exactly the graph from_edges builds from the
  // same sorted, duplicate-free list: same edge ids, same CSR rows.
  const auto expect_same = [](NodeId n, const std::vector<Edge>& edges) {
    const Graph fast = Graph::from_sorted_edges(n, edges);
    const Graph ref = Graph::from_edges(n, edges);
    ASSERT_EQ(fast.node_count(), ref.node_count());
    ASSERT_TRUE(std::ranges::equal(fast.edges(), ref.edges()));
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(fast.degree(v), ref.degree(v)) << "node " << v;
      EXPECT_TRUE(std::ranges::equal(fast.neighbors(v), ref.neighbors(v)))
          << "node " << v;
      EXPECT_TRUE(
          std::ranges::equal(fast.incident_edges(v), ref.incident_edges(v)))
          << "node " << v;
    }
  };
  expect_same(0, {});
  expect_same(5, {});  // isolated nodes only
  Rng rng(17);
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<NodeId>(2 + rng.next_below(30));
    // Keep each pair with probability 1/4, in lexicographic order; the
    // high-id nodes are left isolated on every other round.
    const NodeId active =
        (round % 2 == 0) ? n : static_cast<NodeId>(n / 2 + 1);
    std::vector<Edge> edges;
    for (NodeId u = 0; u < active; ++u) {
      for (NodeId v = u + 1; v < active; ++v) {
        if (rng.next_below(4) == 0) edges.push_back(Edge{u, v});
      }
    }
    expect_same(n, edges);
  }
}

TEST(EdgeListBuilder, BuildsAndValidates) {
  EdgeListBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);  // duplicate, reversed
  builder.add_edge(2, 3);
  EXPECT_EQ(builder.pending_edges(), 3u);
  const Graph g = std::move(builder).build();
  EXPECT_EQ(g.edge_count(), 2);
  EdgeListBuilder bad(2);
  EXPECT_THROW(bad.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(bad.add_edge(0, 5), std::invalid_argument);
}

TEST(EdgeSubgraph, KeepsSelectedEdges) {
  const Graph g = triangle_plus_pendant();
  std::vector<bool> keep(4, false);
  keep[static_cast<std::size_t>(*g.edge_id(0, 1))] = true;
  keep[static_cast<std::size_t>(*g.edge_id(0, 3))] = true;
  const Graph sub = edge_subgraph(g, keep);
  EXPECT_EQ(sub.node_count(), 4);
  EXPECT_EQ(sub.edge_count(), 2);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(0, 3));
  EXPECT_FALSE(sub.has_edge(1, 2));
}

TEST(EdgeSubgraph, RejectsWrongMaskSize) {
  const Graph g = triangle_plus_pendant();
  EXPECT_THROW(edge_subgraph(g, std::vector<bool>(3)), std::invalid_argument);
}

TEST(InducedSubgraph, RemapsNodes) {
  const Graph g = triangle_plus_pendant();
  const std::vector<NodeId> nodes = {0, 1, 2};
  const auto sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.node_count(), 3);
  EXPECT_EQ(sub.graph.edge_count(), 3);  // full triangle
  EXPECT_EQ(sub.to_original.size(), 3u);
  // Node 3's pendant edge must be gone.
  for (const Edge& e : sub.graph.edges()) {
    EXPECT_LT(sub.to_original[static_cast<std::size_t>(e.u)], 3);
    EXPECT_LT(sub.to_original[static_cast<std::size_t>(e.v)], 3);
  }
}

TEST(InducedSubgraph, HandlesDuplicatesInInput) {
  const Graph g = triangle_plus_pendant();
  const std::vector<NodeId> nodes = {2, 0, 2, 1, 0};
  const auto sub = induced_subgraph(g, nodes);
  EXPECT_EQ(sub.graph.node_count(), 3);
  EXPECT_EQ(sub.graph.edge_count(), 3);
}

TEST(MakeEdge, Normalizes) {
  EXPECT_EQ(make_edge(5, 2), (Edge{2, 5}));
  EXPECT_EQ(make_edge(2, 5), (Edge{2, 5}));
}

}  // namespace
}  // namespace dcl
