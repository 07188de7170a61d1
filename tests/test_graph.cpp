#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

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

/// Every edge and CSR row of `a` equals `b`'s.
void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_TRUE(std::ranges::equal(a.edges(), b.edges()));
  for (NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_TRUE(std::ranges::equal(a.neighbors(v), b.neighbors(v)))
        << "node " << v;
    EXPECT_TRUE(std::ranges::equal(a.incident_edges(v), b.incident_edges(v)))
        << "node " << v;
  }
}

TEST(EdgeSubgraph, KeepsSelectedEdges) {
  const Graph g = triangle_plus_pendant();
  EdgeMask keep(4);
  keep.set(*g.edge_id(0, 1));
  keep.set(*g.edge_id(0, 3));
  const Subgraph sub = subgraph(g, {}, keep);
  EXPECT_EQ(sub.graph.node_count(), 4);
  EXPECT_EQ(sub.graph.edge_count(), 2);
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
  EXPECT_TRUE(sub.graph.has_edge(0, 3));
  EXPECT_FALSE(sub.graph.has_edge(1, 2));
  EXPECT_EQ(sub.to_base,
            (std::vector<EdgeId>{*g.edge_id(0, 1), *g.edge_id(0, 3)}));
}

TEST(EdgeSubgraph, RejectsWrongMaskSize) {
  const Graph g = triangle_plus_pendant();
  EXPECT_THROW(subgraph(g, {}, EdgeMask(3)), std::invalid_argument);
}

TEST(InducedSubgraph, RemapsNodes) {
  const Graph g = triangle_plus_pendant();
  const std::vector<NodeId> nodes = {0, 1, 2};
  const Subgraph sub = subgraph(g, nodes, EdgeMask(4, true));
  EXPECT_EQ(sub.graph.node_count(), 3);
  EXPECT_EQ(sub.graph.edge_count(), 3);  // full triangle
  // Node 3's pendant edge must be gone, and each local edge maps back to
  // the base edge between the same members.
  for (EdgeId e = 0; e < sub.graph.edge_count(); ++e) {
    const Edge& local = sub.graph.edge(e);
    EXPECT_EQ(g.edge(sub.to_base[static_cast<std::size_t>(e)]),
              make_edge(nodes[static_cast<std::size_t>(local.u)],
                        nodes[static_cast<std::size_t>(local.v)]));
  }
}

TEST(Subgraph, MaskFormMatchesTheSortedEdgeBuild) {
  // The mask form keeps every node under its own id: it must build what
  // listing the kept base edges in id order into `from_sorted_edges` does.
  Rng rng(31);
  for (int round = 0; round < 12; ++round) {
    const Graph g = erdos_renyi_gnm(60, 400, rng);
    EdgeMask keep(g.edge_count());
    std::vector<Edge> kept;
    std::vector<EdgeId> kept_ids;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (rng.next_below(3) != 0) continue;
      keep.set(e);
      kept.push_back(g.edge(e));
      kept_ids.push_back(e);
    }
    const Subgraph sub = subgraph(g, {}, keep);
    expect_same_graph(sub.graph, Graph::from_sorted_edges(60, kept));
    EXPECT_EQ(sub.to_base, kept_ids);
  }
}

TEST(Subgraph, MembersFormMatchesTheInducedReference) {
  // Reference: remap the kept edges with both endpoints among the members
  // and hand them to `from_edges`, which sorts and normalizes them.
  Rng rng(32);
  for (int round = 0; round < 12; ++round) {
    const Graph g = erdos_renyi_gnm(60, 400, rng);
    std::vector<NodeId> members;
    std::vector<NodeId> local(60, -1);
    for (NodeId v = 0; v < 60; ++v) {
      if (rng.next_below(2) == 0) continue;
      local[static_cast<std::size_t>(v)] = to_node(members.size());
      members.push_back(v);
    }
    EdgeMask keep(g.edge_count());
    std::vector<Edge> remapped;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (rng.next_below(4) == 0) continue;
      keep.set(e);
      const Edge& ed = g.edge(e);
      const NodeId lu = local[static_cast<std::size_t>(ed.u)];
      const NodeId lv = local[static_cast<std::size_t>(ed.v)];
      if (lu >= 0 && lv >= 0) remapped.push_back(Edge{lu, lv});
    }
    const Subgraph sub = subgraph(g, members, keep);
    const Graph ref = Graph::from_edges(to_node(members.size()), remapped);
    expect_same_graph(sub.graph, ref);
    ASSERT_EQ(sub.to_base.size(), static_cast<std::size_t>(ref.edge_count()));
    for (EdgeId e = 0; e < ref.edge_count(); ++e) {
      const Edge& le = ref.edge(e);
      EXPECT_EQ(sub.to_base[static_cast<std::size_t>(e)],
                *g.edge_id(members[static_cast<std::size_t>(le.u)],
                           members[static_cast<std::size_t>(le.v)]));
    }
  }
}

TEST(MakeEdge, Normalizes) {
  EXPECT_EQ(make_edge(5, 2), (Edge{2, 5}));
  EXPECT_EQ(make_edge(2, 5), (Edge{2, 5}));
}

}  // namespace
}  // namespace dcl
