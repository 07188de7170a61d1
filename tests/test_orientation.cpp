#include "graph/orientation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

namespace dcl {
namespace {

TEST(DegeneracyOrder, KnownValues) {
  EXPECT_EQ(degeneracy_order(complete_graph(6)).degeneracy, 5);
  EXPECT_EQ(degeneracy_order(path_graph(10)).degeneracy, 1);
  EXPECT_EQ(degeneracy_order(cycle_graph(10)).degeneracy, 2);
  EXPECT_EQ(degeneracy_order(star_graph(10)).degeneracy, 1);
  EXPECT_EQ(degeneracy_order(empty_graph(5)).degeneracy, 0);
  EXPECT_EQ(degeneracy_order(complete_bipartite(3, 7)).degeneracy, 3);
}

TEST(DegeneracyOrder, IsAPermutation) {
  Rng rng(1);
  const Graph g = erdos_renyi_gnm(80, 600, rng);
  const auto dec = degeneracy_order(g);
  ASSERT_EQ(dec.order.size(), 80u);
  std::vector<bool> seen(80, false);
  for (const NodeId v : dec.order) {
    ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(DegeneracyOrder, EveryNodeHasFewLaterNeighbors) {
  // The defining property: each node has at most `degeneracy` neighbors
  // later in the order.
  Rng rng(2);
  const Graph g = erdos_renyi_gnm(100, 900, rng);
  const auto dec = degeneracy_order(g);
  std::vector<NodeId> rank(100);
  for (std::size_t i = 0; i < dec.order.size(); ++i) {
    rank[static_cast<std::size_t>(dec.order[i])] = static_cast<NodeId>(i);
  }
  for (NodeId v = 0; v < 100; ++v) {
    NodeId later = 0;
    for (const NodeId w : g.neighbors(v)) {
      if (rank[static_cast<std::size_t>(w)] > rank[static_cast<std::size_t>(v)]) {
        ++later;
      }
    }
    EXPECT_LE(later, dec.degeneracy);
  }
}

/// Reference copy of the historical per-bucket-stack peel (LIFO with lazy
/// deletion of stale entries). The production implementation was rewritten
/// around intrusive bucket lists for speed, but its pop order — and
/// therefore the orientation the Kp pipeline's round ledger is built on —
/// must stay bit-identical to this rule.
DegeneracyResult reference_degeneracy_order(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.node_count());
  DegeneracyResult result;
  result.order.reserve(n);
  result.core_number.assign(n, 0);
  if (n == 0) return result;
  std::vector<NodeId> deg(n);
  NodeId max_deg = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    deg[static_cast<std::size_t>(v)] = g.degree(v);
    max_deg = std::max(max_deg, g.degree(v));
  }
  struct Entry {
    NodeId node;
    std::int32_t next;
  };
  std::vector<Entry> arena;
  std::vector<std::int32_t> head(static_cast<std::size_t>(max_deg) + 1, -1);
  const auto push = [&](std::size_t bucket, NodeId v) {
    arena.push_back(Entry{v, head[bucket]});
    head[bucket] = static_cast<std::int32_t>(arena.size()) - 1;
  };
  for (NodeId v = 0; v < g.node_count(); ++v) {
    push(static_cast<std::size_t>(deg[static_cast<std::size_t>(v)]), v);
  }
  NodeId current_core = 0;
  std::size_t cursor = 0;
  for (std::size_t peeled = 0; peeled < n; ++peeled) {
    while (cursor < head.size() && head[cursor] < 0) ++cursor;
    while (true) {
      const NodeId v = arena[static_cast<std::size_t>(head[cursor])].node;
      head[cursor] = arena[static_cast<std::size_t>(head[cursor])].next;
      const auto vi = static_cast<std::size_t>(v);
      if (deg[vi] == static_cast<NodeId>(cursor)) {
        current_core = std::max(current_core, static_cast<NodeId>(cursor));
        result.core_number[vi] = current_core;
        result.order.push_back(v);
        deg[vi] = -1;
        for (NodeId w : g.neighbors(v)) {
          const auto wi = static_cast<std::size_t>(w);
          if (deg[wi] >= 0) {
            --deg[wi];
            push(static_cast<std::size_t>(deg[wi]), w);
            if (static_cast<std::size_t>(deg[wi]) < cursor) {
              cursor = static_cast<std::size_t>(deg[wi]);
            }
          }
        }
        break;
      }
      while (cursor < head.size() && head[cursor] < 0) ++cursor;
    }
  }
  result.degeneracy = current_core;
  return result;
}

TEST(DegeneracyOrder, MatchesHistoricalPopOrderExactly) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng.next_below(90));
    const auto max_m =
        static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) / 2;
    const auto m = static_cast<std::int64_t>(rng.next_below(max_m + 1));
    const Graph g = erdos_renyi_gnm(n, m, rng);
    const auto got = degeneracy_order(g);
    const auto want = reference_degeneracy_order(g);
    ASSERT_EQ(got.order, want.order) << "n=" << n << " m=" << m;
    ASSERT_EQ(got.core_number, want.core_number);
    ASSERT_EQ(got.degeneracy, want.degeneracy);
    // The CSR overload over the same sorted rows peels identically.
    std::vector<std::uint64_t> offsets{0};
    std::vector<NodeId> adj;
    for (NodeId v = 0; v < n; ++v) {
      adj.insert(adj.end(), g.neighbors(v).begin(), g.neighbors(v).end());
      offsets.push_back(adj.size());
    }
    const auto csr = degeneracy_order(offsets, adj);
    ASSERT_EQ(csr.order, want.order) << "n=" << n << " m=" << m;
    ASSERT_EQ(csr.core_number, want.core_number);
    ASSERT_EQ(csr.degeneracy, want.degeneracy);
  }
}

TEST(DegeneracyOrder, CoreNumbersMonotone) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnm(60, 300, rng);
  const auto dec = degeneracy_order(g);
  // Core numbers along the peeling order never decrease.
  NodeId prev = 0;
  for (const NodeId v : dec.order) {
    EXPECT_GE(dec.core_number[static_cast<std::size_t>(v)], prev);
    prev = dec.core_number[static_cast<std::size_t>(v)];
  }
  EXPECT_EQ(prev, dec.degeneracy);
}

TEST(Orientation, DegeneracyOrientationBoundsOutDegree) {
  Rng rng(4);
  const Graph g = erdos_renyi_gnm(120, 1500, rng);
  const auto dec = degeneracy_order(g);
  const Orientation o = degeneracy_orientation(g);
  EXPECT_LE(o.max_out_degree(), dec.degeneracy);
}

TEST(Orientation, TailHeadConsistent) {
  const Graph g = complete_graph(5);
  const Orientation o = degeneracy_orientation(g);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    const NodeId t = edge_tail(g, o.away(), e);
    EXPECT_EQ(t, o.away_from_lower(e) ? ed.u : ed.v);
    EXPECT_TRUE(t == ed.u || t == ed.v);
  }
}

TEST(Orientation, OutDegreesMatchTheDegeneracyDag) {
  // The degeneracy orientation and the degeneracy DAG agree: row v of the
  // DAG holds exactly the heads of the edges whose tail is v.
  Rng rng(5);
  const Graph g = erdos_renyi_gnm(50, 300, rng);
  const Orientation o = degeneracy_orientation(g);
  const CliqueDag dag = degeneracy_dag(g);
  std::int64_t total = 0;
  NodeId widest = 0;
  for (NodeId v = 0; v < 50; ++v) {
    const auto begin = dag.offsets[static_cast<std::size_t>(v)];
    const auto end = dag.offsets[static_cast<std::size_t>(v) + 1];
    total += static_cast<std::int64_t>(end - begin);
    widest = std::max(widest, static_cast<NodeId>(end - begin));
    for (auto i = begin; i < end; ++i) {
      EXPECT_EQ(edge_tail(g, o.away(), *g.edge_id(v, dag.adj[i])), v);
    }
  }
  EXPECT_EQ(total, g.edge_count());  // every edge has exactly one tail
  EXPECT_EQ(o.max_out_degree(), widest);
}

TEST(Orientation, AcyclicFromOrder) {
  // The degeneracy orientation follows its peeling order: every edge
  // points from the endpoint peeled first, so ranks only increase along
  // out-edges and the orientation is acyclic.
  Rng rng(6);
  const Graph g = erdos_renyi_gnm(40, 200, rng);
  const auto dec = degeneracy_order(g);
  const Orientation o = degeneracy_orientation(g);
  std::vector<NodeId> rank(40);
  for (std::size_t i = 0; i < dec.order.size(); ++i) {
    rank[static_cast<std::size_t>(dec.order[i])] = static_cast<NodeId>(i);
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    const NodeId tail = edge_tail(g, o.away(), e);
    const NodeId head = tail == ed.u ? ed.v : ed.u;
    EXPECT_LT(rank[static_cast<std::size_t>(tail)],
              rank[static_cast<std::size_t>(head)]);
  }
}

TEST(Orientation, MaxOutDegreeOverASubsetMatchesBruteForce) {
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    const Graph g = erdos_renyi_gnm(40, 250, rng);
    EdgeMask away(g.edge_count());
    EdgeMask edges(g.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      away.set(e, rng.next_below(2) == 0);
      edges.set(e, rng.next_below(3) != 0);
    }
    NodeId expected = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      NodeId out = 0;
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        const Edge& ed = g.edge(e);
        if (edges[e] && (away[e] ? ed.u : ed.v) == v) ++out;
      }
      expected = std::max(expected, out);
    }
    EXPECT_EQ(max_out_degree(g, away, edges), expected);
  }
  const Graph g = complete_graph(4);
  EXPECT_EQ(max_out_degree(g, EdgeMask(6, true), EdgeMask(6)), 0);
}

}  // namespace
}  // namespace dcl
