#include "enumeration/clique_enumeration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/math_util.h"
#include "graph/generators.h"

namespace dcl {
namespace {

TEST(ListKCliques, CompleteGraphClosedForm) {
  const Graph g = complete_graph(8);
  for (int p = 1; p <= 8; ++p) {
    EXPECT_EQ(count_k_cliques(g, p), binomial(8, static_cast<std::uint64_t>(p)))
        << "p=" << p;
  }
  EXPECT_EQ(count_k_cliques(g, 9), 0u);
}

TEST(ListKCliques, BipartiteHasNoTriangles) {
  const Graph g = complete_bipartite(5, 6);
  EXPECT_EQ(count_k_cliques(g, 3), 0u);
  EXPECT_EQ(count_k_cliques(g, 4), 0u);
  EXPECT_EQ(count_k_cliques(g, 2), 30u);  // edges
}

TEST(ListKCliques, SmallPValues) {
  const Graph g = path_graph(5);
  EXPECT_EQ(count_k_cliques(g, 1), 5u);
  EXPECT_EQ(count_k_cliques(g, 2), 4u);
  EXPECT_EQ(count_k_cliques(g, 3), 0u);
  EXPECT_THROW(count_k_cliques(g, 0), std::invalid_argument);
}

TEST(ListKCliques, CycleAndStar) {
  EXPECT_EQ(count_k_cliques(cycle_graph(3), 3), 1u);
  EXPECT_EQ(count_k_cliques(cycle_graph(6), 3), 0u);
  EXPECT_EQ(count_k_cliques(star_graph(10), 3), 0u);
}

TEST(ListKCliques, PlantedCliqueIsFound) {
  Rng rng(1);
  const auto planted = planted_clique(70, 9, 0.03, rng);
  const auto cliques = list_k_cliques(planted.graph, 9);
  CliqueSet set{cliques};
  EXPECT_TRUE(set.contains(planted.clique_nodes));
}

TEST(ListKCliques, ListedCliquesAreRealAndSorted) {
  Rng rng(2);
  const Graph g = erdos_renyi_gnm(50, 400, rng);
  for (const auto& c : list_k_cliques(g, 4)) {
    ASSERT_EQ(c.size(), 4u);
    EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
    EXPECT_TRUE(is_clique(g, c));
  }
}

TEST(ListKCliques, NoDuplicates) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnm(60, 700, rng);
  const auto cliques = list_k_cliques(g, 4);
  CliqueSet set{cliques};
  EXPECT_EQ(set.size(), cliques.size());
}

TEST(ListKCliques, DisjointUnionAddsCounts) {
  const Graph g = disjoint_union(complete_graph(5), complete_graph(4));
  EXPECT_EQ(count_k_cliques(g, 3), binomial(5, 3) + binomial(4, 3));
  EXPECT_EQ(count_k_cliques(g, 4), binomial(5, 4) + 1u);
  EXPECT_EQ(count_k_cliques(g, 5), 1u);
}

/// Goal-filtered kernel runs against brute force. The DAG orients g along
/// a random node rank (any acyclic orientation is a valid kernel input),
/// and `goal` flags undirected edges through an n×n matrix.
class GoalDagCheck {
 public:
  GoalDagCheck(const Graph& g, Rng& rng)
      : g_(g), n_(static_cast<std::size_t>(g.node_count())), rank_(n_) {
    for (std::size_t v = 0; v < n_; ++v) rank_[v] = static_cast<NodeId>(v);
    rng.shuffle(rank_);
  }

  /// Every p-clique of g holding a flagged edge, by brute force over
  /// id-increasing chains, each sorted.
  std::vector<Clique> expected(int p, const std::vector<std::uint8_t>& goal) {
    std::vector<Clique> out;
    Clique chain;
    const auto extend = [&](auto&& self, NodeId from) -> void {
      if (static_cast<int>(chain.size()) == p) {
        bool holds = false;
        for (std::size_t i = 0; i < chain.size(); ++i) {
          for (std::size_t j = i + 1; j < chain.size(); ++j) {
            holds = holds || goal[index(chain[i], chain[j])] != 0;
          }
        }
        if (holds) out.push_back(chain);
        return;
      }
      for (NodeId v = from; v < g_.node_count(); ++v) {
        bool adjacent = true;
        for (const NodeId u : chain) adjacent = adjacent && g_.has_edge(u, v);
        if (!adjacent) continue;
        chain.push_back(v);
        self(self, v + 1);
        chain.pop_back();
      }
    };
    extend(extend, 0);
    return out;
  }

  /// The kernel's goal-filtered listing, over `splits` root ranges, each
  /// row sorted, rows in ascending order.
  std::vector<Clique> listed(int p, const std::vector<std::uint8_t>& goal,
                             NodeId splits) {
    CliqueDag dag;
    dag.offsets.assign(n_ + 1, 0);
    for (NodeId v = 0; v < g_.node_count(); ++v) {
      for (const NodeId w : g_.neighbors(v)) {
        if (rank_[static_cast<std::size_t>(w)] <
            rank_[static_cast<std::size_t>(v)]) {
          continue;
        }
        dag.adj.push_back(w);
        dag.goal.push_back(goal[index(v, w)]);
      }
      dag.offsets[static_cast<std::size_t>(v) + 1] = dag.adj.size();
    }
    CliqueScratch scratch;
    std::vector<NodeId> flat;
    const NodeId n = g_.node_count();
    for (NodeId s = 0; s < splits; ++s) {
      list_dag_cliques(dag, p, scratch, flat, s * n / splits,
                       (s + 1) * n / splits);
    }
    std::vector<Clique> rows;
    const auto width = static_cast<std::size_t>(p);
    for (std::size_t at = 0; at < flat.size(); at += width) {
      Clique c(flat.begin() + static_cast<std::ptrdiff_t>(at),
               flat.begin() + static_cast<std::ptrdiff_t>(at + width));
      std::sort(c.begin(), c.end());
      rows.push_back(std::move(c));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  std::size_t index(NodeId u, NodeId v) const {
    return static_cast<std::size_t>(u) * n_ + static_cast<std::size_t>(v);
  }

 private:
  const Graph& g_;
  std::size_t n_;
  std::vector<NodeId> rank_;
};

TEST(ListKCliques, GoalFilterMatchesBruteForceOnRandomMasks) {
  // Random goal masks, sparse (about 2% of the edges) and dense (about
  // half), at the depths that run the trimmed recursion and end in the
  // label-scanned last two levels. The listing is compared as a sorted
  // list, so a clique listed twice fails too.
  Rng rng(61);
  const Graph g = erdos_renyi_gnp(34, 0.55, rng);
  GoalDagCheck check(g, rng);
  for (const int p : {4, 5, 6}) {
    for (const double density : {0.02, 0.5}) {
      std::vector<std::uint8_t> goal(
          static_cast<std::size_t>(g.node_count()) *
              static_cast<std::size_t>(g.node_count()),
          0);
      for (const Edge& e : g.edges()) {
        const std::uint8_t flag = rng.next_bool(density) ? 1 : 0;
        goal[check.index(e.u, e.v)] = flag;
        goal[check.index(e.v, e.u)] = flag;
      }
      const auto want = check.expected(p, goal);
      SCOPED_TRACE(testing::Message() << "p=" << p << " density " << density);
      EXPECT_FALSE(want.empty());
      EXPECT_EQ(check.listed(p, goal, 1), want);
      EXPECT_EQ(check.listed(p, goal, 5), want);
    }
  }
}

TEST(ListKCliques, GoalFilterFindsEverySingleGoalEdgePosition) {
  // One flagged edge at a time, over every edge of a dense graph: in the
  // DAG path order of some clique the flag then sits on the root edge, a
  // prefix edge, an edge from the prefix into the last two levels, or the
  // last-level (x, w) edge itself; only the last two are seen by the label
  // scan of the last levels, through the goal counts and the aligned flag.
  Rng rng(62);
  const Graph g = erdos_renyi_gnp(13, 0.8, rng);
  GoalDagCheck check(g, rng);
  std::vector<std::uint8_t> goal(
      static_cast<std::size_t>(g.node_count()) *
          static_cast<std::size_t>(g.node_count()),
      0);
  for (const int p : {4, 5, 6}) {
    for (const Edge& e : g.edges()) {
      goal[check.index(e.u, e.v)] = 1;
      goal[check.index(e.v, e.u)] = 1;
      SCOPED_TRACE(testing::Message() << "p=" << p << " edge " << e.u << "-"
                                      << e.v);
      EXPECT_EQ(check.listed(p, goal, 1), check.expected(p, goal));
      goal[check.index(e.u, e.v)] = 0;
      goal[check.index(e.v, e.u)] = 0;
    }
  }
}

TEST(ListKCliques, CountMatchesNaiveFromFourToSeven) {
  // The counting walk ends in the same label scan as listing; it must
  // agree with the independent naive counter at every trimmed depth.
  Rng rng(63);
  const Graph dense = erdos_renyi_gnp(40, 0.6, rng);
  const Graph sparse = erdos_renyi_gnm(200, 2400, rng);
  for (int p = 4; p <= 7; ++p) {
    EXPECT_EQ(count_k_cliques(dense, p), count_k_cliques_naive(dense, p))
        << "dense p=" << p;
    EXPECT_EQ(count_k_cliques(sparse, p), count_k_cliques_naive(sparse, p))
        << "sparse p=" << p;
  }
}

// Cross-check of the two independent counting implementations across a
// parameter grid — the oracle-validates-oracle property sweep.
class EnumerationCrossCheck
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(EnumerationCrossCheck, DegeneracyDagMatchesNaive) {
  const auto [n, p, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  const auto fast = count_k_cliques(g, p);
  const auto naive = count_k_cliques_naive(g, p);
  EXPECT_EQ(fast, naive);
  EXPECT_EQ(list_k_cliques(g, p).size(), fast);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnumerationCrossCheck,
    ::testing::Combine(::testing::Values(20, 45, 70),
                       ::testing::Values(3, 4, 5, 6),
                       ::testing::Values(0.1, 0.3, 0.5),
                       ::testing::Values(1, 2)));

TEST(MaximalCliques, TriangleWithPendant) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}, {0, 3}});
  const auto maximal = maximal_cliques(g);
  CliqueSet set{maximal};
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.contains(Clique{0, 1, 2}));
  EXPECT_TRUE(set.contains(Clique{0, 3}));
}

TEST(MaximalCliques, CompleteGraphHasOne) {
  const auto maximal = maximal_cliques(complete_graph(6));
  ASSERT_EQ(maximal.size(), 1u);
  EXPECT_EQ(maximal[0].size(), 6u);
}

TEST(MaximalCliques, CountMatchesMoonMoserOnSmallCases) {
  // C(3,3,3) complete tripartite has 3^3 = 27 maximal cliques
  // (Moon–Moser); build it directly.
  std::vector<Edge> edges;
  for (NodeId u = 0; u < 9; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < 9; ++v) {
      if (u / 3 != v / 3) edges.push_back({u, v});
    }
  }
  const Graph g = Graph::from_edges(9, std::move(edges));
  EXPECT_EQ(maximal_cliques(g).size(), 27u);
}

TEST(MaximalCliques, ConsistentWithKpListing) {
  // Cross-validation between the two enumeration entry points: every
  // p-subset of a maximal clique is a Kp the lister must report, and
  // every listed Kp must be contained in some maximal clique.
  Rng rng(11);
  const Graph g = erdos_renyi_gnp(40, 0.25, rng);
  const auto maximal = maximal_cliques(g);
  const int p = 3;
  const CliqueSet listed{list_k_cliques(g, p)};
  for (const auto& mc : maximal) {
    if (mc.size() < static_cast<std::size_t>(p)) continue;
    // Check the p-prefix and p-suffix subsets (spot checks; the full
    // subset lattice is covered by the differential suite).
    Clique prefix(mc.begin(), mc.begin() + p);
    Clique suffix(mc.end() - p, mc.end());
    EXPECT_TRUE(listed.contains(prefix));
    EXPECT_TRUE(listed.contains(suffix));
  }
  for (const auto& clique : listed.to_vector()) {
    bool inside_some_maximal = false;
    for (const auto& mc : maximal) {
      if (std::includes(mc.begin(), mc.end(), clique.begin(), clique.end())) {
        inside_some_maximal = true;
        break;
      }
    }
    EXPECT_TRUE(inside_some_maximal);
  }
}

TEST(CliqueNumber, KnownValues) {
  EXPECT_EQ(clique_number(complete_graph(7)), 7);
  EXPECT_EQ(clique_number(complete_bipartite(4, 4)), 2);
  EXPECT_EQ(clique_number(empty_graph(5)), 1);
  EXPECT_EQ(clique_number(empty_graph(0)), 0);
  Rng rng(5);
  const auto planted = planted_clique(50, 10, 0.02, rng);
  EXPECT_GE(clique_number(planted.graph), 10);
}

TEST(CliqueSetOps, InsertContainsDifference) {
  // The same clique given twice, in two vertex orders, is one member.
  const CliqueSet a({{3, 1, 2}, {1, 2, 3}});
  EXPECT_TRUE(a.contains(Clique{2, 3, 1}));
  EXPECT_FALSE(a.contains(Clique{1, 2, 4}));
  EXPECT_EQ(a.size(), 1u);

  const CliqueSet b({{1, 2, 3}, {4, 5, 6}});
  const auto diff = b.difference(a);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], (Clique{4, 5, 6}));
  EXPECT_TRUE(a.difference(b).empty());
  EXPECT_FALSE(a == b);
}

TEST(IsClique, RejectsRepeatsAndNonEdges) {
  const Graph g = complete_graph(4);
  EXPECT_TRUE(is_clique(g, std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_FALSE(is_clique(g, std::vector<NodeId>{0, 0, 1}));
  const Graph h = path_graph(3);
  EXPECT_FALSE(is_clique(h, std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(is_clique(h, std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(is_clique(h, std::vector<NodeId>{}));
}

}  // namespace
}  // namespace dcl
