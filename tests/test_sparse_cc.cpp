#include "core/sparse_cc.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dcl {
namespace {

void expect_exact(const Graph& g, const SparseCcConfig& cfg) {
  const CliqueSet truth{list_k_cliques(g, cfg.p)};
  ListingOutput out(g.node_count());
  const auto result = sparse_cc_list(g, cfg, out);
  expect_ledger_valid(result.ledger);
  EXPECT_TRUE(out.cliques() == truth)
      << "truth=" << truth.size() << " got=" << out.unique_count();
  EXPECT_EQ(out.unique_count(), truth.size());
}

class SparseCcSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(SparseCcSweep, ExactListing) {
  const auto [n, p, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 5);
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  SparseCcConfig cfg;
  cfg.p = p;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_exact(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SparseCcSweep,
    ::testing::Combine(::testing::Values(40, 81, 128),
                       ::testing::Values(3, 4, 5, 6),
                       ::testing::Values(0.1, 0.3, 0.5),
                       ::testing::Values(1, 2)));

TEST(SparseCc, CompleteAndBipartite) {
  SparseCcConfig cfg;
  cfg.p = 4;
  expect_exact(complete_graph(20), cfg);
  const Graph bip = complete_bipartite(15, 15);
  ListingOutput out(bip.node_count());
  sparse_cc_list(bip, cfg, out);
  EXPECT_EQ(out.unique_count(), 0u);
}

TEST(SparseCc, FakeEdgePaddingDoesNotPolluteOutput) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnm(60, 300, rng);
  SparseCcConfig padded;
  padded.p = 3;
  padded.pad_factor = 2.0;  // large enough to engage at n = 60
  ListingOutput out(g.node_count());
  const auto result = sparse_cc_list(g, padded, out);
  EXPECT_GT(result.fake_edges, 0) << "padding should have engaged";
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, 3)))
      << "fake edges leaked into the listing";
}

TEST(SparseCc, EachRepresentativeReportsItsLocalGraphsCliques) {
  // The one listing against its definition: the representative (minimum
  // id) of each part multiset reports exactly the Kp of the real edges
  // whose part pair its multiset covers, and no other node reports.
  // Without padding, node v's part is the v-th draw of the seeded Rng.
  for (const int p : {3, 4, 5}) {
    Rng graph_rng(static_cast<std::uint64_t>(40 + p));
    const Graph g = erdos_renyi_gnm(200, 3000, graph_rng);
    const NodeId n = g.node_count();
    SparseCcConfig cfg;
    cfg.p = p;
    cfg.seed = 11;
    ListingOutput out(n);
    const auto result = sparse_cc_list(g, cfg, out);

    const auto q = static_cast<int>(result.parts);
    Rng rng(cfg.seed);
    std::vector<int> part(static_cast<std::size_t>(n));
    for (auto& pt : part) {
      pt = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q)));
    }
    const PartMultisets msets = part_multisets(n, q, p);
    std::vector<bool> is_rep(static_cast<std::size_t>(n), false);
    std::uint64_t reports = 0;
    for (std::size_t m = 0; m < msets.parts.size(); ++m) {
      std::vector<Edge> local;
      for (const Edge& e : g.edges()) {
        if (multiset_covers(msets.parts[m],
                            part[static_cast<std::size_t>(e.u)],
                            part[static_cast<std::size_t>(e.v)])) {
          local.push_back(e);
        }
      }
      const auto cliques =
          list_k_cliques(Graph::from_edges(n, std::move(local)), p).size();
      const NodeId rep = msets.rep[m];
      is_rep[static_cast<std::size_t>(rep)] = true;
      EXPECT_EQ(out.reports_of(rep), cliques) << "p=" << p << " rep " << rep;
      reports += cliques;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (!is_rep[static_cast<std::size_t>(v)]) {
        EXPECT_EQ(out.reports_of(v), 0u) << "p=" << p << " node " << v;
      }
    }
    EXPECT_EQ(out.total_reports(), reports) << "p=" << p;
    EXPECT_GT(out.unique_count(), 0u) << "p=" << p;
  }
}

TEST(SparseCc, RoundsGrowWithDensity) {
  // The sparsity-aware property: same n, more edges, more rounds (beyond
  // the Õ(1) floor).
  Rng rng(4);
  const NodeId n = 128;
  SparseCcConfig cfg;
  cfg.p = 3;
  const Graph sparse = erdos_renyi_gnm(n, 500, rng);
  const Graph dense = erdos_renyi_gnm(n, 6000, rng);
  ListingOutput o1(n), o2(n);
  const auto r_sparse = sparse_cc_list(sparse, cfg, o1);
  const auto r_dense = sparse_cc_list(dense, cfg, o2);
  EXPECT_LT(r_sparse.total_rounds(), r_dense.total_rounds());
}

TEST(SparseCc, Lemma27BucketBalance) {
  // With q parts, each pair bucket should hold Õ(m/q²) edges — Lemma 2.7
  // promises ≤ 6·q_prob²·m with q_prob = 1/q, i.e. ≤ 6m/q².
  Rng rng(5);
  const NodeId n = 216;  // q = floor(216^{1/3}) = 6
  const Graph g = erdos_renyi_gnm(n, 8000, rng);
  SparseCcConfig cfg;
  cfg.p = 3;
  ListingOutput out(n);
  const auto result = sparse_cc_list(g, cfg, out);
  ASSERT_EQ(result.parts, 6);
  const double bound = 6.0 * static_cast<double>(g.edge_count()) /
                       static_cast<double>(result.parts * result.parts);
  EXPECT_LE(static_cast<double>(result.max_pair_bucket), bound);
}

TEST(SparseCc, ReceiveLoadMatchesTheorem) {
  // Theorem 1.3 accounting: max receive load O(p² m / n^{2/p}); with the
  // constant slack 8 this must hold on ER instances.
  Rng rng(6);
  const NodeId n = 125;  // q = 5 for p = 3
  const Graph g = erdos_renyi_gnm(n, 4000, rng);
  SparseCcConfig cfg;
  cfg.p = 3;
  ListingOutput out(n);
  const auto result = sparse_cc_list(g, cfg, out);
  const double bound = 8.0 * 9.0 * static_cast<double>(g.edge_count()) /
                       std::pow(static_cast<double>(n), 2.0 / 3.0);
  EXPECT_LE(static_cast<double>(result.max_recv_load), bound);
}

TEST(SparseCc, TinyGraphs) {
  SparseCcConfig cfg;
  cfg.p = 3;
  ListingOutput out0(0);
  sparse_cc_list(empty_graph(0), cfg, out0);
  EXPECT_EQ(out0.unique_count(), 0u);
  ListingOutput out1(1);
  sparse_cc_list(empty_graph(1), cfg, out1);
  EXPECT_EQ(out1.unique_count(), 0u);
  ListingOutput out3(3);
  sparse_cc_list(complete_graph(3), cfg, out3);
  EXPECT_EQ(out3.unique_count(), 1u);
}

TEST(SparseCc, RejectsSmallP) {
  SparseCcConfig cfg;
  cfg.p = 2;
  ListingOutput out(3);
  EXPECT_THROW(sparse_cc_list(complete_graph(3), cfg, out),
               std::invalid_argument);
}

TEST(SparseCc, DeterministicUnderSeed) {
  Rng rng(7);
  const Graph g = erdos_renyi_gnm(80, 1500, rng);
  SparseCcConfig cfg;
  cfg.p = 4;
  cfg.seed = 99;
  ListingOutput o1(g.node_count()), o2(g.node_count());
  const auto a = sparse_cc_list(g, cfg, o1);
  const auto b = sparse_cc_list(g, cfg, o2);
  EXPECT_DOUBLE_EQ(a.total_rounds(), b.total_rounds());
  EXPECT_TRUE(o1.cliques() == o2.cliques());
}

TEST(SparseCc, ExactOnDenseGnm) {
  Rng rng(8);
  const Graph g = erdos_renyi_gnm(60, 900, rng);
  SparseCcConfig cfg;
  cfg.p = 4;
  expect_exact(g, cfg);
}

}  // namespace
}  // namespace dcl
