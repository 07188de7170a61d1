// Stress and failure-injection tests: configuration extremes, forced
// fallbacks, degenerate instances, and ledger consistency — the paths a
// production deployment hits when the input does not look like the happy
// case.
#include <gtest/gtest.h>

#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/workloads.h"
#include "test_util.h"

namespace dcl {
namespace {

void expect_exact(const Graph& g, const KpConfig& cfg) {
  const CliqueSet truth{list_k_cliques(g, cfg.p)};
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);
  expect_result_valid(result, out);
  EXPECT_TRUE(out.cliques() == truth)
      << "expected " << truth.size() << ", got " << out.unique_count();
}

TEST(Stress, ForcedFallbackViaIterationCap) {
  // max_arb_iterations = 1 on a workload needing >= 2 iterations forces
  // the LIST fallback broadcast; correctness must survive.
  Rng rng(1);
  const Graph g = ring_of_cliques_workload(200, rng, 5, 0.5);
  KpConfig cfg;
  cfg.p = 4;
  cfg.max_arb_iterations = 1;
  cfg.stop_scale = 0.05;
  expect_exact(g, cfg);
}

TEST(Stress, ExtremeCouplingScales) {
  Rng rng(2);
  const Graph g = erdos_renyi_gnm(120, 2400, rng);
  for (const double coupling : {0.1, 1.0, 10.0}) {
    KpConfig cfg;
    cfg.p = 4;
    cfg.coupling_scale = coupling;
    cfg.stop_scale = 0.1;
    expect_exact(g, cfg);
  }
}

TEST(Stress, ExtremeStopScales) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnm(120, 2400, rng);
  for (const double stop : {0.01, 1.0, 100.0}) {
    KpConfig cfg;
    cfg.p = 4;
    cfg.stop_scale = stop;  // 100: pure final broadcast; 0.01: deep pipeline
    expect_exact(g, cfg);
  }
}

TEST(Stress, AggressiveBadEdgeThreshold) {
  // bad_scale so low that most cluster nodes become bad: the bad-edge
  // budget may force fallbacks but never wrong output.
  Rng rng(4);
  const Graph g = periphery_workload(160, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.bad_scale = 0.01;
  cfg.coupling_scale = 0.25;
  cfg.stop_scale = 0.15;
  expect_exact(g, cfg);
}

TEST(Stress, HeavyThresholdExtremes) {
  Rng rng(5);
  const Graph g = periphery_workload(160, rng);
  for (const double heavy : {0.01, 100.0}) {
    // 0.01: every outside node is heavy (ships all edges);
    // 100: every outside node is light (everything learned via lists).
    KpConfig cfg;
    cfg.p = 4;
    cfg.heavy_scale = heavy;
    cfg.coupling_scale = 0.25;
    cfg.stop_scale = 0.15;
    expect_exact(g, cfg);
  }
}

TEST(Stress, IsolatedNodesAndLoners) {
  // Isolated vertices plus a dense pocket.
  Rng rng(6);
  Graph pocket = complete_graph(12);
  std::vector<Edge> edges(pocket.edges().begin(), pocket.edges().end());
  const Graph g = Graph::from_edges(64, std::move(edges));  // 52 isolated
  KpConfig cfg;
  cfg.p = 5;
  expect_exact(g, cfg);
}

TEST(Stress, ManySmallComponents) {
  Graph g = complete_graph(6);
  for (int i = 0; i < 9; ++i) {
    g = disjoint_union(g, complete_graph(6));
  }
  KpConfig cfg;
  cfg.p = 4;
  expect_exact(g, cfg);  // 10 × C(6,4) = 150 cliques across components
}

TEST(Stress, LargeCliqueNumberGraph) {
  // One K20 inside sparse noise: p up to 7 must find all nested cliques.
  Rng rng(7);
  const auto planted = planted_clique(100, 20, 0.02, rng);
  for (const int p : {6, 7}) {
    KpConfig cfg;
    cfg.p = p;
    expect_exact(planted.graph, cfg);
  }
}

TEST(Stress, SparseCcDegenerateConfigs) {
  Rng rng(8);
  const Graph g = erdos_renyi_gnm(64, 600, rng);
  for (const double pad : {0.0, 0.5, 5.0}) {
    SparseCcConfig cfg;
    cfg.p = 4;
    cfg.pad_factor = pad;
    ListingOutput out(g.node_count());
    sparse_cc_list(g, cfg, out);
    EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, 4)))
        << "pad=" << pad;
  }
}

TEST(Stress, LedgerLabelsAreStable) {
  // The experiment harnesses key off ledger labels; a rename must fail
  // loudly here rather than silently zeroing a bench column.
  Rng rng(9);
  const Graph g = periphery_workload(200, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.coupling_scale = 0.25;
  cfg.stop_scale = 0.15;
  const auto result = list_kp(g, cfg);
  const auto labels = result.ledger.rounds_by_label();
  for (const char* expected :
       {"expander-decomposition (T2.3)", "cluster-announce", "light-status",
        "reshuffle (T2.4)", "partition-broadcast (T2.4)",
        "edge-distribution (T2.4)", "final-broadcast"}) {
    EXPECT_TRUE(labels.contains(expected)) << "missing label " << expected;
  }
}

TEST(Stress, ReportsComeOnlyFromRealNodes) {
  Rng rng(10);
  const Graph g = clustered_workload(150, rng);
  KpConfig cfg;
  cfg.p = 4;
  ListingOutput out(g.node_count());
  list_kp_collect(g, cfg, out);
  std::uint64_t sum = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) sum += out.reports_of(v);
  EXPECT_EQ(sum, out.total_reports());
}

TEST(Stress, RepeatedRunsShareNoState) {
  // Re-running on the same graph must not accumulate hidden state.
  Rng rng(11);
  const Graph g = erdos_renyi_gnm(100, 2000, rng);
  KpConfig cfg;
  cfg.p = 4;
  ListingOutput first_out(g.node_count());
  ListingOutput third_out(g.node_count());
  const auto first = list_kp_collect(g, cfg, first_out);
  const auto second = list_kp(g, cfg);
  const auto third = list_kp_collect(g, cfg, third_out);
  EXPECT_DOUBLE_EQ(first.total_rounds(), second.total_rounds());
  EXPECT_DOUBLE_EQ(second.total_rounds(), third.total_rounds());
  EXPECT_TRUE(first_out.cliques() == third_out.cliques());
}

}  // namespace
}  // namespace dcl
