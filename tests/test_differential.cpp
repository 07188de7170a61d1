// Randomized differential validation of the distributed Kp lister.
//
// The correctness contract of core/kp_lister.h — the union of all node
// outputs equals the exact Kp set, no misses, no false positives — is the
// executable form of Theorems 1.1/1.2. This suite sweeps it against the
// sequential ground-truth oracle (enumeration/clique_enumeration.h) over
// randomized Erdős–Rényi and planted-clique instances for every p in
// {3,...,7}, the regime the deterministic follow-up work (PODC 2022) and
// exact listers treat as table stakes: exhaustive, seed-reproducible
// ground-truth comparison, not spot checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/kp_lister.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dcl {
namespace {

/// Runs the lister and compares its deduplicated output, as a sorted
/// canonical clique list, against brute-force ground truth.
void expect_matches_bruteforce(const Graph& g, const KpConfig& cfg) {
  // Ground truth, sorted and deduped into canonical form.
  std::vector<Clique> truth = list_k_cliques(g, cfg.p);
  std::sort(truth.begin(), truth.end());
  truth.erase(std::unique(truth.begin(), truth.end()), truth.end());

  ListingOutput out(g.node_count());
  const KpListResult result = list_kp_collect(g, cfg, out);
  expect_result_valid(result, out);

  std::vector<Clique> listed = out.cliques().to_vector();
  std::sort(listed.begin(), listed.end());

  ASSERT_EQ(listed.size(), truth.size())
      << "p=" << cfg.p << " n=" << g.node_count() << " m=" << g.edge_count()
      << ": lister found " << listed.size() << " cliques, oracle found "
      << truth.size();
  EXPECT_EQ(listed, truth);
  EXPECT_EQ(out.unique_count(), truth.size());

  // Cross-check the oracle itself with the independent counter.
  EXPECT_EQ(count_k_cliques_naive(g, cfg.p),
            static_cast<std::uint64_t>(truth.size()));
}

// ---- Erdős–Rényi sweep ---------------------------------------------------

class ErdosRenyiDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(ErdosRenyiDifferential, ListerEqualsBruteForce) {
  const auto [p, n, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_matches_bruteforce(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ErdosRenyiDifferential,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7),
                       ::testing::Values(40, 80, 120),
                       ::testing::Values(0.1, 0.25),
                       ::testing::Values(1, 2, 3)));

// ---- Planted-clique sweep ------------------------------------------------
//
// A planted Kq with q > p guarantees a dense pocket of C(q,p) overlapping
// instances inside sparse noise — the adversarial case for the heavy/light
// split and for deduplication across cluster boundaries.

class PlantedCliqueDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PlantedCliqueDifferential, ListerEqualsBruteForce) {
  const auto [p, n, clique_size, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 29);
  const PlantedClique planted = planted_clique(
      static_cast<NodeId>(n), static_cast<NodeId>(clique_size), 0.08, rng);
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_matches_bruteforce(planted.graph, cfg);

  // The planted clique itself must be listed: any p of its members form
  // a Kp; check the lexicographically first one explicitly.
  ListingOutput out(planted.graph.node_count());
  list_kp_collect(planted.graph, cfg, out);
  Clique first(planted.clique_nodes.begin(),
               planted.clique_nodes.begin() + p);
  EXPECT_TRUE(out.cliques().contains(first));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlantedCliqueDifferential,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7),
                       ::testing::Values(60, 110),
                       ::testing::Values(9, 12),
                       ::testing::Values(1, 2)));

// ---- K4-fast differential (Theorem 1.2) ----------------------------------

class K4FastDifferential
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(K4FastDifferential, ListerEqualsBruteForce) {
  const auto [n, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 4241 + 17);
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.k4_fast = true;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_matches_bruteforce(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, K4FastDifferential,
    ::testing::Combine(::testing::Values(50, 100, 120),
                       ::testing::Values(0.12, 0.3),
                       ::testing::Values(1, 2, 3)));

// ---- Closed-form oracles -------------------------------------------------

TEST(ClosedFormDifferential, CompleteGraphHasBinomialManyCliques) {
  for (int p = 3; p <= 7; ++p) {
    const Graph g = complete_graph(12);
    KpConfig cfg;
    cfg.p = p;
    expect_matches_bruteforce(g, cfg);
  }
}

TEST(ClosedFormDifferential, BipartiteGraphsHaveNoTriangles) {
  const Graph g = complete_bipartite(8, 9);
  for (int p = 3; p <= 5; ++p) {
    KpConfig cfg;
    cfg.p = p;
    ListingOutput out(g.node_count());
    const auto result = list_kp_collect(g, cfg, out);
    expect_result_valid(result, out);
    EXPECT_EQ(out.unique_count(), 0u);
  }
}

}  // namespace
}  // namespace dcl
