// End-to-end Kp-lister parameter sweeps — the long-running part of the
// matrix (n=140, p=7 dominates the tier-1 wall clock), split out of
// test_kp_lister.cpp and labeled `slow` in CMake so `ctest -LE slow` gives
// a fast inner loop. CI still runs the full matrix.
#include <gtest/gtest.h>

#include <tuple>

#include "core/kp_lister.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dcl {
namespace {

/// The paper's correctness contract: the union of node outputs equals the
/// exact Kp set — no misses, no false positives.
void expect_exact(const Graph& g, const KpConfig& cfg) {
  const CliqueSet truth{list_k_cliques(g, cfg.p)};
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);
  expect_result_valid(result, out);
  const auto missing = truth.difference(out.cliques());
  const auto extra = out.cliques().difference(truth);
  EXPECT_TRUE(missing.empty())
      << missing.size() << " cliques missed (of " << truth.size() << ")";
  EXPECT_TRUE(extra.empty()) << extra.size() << " false positives";
  EXPECT_EQ(out.unique_count(), truth.size());
}

class KpListerSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(KpListerSweep, ExactListing) {
  const auto [n, p, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 1000 + 7);
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_exact(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KpListerSweep,
    ::testing::Combine(::testing::Values(48, 96, 140),
                       ::testing::Values(3, 4, 5, 6, 7),
                       ::testing::Values(0.08, 0.2, 0.4),
                       ::testing::Values(1, 2)));

class K4FastSweep : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(K4FastSweep, ExactListing) {
  const auto [n, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.k4_fast = true;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_exact(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, K4FastSweep,
    ::testing::Combine(::testing::Values(60, 120, 160),
                       ::testing::Values(0.1, 0.25, 0.45),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace dcl
