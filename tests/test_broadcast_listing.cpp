#include "core/broadcast_listing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "test_util.h"

namespace dcl {
namespace {

EdgeMask away_bits(const Graph& g) {
  return degeneracy_orientation(g).away();
}

/// Each edge of g kept with probability `density`.
EdgeMask random_mask(const Graph& g, double density, Rng& rng) {
  EdgeMask mask(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    mask.set(e, rng.next_bool(density));
  }
  return mask;
}

/// Neighborhood-broadcast listing of g under `current` and `require`
/// (nullptr = no restriction) against the oracle filtered by hand: the
/// p-cliques whose edges are all current and at least one required, each
/// reported once, by its minimum-id member.
void expect_filtered_listing(const Graph& g, int p, const EdgeMask* current,
                             const EdgeMask* require) {
  std::vector<Clique> want;
  std::vector<std::uint64_t> want_reports(
      static_cast<std::size_t>(g.node_count()), 0);
  for (const Clique& c : list_k_cliques(g, p)) {
    bool all_current = true;
    bool holds_required = require == nullptr;
    for (std::size_t x = 0; x < c.size(); ++x) {
      for (std::size_t y = x + 1; y < c.size(); ++y) {
        const EdgeId e = *g.edge_id(c[x], c[y]);
        all_current = all_current && (current == nullptr || (*current)[e]);
        holds_required = holds_required || (*require)[e];
      }
    }
    if (!all_current || !holds_required) continue;
    want.push_back(c);
    ++want_reports[static_cast<std::size_t>(c.front())];
  }
  RoundLedger ledger;
  ListingOutput out(g.node_count());
  BroadcastListingArgs args;
  args.base = &g;
  args.current = current;
  args.p = p;
  args.mode = BroadcastMode::neighborhood;
  args.require_edge = require;
  const auto stats = broadcast_listing(args, ledger, out);
  EXPECT_FALSE(want.empty());
  EXPECT_TRUE(out.cliques() == CliqueSet(want));
  EXPECT_EQ(stats.cliques_reported, want.size());
  EXPECT_EQ(out.total_reports(), want.size());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(out.reports_of(v), want_reports[static_cast<std::size_t>(v)])
        << "node " << v;
  }
}

TEST(BroadcastListing, NeighborhoodModeCostsMaxDegree) {
  Rng rng(1);
  const Graph g = erdos_renyi_gnm(60, 400, rng);
  RoundLedger ledger;
  ListingOutput out(g.node_count());
  BroadcastListingArgs args;
  args.base = &g;
  args.p = 3;
  args.mode = BroadcastMode::neighborhood;
  const auto stats = broadcast_listing(args, ledger, out);
  EXPECT_EQ(stats.rounds, g.max_degree());
  EXPECT_DOUBLE_EQ(ledger.total_rounds(), static_cast<double>(g.max_degree()));
}

TEST(BroadcastListing, OutEdgeModeCostsMaxOutDegreeOnEdges) {
  Rng rng(2);
  const Graph g = erdos_renyi_gnm(60, 500, rng);
  const auto away = away_bits(g);
  RoundLedger ledger;
  ListingOutput out(g.node_count());
  BroadcastListingArgs args;
  args.base = &g;
  args.away = &away;
  args.p = 3;
  args.mode = BroadcastMode::out_edges;
  const auto stats = broadcast_listing(args, ledger, out);
  // The cost is max over edges of the tail-side out-degree <= degeneracy,
  // strictly less than Δ on this dense-ish instance.
  EXPECT_LT(stats.rounds, g.max_degree());
  EXPECT_GT(stats.rounds, 0);
}

TEST(BroadcastListing, ListsExactlyAllCliques) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnm(70, 600, rng);
  const auto away = away_bits(g);
  for (const int p : {3, 4, 5}) {
    RoundLedger ledger;
    ListingOutput out(g.node_count());
    BroadcastListingArgs args;
    args.base = &g;
    args.away = &away;
    args.p = p;
    args.mode = BroadcastMode::out_edges;
    broadcast_listing(args, ledger, out);
    EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(g, p))) << "p=" << p;
    expect_ledger_valid(ledger);
  }
  // A denser seeded input, in both current forms.
  Rng gen(31);
  const Graph dense = erdos_renyi_gnm(60, 900, gen);
  const EdgeMask current = random_mask(dense, 0.8, gen);
  for (const int p : {3, 4, 5}) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    expect_filtered_listing(dense, p, nullptr, nullptr);
    expect_filtered_listing(dense, p, &current, nullptr);
  }
}

TEST(BroadcastListing, CurrentMaskRestrictsGraph) {
  // Keep only a triangle out of K5; only that triangle's K3 remains.
  const Graph g = complete_graph(5);
  const auto away = away_bits(g);
  EdgeMask current(g.edge_count());
  current.set(*g.edge_id(0, 1));
  current.set(*g.edge_id(1, 2));
  current.set(*g.edge_id(0, 2));
  RoundLedger ledger;
  ListingOutput out(g.node_count());
  BroadcastListingArgs args;
  args.base = &g;
  args.current = &current;
  args.away = &away;
  args.p = 3;
  broadcast_listing(args, ledger, out);
  EXPECT_EQ(out.unique_count(), 1u);
  EXPECT_TRUE(out.cliques().contains(Clique{0, 1, 2}));
}

TEST(BroadcastListing, RequireEdgeFilter) {
  // K5 with require_edge on a single edge: only the C(3,1)=3 triangles
  // through that edge are reported.
  const Graph g = complete_graph(5);
  const auto away = away_bits(g);
  EdgeMask require(g.edge_count());
  require.set(*g.edge_id(0, 1));
  RoundLedger ledger;
  ListingOutput out(g.node_count());
  BroadcastListingArgs args;
  args.base = &g;
  args.away = &away;
  args.p = 3;
  args.require_edge = &require;
  broadcast_listing(args, ledger, out);
  EXPECT_EQ(out.unique_count(), 3u);
  for (const auto& c : out.cliques().to_vector()) {
    EXPECT_TRUE(c[0] == 0 && c[1] == 1);
  }
  // Random masks on a seeded input, sparse and dense, in both current
  // forms.
  Rng gen(32);
  const Graph dense = erdos_renyi_gnm(60, 900, gen);
  const EdgeMask current = random_mask(dense, 0.8, gen);
  for (const double density : {0.05, 0.5}) {
    const EdgeMask required = random_mask(dense, density, gen);
    for (const int p : {3, 4, 5}) {
      SCOPED_TRACE(testing::Message() << "p=" << p << " density " << density);
      expect_filtered_listing(dense, p, nullptr, &required);
      expect_filtered_listing(dense, p, &current, &required);
    }
  }
}

TEST(BroadcastListing, EmptyGraphIsFree) {
  const Graph g = empty_graph(5);
  const auto away = away_bits(g);
  RoundLedger ledger;
  ListingOutput out(g.node_count());
  BroadcastListingArgs args;
  args.base = &g;
  args.away = &away;
  args.p = 3;
  const auto stats = broadcast_listing(args, ledger, out);
  EXPECT_EQ(stats.rounds, 0);
  EXPECT_DOUBLE_EQ(ledger.total_rounds(), 0.0);
  EXPECT_EQ(out.unique_count(), 0u);
}

/// Honesty cross-check: the analytically charged cost of the
/// virtual broadcast must equal the congestion of a materialized
/// message-by-message execution of the same pattern — one message per
/// directed edge per round, so the rounds are the busiest directed edge's
/// send count.
TEST(BroadcastListing, ChargeMatchesMaterializedExchange) {
  Rng rng(4);
  const Graph g = erdos_renyi_gnm(40, 220, rng);
  const auto away = away_bits(g);

  RoundLedger ledger;
  ListingOutput out(g.node_count());
  BroadcastListingArgs args;
  args.base = &g;
  args.away = &away;
  args.p = 3;
  args.mode = BroadcastMode::out_edges;
  const auto stats = broadcast_listing(args, ledger, out);

  // Materialize: every node sends each of its out-edges to every neighbor.
  std::map<std::pair<NodeId, NodeId>, std::int64_t> sends_per_edge;
  std::uint64_t sent = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto out_degree = std::ranges::count_if(
        g.incident_edges(v),
        [&](EdgeId e) { return edge_tail(g, away, e) == v; });
    for (const NodeId w : g.neighbors(v)) {
      for (std::int64_t k = 0; k < out_degree; ++k) {
        ++sends_per_edge[{v, w}];
        ++sent;
      }
    }
  }
  std::int64_t measured = 0;
  for (const auto& [edge, count] : sends_per_edge) {
    measured = std::max(measured, count);
  }
  EXPECT_GT(measured, 0);
  EXPECT_EQ(stats.rounds, measured);
  EXPECT_EQ(stats.messages, sent);
}

}  // namespace
}  // namespace dcl
