#include "core/broadcast_listing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>

#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "test_util.h"

namespace dcl {
namespace {

EdgeMask away_bits(const Graph& g) {
  const Orientation o = degeneracy_orientation(g);
  EdgeMask away(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    away.set(e, o.away_from_lower(e));
  }
  return away;
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
  const Orientation o = degeneracy_orientation(g);
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
    for (const NodeId w : g.neighbors(v)) {
      for ([[maybe_unused]] const NodeId head : o.out_neighbors(v)) {
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
