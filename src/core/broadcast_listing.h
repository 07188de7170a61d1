// Neighborhood-broadcast listing.
//
// Two uses in the paper:
//  * the final stage of Theorem 1.1: once the arboricity bound A drops to
//    the target, "every node broadcasts its outgoing edges to all its
//    neighbors in O(A) rounds ... which ends the algorithm by listing all
//    remaining Kp instances" (out-edge mode: round cost = max out-degree);
//  * the trivial prior-art baseline for p ≥ 6 (Remark 2.6 / §1): every node
//    broadcasts its full neighborhood; round cost = max degree Δ.
//
// Correctness of the local listing: after the broadcast, node v knows every
// edge {x,y} with x,y ∈ N(v) — in out-edge mode because the edge is
// outgoing from x or y, both neighbors of v; in neighborhood mode directly.
// Hence v can list every Kp containing v; the union over nodes is every Kp.
//
// The exchange is *not* materialized message-by-message (it would be
// Θ(Σ_v deg(v)·outdeg(v)) messages); instead the exact CONGEST cost
// — max over directed current edges (u→v) of the number of list entries u
// sends — is charged, and the equivalent post-broadcast knowledge is used
// directly for the local listing. A test cross-checks the charge against
// the per-directed-edge send counts of a materialized exchange.
#pragma once

#include <optional>
#include <vector>

#include "congest/round_ledger.h"
#include "core/listing_types.h"
#include "graph/edge_mask.h"
#include "graph/graph.h"

namespace dcl {

enum class BroadcastMode {
  out_edges,     ///< send only the edges oriented away from the sender
  neighborhood,  ///< send the full adjacency list
};

struct BroadcastListingArgs {
  const Graph* base = nullptr;
  /// Logical current edge set (nullptr = all edges of base).
  const EdgeMask* current = nullptr;
  /// Orientation bits (away-from-lower-endpoint) — required in out_edges
  /// mode.
  const EdgeMask* away = nullptr;
  int p = 4;
  BroadcastMode mode = BroadcastMode::out_edges;
  /// When set, only cliques containing >= 1 edge with this flag are
  /// reported (the LIST fallback lists only cliques touching Er).
  const EdgeMask* require_edge = nullptr;
  const char* label = "broadcast-listing";
};

struct BroadcastListingStats {
  std::int64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t cliques_reported = 0;
};

/// Charges the exact broadcast cost to `ledger` and reports every remaining
/// clique (reporter = its minimum-id member, the standard tie-break).
BroadcastListingStats broadcast_listing(const BroadcastListingArgs& args,
                                        RoundLedger& ledger,
                                        ListingOutput& out);

}  // namespace dcl
