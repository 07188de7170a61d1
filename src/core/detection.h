// Kp detection and counting on top of listing.
//
// Section 5 of the paper: "all the results in the CONGEST model regarding
// subgraph related problems with H = Kp are directly for listing, and imply
// detection and counting algorithms with the same runtime, yet no better
// results are known for detection or counting for any Kp." These wrappers
// make that implication concrete:
//  * detection — some node must output "Kp exists" iff one does; we run the
//    lister and report whether any node listed anything (with the honest
//    round cost of the full run — per the paper, nothing faster is known);
//  * counting — every node contributes the number of cliques for which it
//    is the canonical reporter (minimum-id member among the nodes that
//    listed it), so the sum over nodes is the exact global count; the sum
//    is aggregated with a convergecast whose O(D) ≤ O(n) extra rounds are
//    charged explicitly.
#pragma once

#include "core/kp_lister.h"
#include "core/listing_types.h"
#include "graph/graph.h"

namespace dcl {

struct DetectionResult {
  bool found = false;
  double rounds = 0.0;
  /// The witness clique if one was found: the lexicographically smallest
  /// listed Kp (sorted node ids), so it depends on the input alone.
  Clique witness;
};

/// Kp detection in the CONGEST model via the Theorem 1.1 lister.
DetectionResult detect_kp(const Graph& g, const KpConfig& cfg);

struct CountingResult {
  std::uint64_t count = 0;
  double rounds = 0.0;            ///< listing + aggregation rounds
  double aggregation_rounds = 0;  ///< the convergecast part alone
};

/// Exact Kp counting: canonical-reporter de-duplication plus a BFS-tree
/// convergecast of the per-node counts.
CountingResult count_kp_distributed(const Graph& g, const KpConfig& cfg);

}  // namespace dcl
