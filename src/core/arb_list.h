// Algorithm ARB-LIST (Theorem 2.9) — one decomposition pass of the lister.
//
// Given the current logical graph (edge sets Es ∪ Er over the base
// communication graph, with an orientation witnessing arboricity ≤ A),
// one call:
//  1. runs the δ-expander decomposition on (V, Er), splitting Er into
//     clusters E'm, sparse part E's (merged into Es with its orientation)
//     and leftover E'r (Theorem 2.3 cost charged);
//  2. classifies every cluster's outside neighbors as C-heavy/C-light
//     (threshold n^{1/4}; Section 3's A/n^{1/3} in k4_fast mode), ships
//     heavy nodes' outgoing edges into the cluster in chunks;
//  3. declares nodes with too many C-light neighbors *bad*, moves Em edges
//     between two bad nodes into Êr (they stop being goal edges but remain
//     usable for communication);
//  4. has every good cluster node exchange its C-light neighbor list with
//     all outside neighbors to learn the remaining outside edges
//     (Section 2.4.1; skipped in k4_fast mode);
//  5. reshuffles all known edges to responsibility-range holders via
//     Theorem 2.4 routing, runs the sparsity-aware in-cluster lister
//     (Section 2.4.3) on every cluster in parallel;
//  6. in k4_fast mode, additionally runs the sequential per-cluster C-light
//     probing of Section 3 so light nodes list the K4s the cluster cannot.
//
// Net effect on the edge sets: Em \ bad becomes Êm (removed and listed),
// Es grows by E's, and the new Er is E'r ∪ bad. Every Kp of the old
// Es ∪ Er with at least one Êm edge has been reported.
#pragma once

#include "common/rng.h"
#include "congest/round_ledger.h"
#include "core/listing_types.h"
#include "graph/edge_mask.h"
#include "graph/graph.h"

namespace dcl {

struct ArbListContext {
  const Graph* base = nullptr;  ///< the physical communication graph
  RoundLedger* ledger = nullptr;
  const KpConfig* cfg = nullptr;
  Rng* rng = nullptr;
  ListingOutput* out = nullptr;
  /// Logical edge sets over base edge ids; mutated in place.
  EdgeMask* es_mask = nullptr;
  EdgeMask* er_mask = nullptr;
  /// Orientation (away-from-lower bit per base edge); entries of edges
  /// newly placed into Es are updated to the decomposition's orientation.
  EdgeMask* away = nullptr;
  /// n^δ, coupled to the arboricity bound: A / (2·log2 n) (Section 2.2).
  std::int64_t cluster_degree = 1;
  /// A — the current max-out-degree bound n^d.
  std::int64_t arboricity_bound = 1;
  /// Fault state threaded by the driver, which also carries the
  /// crash-degraded flag. nullptr runs on an inert session: every hook is a
  /// no-op. Crash detection runs at the sequential phase boundaries only
  /// (entry, pre-step-5, post-plan) — fault decisions mutate the recorded
  /// schedule and must never run inside a parallel region.
  FaultSession* faults = nullptr;
};

/// Executes one ARB-LIST call; returns the iteration trace (er/es/goal/bad
/// counts, heavy statistics, max learned edges, rounds charged).
ArbIterationTrace arb_list(ArbListContext& ctx);

}  // namespace dcl
