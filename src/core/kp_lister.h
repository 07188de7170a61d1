// The CONGEST Kp-listing algorithms of Theorems 1.1 and 1.2.
//
// `list_kp` drives the full pipeline of Section 2.2:
//   * outer loop (proof of Theorem 1.1): maintain a logical graph G_k with
//     an arboricity-witness orientation of out-degree ≤ A_k; while A_k is
//     above the stopping threshold 2·log2(n)·n^{stop} (stop = max(3/4,
//     p/(p+2)), or 2/3 in k4_fast mode), run procedure LIST, which halves
//     the arboricity while listing every Kp containing a removed edge;
//   * procedure LIST (Theorem 2.8): iterate ARB-LIST with the coupled
//     cluster degree n^δ = A/(2·log2 n) until Er is empty (each call
//     shrinks |Er| geometrically and grows Es by ≤ n^δ arboricity);
//   * final stage: every node broadcasts its remaining outgoing edges to
//     its neighbors (O(A) rounds) and lists all remaining Kp locally.
//
// The returned result carries the audited round ledger, the report total,
// and per-iteration traces for experiments E1/E2/E8. It counts no distinct
// cliques: that is the reader's job, through the collector
// (`ListingOutput::unique_count()` after `list_kp_collect`).
//
// Correctness contract (validated by the test suite): the union of all node
// outputs equals the exact set of Kp instances of the input graph — no
// misses, no false positives.
#pragma once

#include "core/listing_types.h"
#include "graph/graph.h"

namespace dcl {

/// Runs the Theorem 1.1 algorithm (or the Theorem 1.2 K4 variant when
/// cfg.k4_fast is set) and validates nothing — pair with
/// `list_k_cliques(g, p)` for ground truth. Requires cfg.p >= 3 (p = 3
/// degenerates to a Chang-et-al-style triangle lister: no outside-edge
/// learning is needed but the pipeline is identical).
KpListResult list_kp(const Graph& g, const KpConfig& cfg);

/// Same, but also exposes the raw listing output (for validation in tests
/// and examples).
KpListResult list_kp_collect(const Graph& g, const KpConfig& cfg,
                             ListingOutput& out);

}  // namespace dcl
