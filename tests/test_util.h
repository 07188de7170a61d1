// Shared assertion helpers for the test suites.
//
// The round ledger is the audited cost record every simulated algorithm
// returns; these helpers enforce its structural invariants wherever a
// ledger crosses a test's hands:
//  * every entry charges a non-negative round count, so the cumulative
//    round total is monotone non-decreasing across entries (appending a
//    phase can never make the algorithm cheaper);
//  * the running total matches total_rounds();
//  * the per-kind breakdown sums back to the total.
#pragma once

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "congest/round_ledger.h"
#include "core/listing_types.h"

namespace dcl {

inline void expect_ledger_valid(const RoundLedger& ledger) {
  double cumulative = 0.0;
  for (const auto& entry : ledger.entries()) {
    // Non-negative charges are exactly what makes the running total
    // monotone non-decreasing entry by entry.
    EXPECT_GE(entry.rounds, 0.0)
        << "negative round charge in entry '" << entry.label << "'";
    cumulative += entry.rounds;
    EXPECT_FALSE(entry.label.empty()) << "unlabeled ledger entry";
  }
  EXPECT_NEAR(ledger.total_rounds(), cumulative, 1e-9);
  const double by_kind = ledger.rounds_of_kind(CostKind::exchange) +
                         ledger.rounds_of_kind(CostKind::routing) +
                         ledger.rounds_of_kind(CostKind::analytic);
  EXPECT_NEAR(by_kind, ledger.total_rounds(), 1e-9)
      << "per-kind breakdown does not sum to the total";
}

/// Structural invariants of a lister result and the collector it filled:
/// a valid ledger, coherent report counts, and monotone per-iteration
/// round traces.
inline void expect_result_valid(const KpListResult& result,
                                const ListingOutput& out) {
  expect_ledger_valid(result.ledger);
  EXPECT_EQ(result.total_reports, out.total_reports());
  EXPECT_GE(out.total_reports(), out.unique_count());
  if (out.unique_count() > 0) {
    EXPECT_GE(out.duplication_factor(), 1.0);
  }
  for (const auto& trace : result.list_traces) {
    EXPECT_GE(trace.rounds, 0.0);
    EXPECT_LE(trace.arboricity_bound_after, trace.arboricity_bound_before);
    EXPECT_LE(trace.edges_after, trace.edges_before);
  }
  for (const auto& trace : result.arb_traces) {
    EXPECT_GE(trace.rounds, 0.0);
    EXPECT_LE(trace.er_after, trace.er_before);
    EXPECT_GE(trace.er_before, 0);
  }
}

/// A uniformly random `size`-subset of [0, universe), sorted.
inline Clique random_clique(Rng& rng, std::size_t size, NodeId universe) {
  std::set<NodeId> s;
  while (s.size() < size) {
    s.insert(static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(universe))));
  }
  return {s.begin(), s.end()};
}

}  // namespace dcl
