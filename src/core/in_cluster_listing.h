// The sparsity-aware in-cluster Kp lister of Section 2.4.3.
//
// Input: one n^δ-cluster C (k nodes, re-identified 0..k-1 per Lemma 2.5)
// whose nodes collectively hold every edge that can participate in a Kp
// with a goal edge of C. The edges have already been reshuffled so that the
// node with new ID i holds exactly the known edges whose tail falls in its
// responsibility range (Section 2.4.3, "Reshuffling the edges").
//
// This routine then
//  1. draws the random partition V → [q] with q = floor(k^{1/p}) parts
//     (every cluster node picks the parts of the O(n/k) original nodes it
//     is responsible for — we draw them from the cluster's seeded RNG);
//  2. assigns node i the p parts given by the base-q digits of i
//     (the k^{1/p}-radix representation of its new ID);
//  3. delivers every held edge to every cluster node whose part multiset
//     contains both endpoint parts, computing the exact per-node send and
//     receive loads that Theorem 2.4 routing would charge;
//  4. has every node enumerate the Kp instances inside its received edge
//     set and report those containing at least one goal edge of C.
//
// Cost model: the returned loads feed a ParallelRoutingCharge in the
// caller; `InClusterChargeMode::worst_case` replaces the measured loads by
// the oblivious O(p² (n/q)²) potential-pair budget that a non-sparsity-
// aware algorithm must schedule for (ablation E7b).
//
// Execution note (docs/PERFORMANCE.md "Cluster-parallel listing"): the
// routine is split into a *plan* half (steps 1-3.5: partition, buckets,
// fragments, representative roster, and ALL load accounting) and an
// *enumerate* half (step 4), so arb_list can shard the enumeration *inside*
// a cluster by representative ranges without touching the ledger — the
// charges are a pure function of the plan.
//
// Orient once: step 4 is local computation, which CONGEST does not charge,
// so its wall time is pure simulator overhead. The plan therefore peels the
// cluster's deduplicated held-edge graph ONCE, orients every edge along
// that degeneracy order, and stores each part-pair fragment as oriented
// out-rows carrying their goal flags. A representative's local graph is a
// subgraph of the cluster graph, so its DAG — the concatenation of its
// covered rows — stays acyclic with out-degree at most the cluster graph's
// degeneracy; the shared kernel (`list_dag_cliques`) lists each of its
// cliques exactly once and filters goal edges from the flags it carries.
// No representative builds a Graph, re-peels, or looks up an edge id.
//
// `in_cluster_plan` is safe to call concurrently for DISTINCT clusters (its
// only shared state is a thread_local interning buffer);
// `in_cluster_enumerate` is read-only on the plan and safe for concurrent
// disjoint ranges of the SAME plan. The caller supplies a pre-split
// per-cluster Rng so results never depend on scheduling.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/listing_types.h"
#include "expander/decomposition.h"
#include "graph/edge_mask.h"
#include "graph/graph.h"

namespace dcl {

/// A directed known edge: `tail` is the endpoint the edge is oriented away
/// from (the reshuffle/grouping key), `head` the other endpoint.
struct KnownEdge {
  NodeId tail = -1;
  NodeId head = -1;
  friend bool operator==(const KnownEdge&, const KnownEdge&) = default;
  friend auto operator<=>(const KnownEdge&, const KnownEdge&) = default;
};

struct InClusterProblem {
  const Graph* base = nullptr;      ///< the ambient n-node graph
  const Cluster* cluster = nullptr;
  /// Known edges per holder (indexed by new cluster ID); already grouped by
  /// responsibility range and deduplicated.
  const std::vector<std::vector<KnownEdge>>* edges_by_holder = nullptr;
  /// Per base-edge-id goal flag (the Êm edges of this ARB-LIST call).
  const EdgeMask* goal_edge = nullptr;
  int p = 4;
  InClusterChargeMode charge_mode = InClusterChargeMode::measured;
};

struct InClusterCost {
  std::int64_t max_send = 0;     ///< max messages sent by one cluster node
  std::int64_t max_recv = 0;     ///< max messages received by one node
  std::uint64_t messages = 0;    ///< total edge copies delivered
  std::int64_t parts = 0;        ///< q, the number of partition parts
  std::uint64_t cliques_reported = 0;
};

/// The compiled, enumeration-ready form of one cluster's listing problem —
/// the plan half of the plan/enumerate split. Holds everything steps 1-3.5
/// produce (partition, interned compact ids, part-pair CSR fragments, the
/// surviving representatives with their per-representative work estimates)
/// plus the full load accounting, which is a pure function of the plan: the
/// ledger charges never depend on how the enumeration half is sharded.
///
/// The plan owns all of its data (no thread_local leakage), so
/// `in_cluster_enumerate` may run on any thread, at any later time, and
/// concurrently for disjoint representative ranges of the SAME plan — the
/// enumeration half only reads it.
struct InClusterPlan {
  /// One compiled part-pair bucket {a, b} (a ≤ b): its deduplicated edges
  /// in compact node ids, each directed along the plan's one degeneracy
  /// order and stored in its source's out-row. The row space is part a's
  /// compact range followed, when a ≠ b, by part b's. Compiled once; every
  /// representative covering {a, b} concatenates these rows into its DAG.
  struct Fragment {
    int part_a = 0;
    int part_b = 0;
    /// Row offsets index into `nbr` — edge-scale in the q=1 one-fragment
    /// regime (a fragment can hold every known edge of the cluster), so
    /// 64-bit like every other edge-position type.
    std::vector<std::uint64_t> off;  ///< row offsets (+1)
    std::vector<NodeId> nbr;         ///< out-neighbors, ascending per row
    std::vector<std::uint8_t> goal;  ///< goal flag, aligned with `nbr`
    std::int64_t goal_count = 0;

    std::int64_t edge_count() const {
      return static_cast<std::int64_t>(nbr.size());
    }
  };

  /// One representative that survived the skip filters (enough edges for a
  /// Kp, at least one goal edge). Representatives below the thresholds are
  /// excluded at plan time — they cannot report anything.
  struct Rep {
    NodeId node = -1;        ///< cluster-local index of the representative
    std::int64_t edges = 0;  ///< local-graph edge count (fragments summed)
    bool all_goal = false;   ///< every received edge is a goal edge
    /// Out-degree² estimate of the representative's enumeration cost:
    /// Σ over local-graph sources u of (deg⁺(u))², with deg⁺(u) counting
    /// u's neighbors of higher compact id (not the oriented out-degree),
    /// accumulated in 64 bits — a single 70 000-degree hub already
    /// overflows 32 (70 000² ≈ 4.9e9).
    std::uint64_t est_work = 0;
    /// `frag_refs` positions: bounded by reps × covered pairs, which scales
    /// with k·p² — 64-bit so a million-node cluster roster cannot wrap.
    std::uint64_t frag_begin = 0;  ///< range into `frag_refs`
    std::uint64_t frag_end = 0;
  };

  const Cluster* cluster = nullptr;  ///< for reporter ids (global node ids)
  int p = 4;
  int q = 1;
  NodeId compact_n = 0;
  /// Loads + parts; `cliques_reported` stays 0 here (it is an enumeration
  /// output, accumulated by the `in_cluster_enumerate` return values).
  InClusterCost cost;
  std::vector<NodeId> compact_to_global;
  std::vector<NodeId> part_begin;  ///< compact range of each part, q+1 fences
  std::vector<Fragment> fragments;
  /// Covered fragment indices per representative, ascending (a, b).
  std::vector<std::uint32_t> frag_refs;
  std::vector<Rep> reps;
  std::uint64_t est_work_total = 0;  ///< Σ reps[i].est_work
};

/// Steps 1-3.5: partition, bucket, compile fragments, pick representatives,
/// and account every load the routing would charge. Pure with respect to
/// `rng` (one plan per cluster per pre-split Rng); safe to call concurrently
/// for DISTINCT clusters.
InClusterPlan in_cluster_plan(const InClusterProblem& problem, Rng& rng);

/// Step 4 for the representative range [rep_begin, rep_end): concatenates
/// each representative's covered fragment rows into its DAG, lists its Kp
/// instances, and reports the goal-containing ones into `out` (reporter =
/// the global id of the representative's cluster node; the order of one
/// representative's reports is unspecified). Returns the number of cliques
/// reported. Read-only on `plan`: concurrent calls over disjoint
/// ranges of the same plan are safe, and a representative's output does not
/// depend on which range contains it — any partition of [0, reps.size())
/// yields the same union of reports.
std::uint64_t in_cluster_enumerate(const InClusterPlan& plan,
                                   std::size_t rep_begin, std::size_t rep_end,
                                   ListingOutput& out);

/// Plan + enumerate everything: reports cliques into `out` and returns the
/// loads. The one-call form used by tests and single-cluster callers.
InClusterCost in_cluster_list(const InClusterProblem& problem, Rng& rng,
                              ListingOutput& out);

}  // namespace dcl
