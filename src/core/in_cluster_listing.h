// The sparsity-aware in-cluster Kp lister of Section 2.4.3.
//
// Input: one n^δ-cluster C (k nodes, re-identified 0..k-1 per Lemma 2.5)
// whose nodes collectively hold every edge that can participate in a Kp
// with a goal edge of C. The edges have already been reshuffled so that the
// node with new ID i holds exactly the known edges whose orientation tail
// falls in its responsibility range (Section 2.4.3, "Reshuffling the
// edges"); they are named by their base edge ids.
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
//  3.5 (simulation only) deduplicates the held copies by edge id, interns
//     their endpoints into compact ids in ascending global order, and
//     orients the resulting cluster graph once along its degeneracy order;
//  4. has every node enumerate the Kp instances inside its received edge
//     set and report those containing at least one goal edge of C —
//     simulated by listing the oriented cluster graph once and crediting
//     each clique to every representative whose multiset covers it: the
//     clique is appended to the output once, and each covering
//     representative's report count moves by the run's cliques of that
//     part tuple, once per tuple.
//
// Cost model: the returned loads feed a ParallelRoutingCharge in the
// caller; `InClusterChargeMode::worst_case` replaces the measured loads by
// the oblivious O(p² (n/q)²) potential-pair budget that a non-sparsity-
// aware algorithm must schedule for (`oblivious_pair_budget`, ablation
// E7b).
//
// Execution note (docs/PERFORMANCE.md "Cluster-parallel listing"): the
// routine is split into a *plan* half (steps 1-3.5: partition, buckets,
// the oriented cluster graph, representative roster, and ALL load
// accounting) and an *enumerate* half (step 4), so arb_list can shard the
// enumeration *inside* a cluster by DAG-root ranges without touching the
// ledger — the charges are a pure function of the plan.
//
// List each cluster once: step 4 is local computation, which CONGEST does
// not charge, so its wall time is pure simulator overhead. Representative
// R's local graph is exactly the set of cluster edges whose part pair R
// covers, so a Kp lies in R's local graph iff R's multiset covers every
// pair of the clique's parts — iff m_a ≥ min(c_a, 2) for every part a,
// with c_a the clique's vertices in part a and m_a R's multiplicity of a
// (`covers_part_tuple` in core/part_tables.h, the rule the CONGESTED-CLIQUE
// lister shares).
// The plan therefore peels the cluster's deduplicated held-edge graph ONCE
// and orients it along that degeneracy order into one goal-flagged
// `CliqueDag`; the shared kernel (`list_dag_cliques`) lists each of its
// goal-holding cliques exactly once, and every clique is reported once per
// representative covering it. A goal edge of a covered clique is in the
// representative's local graph, so the reports — reporter and clique —
// are exactly those of one listing per representative local graph. The
// whole run reaches the output as one `ListingOutput::report_rows` batch
// built by `PartTupleCovers::report_rows`: each clique is appended once,
// and each representative is credited, once per part tuple it covers,
// with the number of the run's cliques of that tuple.
//
// `in_cluster_plan` is safe to call concurrently for DISTINCT clusters (its
// only shared state is thread_local dedup and interning scratch); the
// enumerate half is read-only on the plan and safe for concurrent disjoint
// root ranges of the SAME plan. The caller supplies a pre-split per-cluster
// Rng so results never depend on scheduling.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/listing_types.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "expander/decomposition.h"
#include "graph/edge_mask.h"
#include "graph/graph.h"

namespace dcl {

struct InClusterProblem {
  const Graph* base = nullptr;      ///< the ambient n-node graph
  const Cluster* cluster = nullptr;
  /// Base edge ids held per holder (indexed by new cluster ID), grouped by
  /// the responsibility range of each edge's orientation tail. A holder's
  /// list may repeat an id, and several holders may hold copies of the same
  /// edge: every copy counts toward the loads, and the plan lists each
  /// distinct edge once. Ids outside [0, base->edge_count()) throw
  /// `std::invalid_argument`.
  const std::vector<std::vector<EdgeId>>* edges_by_holder = nullptr;
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
/// produce (partition, interned compact ids, the oriented cluster graph,
/// the surviving representatives) plus the full load accounting, which is
/// a pure function of the plan: the ledger charges never depend on how the
/// enumeration half is sharded.
///
/// The plan owns all of its data (no thread_local leakage), so the
/// enumeration half may run on any thread, at any later time, and
/// concurrently for disjoint root ranges of the SAME plan — it only reads
/// the plan.
struct InClusterPlan {
  /// One representative that survived the skip filters (enough edges for a
  /// Kp, at least one goal edge). Representatives below the thresholds are
  /// excluded at plan time — they cannot cover a reported clique.
  struct Rep {
    NodeId node = -1;        ///< cluster-local index of the representative
    std::vector<int> parts;  ///< its sorted part multiset (p parts)
    std::int64_t edges = 0;  ///< local-graph edge count
  };

  const Cluster* cluster = nullptr;  ///< for reporter ids (global node ids)
  int p = 4;
  int q = 1;
  /// Loads + parts; `cliques_reported` stays 0 here (it is an enumeration
  /// output, accumulated by the enumeration return values).
  InClusterCost cost;
  /// Every endpoint of a held edge, in ascending global id order, so
  /// compact ids preserve the base order and the plan depends only on the
  /// SET of held edge ids (never on holder order or duplicate copies).
  std::vector<NodeId> compact_to_global;
  std::vector<int> part;                  ///< part of each compact id
  /// The cluster's deduplicated held-edge graph over compact ids, oriented
  /// along its degeneracy order, rows sorted by compact id. Goal flags are
  /// the edges' `goal_edge` flags, left empty when every edge is a goal
  /// edge.
  CliqueDag dag;
  std::vector<Rep> reps;
  /// Σ root_est_work over the DAG's roots; 0 when no representative
  /// survived (the cluster then has nothing to enumerate).
  std::uint64_t est_work_total = 0;
};

/// Estimated enumeration work of one DAG root: its out-degree squared,
/// in 64 bits — a single 70 000-degree hub already overflows 32
/// (70 000² ≈ 4.9e9).
inline std::uint64_t root_est_work(const CliqueDag& dag, NodeId root) {
  const auto r = static_cast<std::size_t>(root);
  const std::uint64_t d = dag.offsets[r + 1] - dag.offsets[r];
  return d * d;
}

/// Steps 1-3.5: partition, bucket, orient the cluster graph, pick
/// representatives, and account every load the routing would charge. Pure
/// with respect to `rng` (one plan per cluster per pre-split Rng); safe to
/// call concurrently for DISTINCT clusters.
InClusterPlan in_cluster_plan(const InClusterProblem& problem, Rng& rng);

/// Step 4 over ranges of a plan's DAG roots. Lists each goal-holding Kp
/// whose DAG source lies in the range once and reports it into `out` once
/// per covering representative (reporter = the global id of the
/// representative's cluster node; the order of reports is unspecified):
/// `out`'s per-node and total counts move per representative, credited
/// once per part tuple, and the clique is appended once (`report_rows`).
/// Root ranges partition the reports: any split of [0, n) yields the same
/// multiset of (reporter, clique) reports. The enumerator owns a copy of
/// the plan's DAG (the kernel trims rows in place), its kernel scratch and
/// a `PartTupleCovers` memo over the representatives' multisets, all
/// reused across `run` calls; it only reads the plan, so one enumerator
/// per thread may share a plan. The plan must outlive the enumerator.
class InClusterEnumerator {
 public:
  explicit InClusterEnumerator(const InClusterPlan& plan);

  /// Lists the roots [root_begin, root_end) and hands the run's cliques
  /// to `out` in one `report_rows` batch, each covering representative
  /// credited once per part tuple; returns the reports made (one per
  /// covering representative of each clique).
  std::uint64_t run(NodeId root_begin, NodeId root_end, ListingOutput& out);

 private:
  const InClusterPlan& plan_;
  CliqueDag dag_;
  CliqueScratch scratch_;
  PartTupleCovers covers_;
  std::vector<NodeId> rep_global_;  ///< global id of each representative
  std::vector<NodeId> flat_;
};

/// Plan + enumerate everything: reports cliques into `out` and returns the
/// loads. The one-call form used by tests and single-cluster callers.
InClusterCost in_cluster_list(const InClusterProblem& problem, Rng& rng,
                              ListingOutput& out);

}  // namespace dcl
