// Shared configuration, output collection, and result types for the
// distributed Kp-listing algorithms.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "congest/fault_plan.h"
#include "congest/round_ledger.h"
#include "enumeration/clique_enumeration.h"
#include "expander/decomposition.h"
#include "graph/graph.h"

namespace dcl {

/// Collects the listing output of every node. The distributed guarantee
/// (Section 1) is that the *union* of all node outputs equals the set of Kp
/// instances; several nodes may legitimately report the same clique, so
/// counting distinct cliques is the reader's job, not the lister's.
///
/// Reports are append-only: each reported clique is copied, in the order
/// reported, into a flat arena of rows, duplicates included, and nothing on
/// the report path hashes. `cliques()` builds the `CliqueSet` of distinct
/// cliques from the arena when it is read, and `unique_count()` is its
/// size; both stay exact when rows repeat (the baselines, k4fast's
/// light-node probe, fault plans). The set is cached until the next
/// report, so concurrent readers of one collector are not safe.
class ListingOutput {
 public:
  explicit ListingOutput(NodeId n) : per_node_reports_(static_cast<std::size_t>(n), 0) {}

  /// Records that `reporter` output `clique` (any vertex order).
  void report(NodeId reporter, std::span<const NodeId> clique) {
    count_report(reporter);
    append(clique);
  }

  /// `reports` reports made by `reporter`, one entry of a `report_rows`
  /// batch.
  struct Credit {
    NodeId reporter = 0;
    std::uint64_t reports = 0;
  };

  /// Records one listing run's reports: every row of `rows` (the `width`
  /// ids at rows[r·width, (r+1)·width), any order; width ≥ 1) is appended
  /// once, and each credit adds its `reports` to its reporter. The per-node
  /// totals and `total_reports` end where one `report()` per report would
  /// leave them, and so does the running maximum: a per-node count only
  /// grows, so its largest value is the same whichever order the reports
  /// arrive in (the argument `merge_from` makes).
  void report_rows(std::span<const NodeId> rows, std::size_t width,
                   std::span<const Credit> credits) {
    for (const Credit& c : credits) count_report(c.reporter, c.reports);
    for (std::size_t at = 0; at < rows.size(); at += width) {
      append(rows.subspan(at, width));
    }
  }

  /// Folds a per-shard buffer into this collector: per-node totals add
  /// (the running maximum is recomputed from the merged totals, which is
  /// exactly where the sequential running max lands) and the shard's rows
  /// are appended after this collector's. Merging shard buffers in shard
  /// order therefore reproduces the sequential execution's counters and
  /// clique set bit-identically — the contract the cluster-parallel
  /// ARB-LIST tail relies on. `shard` must have been constructed for the
  /// same node count.
  void merge_from(const ListingOutput& shard);

  /// The distinct cliques reported, as a set built on first read after a
  /// report (cached; see the class comment).
  const CliqueSet& cliques() const;
  std::uint64_t total_reports() const { return total_reports_; }
  /// Rows appended, duplicates included: one per `report()` and one per
  /// row of a `report_rows` batch. Equals `unique_count()` exactly when
  /// no clique reached the collector twice.
  std::uint64_t row_count() const { return row_count_; }
  std::uint64_t unique_count() const { return cliques().size(); }
  double duplication_factor() const {
    const std::uint64_t unique = unique_count();
    return unique == 0 ? 0.0
                       : static_cast<double>(total_reports_) /
                             static_cast<double>(unique);
  }
  std::uint64_t reports_of(NodeId v) const {
    return per_node_reports_[static_cast<std::size_t>(v)];
  }
  /// Maintained incrementally at report time — O(1), not an O(n) rescan.
  std::uint64_t max_reports_per_node() const { return max_reports_; }

 private:
  void count_report(NodeId reporter, std::uint64_t reports = 1) {
    std::uint64_t& mine = per_node_reports_[static_cast<std::size_t>(reporter)];
    mine += reports;
    max_reports_ = std::max(max_reports_, mine);
    total_reports_ += reports;
  }
  void append(std::span<const NodeId> clique) {
    ++row_count_;
    arena_.push_back(static_cast<NodeId>(clique.size()));
    arena_.insert(arena_.end(), clique.begin(), clique.end());
  }

  std::vector<NodeId> arena_;  ///< per row: its width, then its ids
  std::uint64_t row_count_ = 0;
  std::uint64_t total_reports_ = 0;
  std::uint64_t max_reports_ = 0;
  std::vector<std::uint64_t> per_node_reports_;
  // Read cache, valid while its row count equals row_count_.
  mutable CliqueSet view_;
  mutable std::uint64_t view_rows_ = 0;
};

/// How the in-cluster lister charges the edge-distribution step.
///  * measured  — by the actual maximum load of the random partition (the
///    sparsity-aware accounting that Lemma 2.7 justifies);
///  * worst_case — by the oblivious schedule a non-sparsity-aware algorithm
///    needs: every node must budget for all potential vertex pairs between
///    its parts, O(p² (n/q)²) slots. This is the ablation contrast that
///    bench/bench_e7_ablations.cpp measures (E7b).
enum class InClusterChargeMode { measured, worst_case };

/// Knobs for the Kp lister. The paper's thresholds are asymptotic formulas;
/// each carries a scale factor so laptop-sized instances can exercise every
/// mechanism (each field documents its paper value).
struct KpConfig {
  int p = 4;

  /// Theorem 1.2 mode: C-light edges are never shipped into the cluster;
  /// light nodes list their own K4s. Requires p == 4.
  bool k4_fast = false;

  /// Heavy threshold: general mode, a node is C-heavy when it has more than
  /// heavy_scale · n^{1/4} neighbors in C (Section 2.4.1); in k4_fast mode
  /// the threshold is heavy_scale · A / n^{1/3} (Section 3).
  double heavy_scale = 1.0;

  /// Bad-node threshold: u ∈ C is bad when it has more than
  /// bad_scale · √n · log2(n) C-light neighbors. (The paper's constant is
  /// 100.) The default 1.0 is already far above the C-light degrees of the
  /// benchmarked inputs: they declare no bad node, so by default the
  /// bad-edge path stays idle. Two tests force bad nodes on periphery
  /// workloads: `Stress.AggressiveBadEdgeThreshold` (bad_scale 0.01)
  /// checks the listing stays exact, and `ArbList.BadEdgeBudgetRespected`
  /// (bad_scale 0.02, 77 bad edges in one ARB-LIST call) checks the Er
  /// decay budget.
  double bad_scale = 1.0;

  /// Ablation switch (E7a): when false, bad nodes are never declared and
  /// every Em edge stays a goal edge.
  bool enable_bad_edges = true;

  /// Ablation switch (E7b): sparsity-aware vs oblivious in-cluster charge.
  InClusterChargeMode in_cluster_charge = InClusterChargeMode::measured;

  /// The outer arboricity-halving loop stops once the out-degree bound A
  /// satisfies A ≤ stop_scale·n^{stop}, stop = max(3/4, p/(p+2)) (general,
  /// Theorem 1.1) or 2/3 (k4_fast, Theorem 1.2). The paper's stop_scale is
  /// 2·log2(n) (it stops when the coupled cluster degree n^δ = A/(2 log n)
  /// would drop below n^{stop}); at laptop scale that exceeds n itself, so
  /// the default 1.0 keeps the same asymptotic schedule with the polylog
  /// factor normalized away.
  double stop_scale = 1.0;

  /// The §2.2 coupling n^δ = A / (coupling_scale · log2 n). Paper value:
  /// coupling_scale = 2. The default 1.0 keeps clusters from degenerating
  /// at laptop n; the arboricity-halving invariant is enforced by
  /// measurement (the driver re-measures A and stops on non-progress).
  double coupling_scale = 1.0;

  /// Cluster-degree knobs forwarded to the expander decomposition.
  DecompositionConfig decomposition;

  /// Safety cap on ARB-LIST iterations inside one LIST call.
  int max_arb_iterations = 64;

  /// Deterministic seed for all randomness (decomposition + partitions).
  std::uint64_t seed = 1;

  /// Optional fault plan (congest/fault_plan.h): drops/dups/delays are
  /// recovered by the charged ack/retransmit protocol (clique output stays
  /// bit-identical; budget-exhausted losses escalate to charged resends),
  /// crash events degrade the output to the survivor contract — every Kp
  /// of the alive-induced subgraph is still listed. Not owned; nullptr =
  /// fault-free (and then the lister's behavior and every charge are
  /// bit-identical to a build without the fault plane).
  FaultPlan* faults = nullptr;
};

/// Per-ARB-LIST-iteration trace (experiment E8).
struct ArbIterationTrace {
  int list_iteration = 0;      ///< outer LIST index
  int arb_iteration = 0;       ///< inner ARB-LIST index
  std::int64_t er_before = 0;
  std::int64_t er_after = 0;
  std::int64_t es_total = 0;
  std::int64_t goal_edges = 0;
  std::int64_t bad_edges = 0;
  std::int64_t clusters = 0;
  std::int64_t heavy_relationships = 0;  ///< (node, cluster) heavy pairs
  std::int64_t max_learned_edges = 0;    ///< Remark 2.10 quantity
  /// Step-5 tail scheduler diagnostics (the two-level work plan): the
  /// flattened (cluster, DAG-root-range) items, the shard count the
  /// weighted allocator derived, the estimated work each shard received,
  /// and the total estimate. Balance of these estimates (max/mean across
  /// shards) is the parallelism evidence that does not depend on the host's
  /// core count or load.
  std::int64_t tail_work_items = 0;
  std::int64_t tail_shards = 0;
  std::vector<std::uint64_t> tail_shard_work;
  std::uint64_t tail_est_work_total = 0;
  double rounds = 0.0;
};

/// Per-LIST-iteration trace: the arboricity-halving schedule of §2.2.
struct ListIterationTrace {
  int list_iteration = 0;
  std::int64_t arboricity_bound_before = 0;  ///< A (max out-degree witness)
  std::int64_t arboricity_bound_after = 0;
  std::int64_t cluster_degree = 0;           ///< n^δ = A/(2 log n)
  std::int64_t edges_before = 0;
  std::int64_t edges_after = 0;
  double rounds = 0.0;
};

struct KpListResult {
  RoundLedger ledger;
  std::uint64_t total_reports = 0;
  std::vector<ListIterationTrace> list_traces;
  std::vector<ArbIterationTrace> arb_traces;
  /// Fault-plane summary (all zero / empty on a fault-free run): messages
  /// whose retry budget was exhausted (escalated to charged resends),
  /// crash-stop nodes detected, and whether any cluster fell back to
  /// broadcast listing after losing too many members.
  std::uint64_t lost_messages = 0;
  std::vector<NodeId> crashed_nodes;
  bool crash_degraded = false;
  double total_rounds() const { return ledger.total_rounds(); }
};

}  // namespace dcl
