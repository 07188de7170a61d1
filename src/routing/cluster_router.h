// Intra-cluster routing and ID assignment (Theorem 2.4 / Lemma 2.5).
//
// Theorem 2.4 (imported from Ghaffari–Kuhn–Su and Ghaffari–Li): inside an
// n^δ-cluster, if every node needs to send and receive at most
// O(n^δ · 2^{O(√log n)}) messages, all of them can be routed in
// Õ(2^{O(√log n)}) rounds, using only the cluster's own edges (so distinct
// clusters route in parallel).
//
// Our simulation delivers the messages directly and charges
//
//     rounds = ceil(max per-node load / cluster bandwidth) · ceil(log2 n)
//
// where bandwidth = the cluster's minimum internal degree (each node can
// push/pull that many messages per round through its cluster edges) and
// the ceil(log2 n) factor stands in for the theorem's subpolynomial routing
// overhead (the paper's footnote 6 argues this overhead is absorbable since
// all final complexities are Ω(n^{1/3})). Batches from different clusters in the same logical step
// are combined with `ParallelRoutingCharge`, which charges the maximum —
// clusters route simultaneously on disjoint edge sets.
//
// The CONGESTED-CLIQUE analogue is Lenzen's routing theorem: on the
// complete communication graph, if every node sends and receives at most
// `max_load` messages, the batch routes in ceil(max_load / (n-1)) + O(1)
// rounds. `lenzen_rounds` is the one definition of that charge, used by
// the sparsity-aware lister (core/sparse_cc) and the oblivious baseline
// (baselines/). This is the accounting the paper's Section 2.4.3 analysis
// relies on ("the number of messages each node receives is
// O(p² n^{1+d}/k^{2/p})" → rounds by dividing by bandwidth).
//
// Lemma 2.5: new cluster-internal IDs {0..k-1} are assigned in O(polylog n)
// rounds; `assign_cluster_ids` reproduces the assignment (sorted by
// original id) and charges that polylog.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "congest/round_ledger.h"
#include "expander/decomposition.h"
#include "graph/graph.h"

namespace dcl {

/// Routing overhead factor standing in for Theorem 2.4's 2^{O(√log n)}.
double routing_polylog(NodeId ambient_n);

/// Round cost of routing a batch inside one cluster: every node sends and
/// receives at most `max_load` messages; the cluster's min internal degree
/// is `bandwidth`.
double cluster_routing_rounds(std::int64_t max_load, std::int64_t bandwidth,
                              NodeId ambient_n);

/// Lenzen routing on the n-node CONGESTED CLIQUE: every node sends and
/// receives at most `max_load` messages, n-1 of them per round, plus two
/// rounds for the routing protocol itself. An empty batch (load 0) is
/// free. Throws std::invalid_argument for n < 2 with a non-empty batch.
std::int64_t lenzen_rounds(std::int64_t max_load, NodeId n);

/// Combines per-cluster routing batches that happen in the same logical
/// step; the charged cost is the maximum over clusters (they run in
/// parallel on disjoint edges).
class ParallelRoutingCharge {
 public:
  void add_cluster(std::int64_t max_load, std::int64_t bandwidth,
                   std::uint64_t messages);

  /// Folds another accumulator into this one, as if its add_cluster calls
  /// had been made here. The state is (max, max, sum, or) — every fold is
  /// order- and grouping-independent, so per-shard accumulators merged in
  /// shard order commit the exact charge the sequential per-cluster loop
  /// would have (the cluster-parallel ARB-LIST tail depends on this).
  void merge_from(const ParallelRoutingCharge& other);

  /// Charges the ledger and returns the rounds charged.
  double commit(RoundLedger& ledger, const std::string& label,
                NodeId ambient_n);

  std::int64_t worst_load() const { return worst_load_; }
  std::uint64_t total_messages() const { return total_messages_; }

 private:
  double worst_rounds_ = 0.0;
  std::int64_t worst_load_ = 0;
  std::uint64_t total_messages_ = 0;
  bool any_ = false;
};

/// Lemma 2.5: per-cluster dense IDs 0..|C|-1 (position in the sorted node
/// list). Returns new id per node (-1 outside every cluster) and charges
/// the lemma's polylog construction cost once for all clusters in parallel.
std::vector<NodeId> assign_cluster_ids(
    const std::vector<Cluster>& clusters, NodeId ambient_n,
    RoundLedger& ledger);

/// The responsibility ranges of Section 2.4.3: the cluster node with new ID
/// i ∈ [0,k) is responsible for original nodes w with
/// floor(i·n/k) ≤ w < floor((i+1)·n/k).
NodeId responsible_cluster_index(NodeId original_node, NodeId ambient_n,
                                 NodeId cluster_size);

}  // namespace dcl
