// Sequential (centralized) clique enumeration — the ground-truth oracle.
//
// Every distributed lister in this repository is validated against these
// routines: the union of all node outputs must equal the exact set of Kp
// instances. Two independent algorithms are provided so the oracle itself
// is cross-checkable:
//  * `list_k_cliques` — degeneracy-DAG recursive intersection
//    (Chiba–Nishizeki style, O(m · α^{p-2}) for arboricity α);
//  * `count_k_cliques_naive` — direct recursion on sorted adjacency,
//    no degeneracy machinery (slower; used in tests as a second opinion).
// Plus Bron–Kerbosch with pivoting for maximal cliques / clique number.
//
// `list_k_cliques` and `count_k_cliques` run the label-scan DAG kernel
// that every lister shares (`list_dag_cliques`); the naive counter and
// Bron–Kerbosch run on the sorted-intersection kernels of
// common/intersect.h. Both reuse scratch buffers, so the hot paths
// allocate nothing after warm-up (see docs/PERFORMANCE.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dcl {

/// A clique, stored as a strictly increasing vector of node ids — the
/// canonical form used for deduplication and set comparison.
using Clique = std::vector<NodeId>;

/// Canonical set of cliques with value semantics; the comparison target for
/// listing validation.
///
/// Built once from its input and read-only after. Each distinct clique is
/// stored once as a canonical row (its width, then its ids ascending) in
/// one flat vector, ordered by the clique's hash, then width, then ids.
/// That order is a function of the contents alone: equal sets hold equal
/// vectors and visit their members in the same order, whatever order and
/// multiplicity their input had. The listers do not build this set as they
/// report: `ListingOutput` appends rows and builds it when `cliques()` is
/// read.
class CliqueSet {
 public:
  CliqueSet() = default;
  /// The distinct cliques of `cliques`, each given in any vertex order.
  explicit CliqueSet(const std::vector<Clique>& cliques);
  /// The distinct cliques of `rows`: per clique its width, then its ids in
  /// any order (the layout of `ListingOutput`'s arena).
  static CliqueSet from_rows(std::vector<NodeId> rows);

  /// Whether `clique` (any vertex order) is a member.
  bool contains(std::span<const NodeId> clique) const;
  std::size_t size() const { return hashes_.size(); }
  bool empty() const { return hashes_.empty(); }

  /// Order-independent content hash: the wrapping sum of one mixed hash
  /// per member clique. Two sets with equal contents have equal
  /// fingerprints; the empty set is 0. `ListingOutput` exposes it, and
  /// `bench_core` and perfbench read it as the ledger-style drift detector.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Visits every member clique, in set order, as a sorted
  /// `std::span<const NodeId>` valid only for the duration of the call.
  template <typename F>
  void for_each_span(F&& fn) const {
    for (std::size_t at = 0; at < rows_.size();) {
      const auto width = static_cast<std::size_t>(rows_[at]);
      fn(std::span<const NodeId>(rows_.data() + at + 1, width));
      at += 1 + width;
    }
  }

  /// Cliques present in `this` but not in `other`, in set order.
  std::vector<Clique> difference(const CliqueSet& other) const;

  bool operator==(const CliqueSet& other) const {
    return rows_ == other.rows_;
  }

  std::vector<Clique> to_vector() const;

 private:
  std::vector<NodeId> rows_;           ///< canonical rows, in set order
  std::vector<std::uint64_t> hashes_;  ///< per member, ascending
  std::vector<std::size_t> starts_;    ///< per member, its row's offset
  std::uint64_t fingerprint_ = 0;
};

/// An acyclic orientation in flat CSR form — the input of the one clique
/// kernel every lister here runs on. Row v holds v's out-neighbors, in any
/// order. Acyclicity makes every clique a directed path from its unique
/// source, so the kernel emits each clique exactly once, and its recursion
/// width is bounded by the maximum out-degree. The kernel reorders rows in
/// place (each row keeps its contents, and `goal` moves with `adj`), so a
/// DAG may be listed again, with its row order unspecified.
struct CliqueDag {
  std::vector<std::uint64_t> offsets;  ///< n+1 row fences into `adj`
  std::vector<NodeId> adj;             ///< out-neighbors per row
  /// Optional per-edge flags aligned with `adj`. When non-empty, listing
  /// emits only the cliques holding at least one flagged edge.
  std::vector<std::uint8_t> goal;

  NodeId node_count() const {
    return offsets.empty() ? 0 : to_node(offsets.size() - 1);
  }
};

/// The one builder of every lister's kernel input: the degeneracy DAG of a
/// symmetric graph with sorted rows, as a `Graph` or as a CSR (row v is
/// `adj[offsets[v], offsets[v+1])`). Row v keeps v's neighbors later in
/// the degeneracy order, still sorted. `goal`, if non-empty, holds one
/// flag per input entry (both entries of an edge carry its flag), and the
/// kept entries' flags become the DAG's goal flags; a size mismatch throws
/// std::invalid_argument. Both overloads build the same DAG on equal rows.
CliqueDag degeneracy_dag(const Graph& g,
                         std::span<const std::uint8_t> goal = {});
CliqueDag degeneracy_dag(std::span<const std::uint64_t> offsets,
                         std::span<const NodeId> adj,
                         std::span<const std::uint8_t> goal = {});

/// Reusable kernel state: per-node recursion labels and goal-edge counts
/// (all zero between runs), trimmed out-degrees, per-level restore buffers
/// and the current clique prefix. Keep one per thread and pass it to every
/// run: after warm-up the kernel allocates nothing.
struct CliqueScratch {
  std::vector<std::uint8_t> label;
  std::vector<std::uint8_t> goal_in;
  std::vector<NodeId> deg;
  std::vector<std::vector<NodeId>> saved;
  std::vector<NodeId> prefix;
};

/// Appends p ids per listed clique of `dag` whose DAG source (first id)
/// lies in the root range [root_begin, root_end) to `flat`, in DAG path
/// order (unsorted); with `dag.goal` non-empty, only goal-holding cliques
/// are appended. Root ranges partition the cliques: listing [0, n) in any
/// split lists each clique exactly once. p >= 1; p = 1 lists the range's
/// nodes (none under a goal filter, since a single node holds no edge).
void list_dag_cliques(CliqueDag& dag, int p, CliqueScratch& scratch,
                      std::vector<NodeId>& flat, NodeId root_begin,
                      NodeId root_end);

/// All Kp instances of g, each as a sorted vertex vector. p >= 1.
/// p = 1 lists vertices, p = 2 lists edges. Runs `list_dag_cliques` on the
/// degeneracy orientation of g.
std::vector<Clique> list_k_cliques(const Graph& g, int p);

/// Number of Kp instances (no materialization): the same kernel on the
/// degeneracy orientation of g, in its counting form.
std::uint64_t count_k_cliques(const Graph& g, int p);

/// Independent counting implementation used to cross-check the oracle.
std::uint64_t count_k_cliques_naive(const Graph& g, int p);

/// Whether `nodes` (any order, distinct) induce a complete subgraph.
bool is_clique(const Graph& g, std::span<const NodeId> nodes);

/// All maximal cliques via Bron–Kerbosch with pivoting.
std::vector<Clique> maximal_cliques(const Graph& g);

/// Clique number ω(G) (size of the largest clique).
int clique_number(const Graph& g);

}  // namespace dcl
