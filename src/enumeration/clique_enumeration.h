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

#include <array>
#include <cstdint>
#include <set>
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
/// Cliques of up to `kPackedMax` vertices — every Kp the paper's algorithms
/// list (p ≤ 8) — are deduplicated in an open-addressing flat table over
/// fixed-width packed keys (sorted ids, -1-padded, splitmix-mixed), so an
/// insert does no heap allocation once the table is sized. Larger cliques
/// (e.g. maximal cliques of dense graphs) spill to a node-based set. The
/// listers do not insert here as they report: `ListingOutput` appends rows
/// and builds this set only when `cliques()` is read.
class CliqueSet {
 public:
  /// Widest clique stored inline; chosen for the paper's p ≤ 8 regime
  /// (a packed key is 8 × 32-bit NodeId = one cache line half).
  static constexpr std::size_t kPackedMax = 8;

  CliqueSet() = default;
  explicit CliqueSet(const std::vector<Clique>& cliques) {
    for (const auto& c : cliques) insert(c);
  }

  /// Inserts a clique given in any vertex order; returns true if new.
  bool insert(const Clique& clique);
  /// Allocation-free insert for cliques of ≤ kPackedMax vertices (any
  /// order); falls back to the spill set above that width.
  bool insert(std::span<const NodeId> clique);
  bool contains(const Clique& clique) const;
  bool contains(std::span<const NodeId> clique) const;
  std::size_t size() const { return packed_count_ + overflow_.size(); }
  bool empty() const { return size() == 0; }

  /// Pre-sizes the packed table for `expected` cliques so inserts perform
  /// no growth rehashes up to that size (`ListingOutput` sizes its view
  /// this way).
  void reserve(std::size_t expected);

  /// Longest probe distance of any packed key from its ideal slot — the
  /// robin-hood balance diagnostic. Insert placement is displacement-
  /// bounded (robin hood: a probing key steals the slot of any resident
  /// closer to its own ideal), so this stays O(log n)-ish at the 0.7 load
  /// ceiling no matter the insert order; in particular hash-ordered
  /// inserts (a slot-order walk of another table) cannot degenerate into
  /// the long probe chains plain linear probing builds. O(slots) scan;
  /// tests assert the bound after adversarial insert orders.
  std::size_t max_displacement() const;

  /// Order-independent content hash: the wrapping sum of one mixed hash
  /// per member clique, maintained incrementally on insert. Two sets with
  /// equal contents have equal fingerprints regardless of insertion
  /// history; the empty set is 0. `ListingOutput` exposes it, and
  /// `bench_core` and perfbench read it as the ledger-style drift detector.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Visits every member clique as a sorted `std::span<const NodeId>`
  /// without materializing vectors.
  /// Packed cliques are visited in slot order, overflow cliques after in
  /// lexicographic order (the spill set is ordered precisely so this
  /// visitation order is deterministic — dcl_lint's unordered-iteration
  /// rule bans hash-order walks on any path that can reach fingerprints);
  /// the span is valid only for the duration of the call.
  template <typename F>
  void for_each_span(F&& fn) const {
    for (const PackedKey& key : slots_) {
      if (key[0] == kUnused) continue;
      std::size_t len = 1;
      while (len < kPackedMax && key[len] != kUnused) ++len;
      fn(std::span<const NodeId>(key.data(), len));
    }
    for (const Clique& c : overflow_) {
      fn(std::span<const NodeId>(c.data(), c.size()));
    }
  }

  /// Cliques present in `this` but not in `other`.
  std::vector<Clique> difference(const CliqueSet& other) const;

  bool operator==(const CliqueSet& other) const;

  std::vector<Clique> to_vector() const;

 private:
  /// Sorted node ids padded with kUnused; padding never collides with a
  /// real id, so key equality is exactly clique equality.
  using PackedKey = std::array<NodeId, kPackedMax>;
  static constexpr NodeId kUnused = -1;

  static PackedKey pack(std::span<const NodeId> clique);  // sorts inline
  static std::uint64_t hash_key(const PackedKey& key);

  /// Robin-hood placement of a key known to be absent (rehash and
  /// insert_packed): probes from the ideal slot, swapping with any
  /// resident that sits closer to its own ideal than the carried key does.
  static void place_robin_hood(std::vector<PackedKey>& slots, PackedKey key);

  bool insert_packed(const PackedKey& key);
  bool contains_packed(const PackedKey& key) const;
  static std::uint64_t overflow_hash(const Clique& sorted);
  void rehash(std::size_t new_slots);
  template <typename F>
  void for_each(F&& fn) const;  // fn(const Clique&)

  std::vector<PackedKey> slots_;  ///< open addressing; key[0]==kUnused = free
  std::size_t packed_count_ = 0;
  std::uint64_t fingerprint_ = 0;
  /// Spill set for cliques wider than kPackedMax. Ordered (lexicographic
  /// over sorted member ids), NOT hashed: for_each/for_each_span walk it,
  /// and an unordered spill would leak implementation-defined hash order
  /// into every downstream visitation (found by dcl_lint's
  /// unordered-iteration rule). The spill path only carries >8-wide
  /// maximal cliques, so the O(log n) node-based set is not a hot path.
  std::set<Clique> overflow_;
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
