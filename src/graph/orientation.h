// Edge orientations and degeneracy (arboricity witness) machinery.
//
// The paper never computes arboricity exactly; it works with *witness
// orientations*: "arboricity at most A, along with an orientation of its
// edges with a maximum out-degree of A" (Theorem 2.8). We mirror that: an
// `Orientation` assigns each edge a direction, and a degeneracy ordering
// yields the canonical witness with out-degree ≤ degeneracy ≤ 2·arboricity-1
// (and arboricity ≤ degeneracy), tight enough for every bound in the paper.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dcl {

/// A direction for every edge of a fixed graph. Edge e = {u,v} with u < v is
/// oriented u→v when `away_from_lower(e)` is true.
class Orientation {
 public:
  Orientation() = default;

  /// Orients every edge from the endpoint appearing *earlier* in `order` to
  /// the later one. With a degeneracy order this gives out-degree ≤
  /// degeneracy. `order` must be a permutation of 0..n-1.
  static Orientation from_order(const Graph& g, std::span<const NodeId> order);

  /// Explicit per-edge directions: `away_from_lower[e]` == true orients the
  /// edge from its lower-id endpoint to its higher-id endpoint.
  static Orientation from_directions(const Graph& g,
                                     std::vector<bool> away_from_lower);

  const Graph& graph() const { return *g_; }

  NodeId tail(EdgeId e) const {
    const Edge& ed = g_->edge(e);
    return away_[static_cast<std::size_t>(e)] ? ed.u : ed.v;
  }
  NodeId head(EdgeId e) const {
    const Edge& ed = g_->edge(e);
    return away_[static_cast<std::size_t>(e)] ? ed.v : ed.u;
  }
  bool away_from_lower(EdgeId e) const {
    return away_[static_cast<std::size_t>(e)];
  }

  /// Edges oriented away from v. (The out-neighbor rows themselves are
  /// built by `degeneracy_dag`, enumeration/clique_enumeration.h.)
  NodeId out_degree(NodeId v) const {
    return out_degree_[static_cast<std::size_t>(v)];
  }
  NodeId max_out_degree() const;

 private:
  const Graph* g_ = nullptr;
  std::vector<bool> away_;
  std::vector<NodeId> out_degree_;
};

/// Result of the linear-time core-decomposition peeling.
struct DegeneracyResult {
  std::vector<NodeId> order;        ///< peeling order (lowest-degree-first)
  std::vector<NodeId> core_number;  ///< k-core number per node
  NodeId degeneracy = 0;            ///< max core number
};

/// Matula–Beck bucket peeling; O(n + m).
DegeneracyResult degeneracy_order(const Graph& g);

/// The same peeling over a CSR adjacency: row v is
/// `adj[offsets[v], offsets[v+1])`, every edge listed in both endpoints'
/// rows. The result depends on the row order; sorted rows give exactly
/// the `Graph` overload's result on the same graph.
DegeneracyResult degeneracy_order(std::span<const std::uint64_t> offsets,
                                  std::span<const NodeId> adj);

/// Canonical arboricity-witness orientation (out-degree ≤ degeneracy).
Orientation degeneracy_orientation(const Graph& g);

}  // namespace dcl
