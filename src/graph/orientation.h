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
#include <utility>
#include <vector>

#include "graph/edge_mask.h"
#include "graph/graph.h"

namespace dcl {

/// The endpoint edge `e` points away from: `away[e]` orients e = {u,v}
/// (u < v) as u→v, a clear bit as v→u. Every orientation in the pipeline
/// is such an away-bit mask over base edge ids.
inline NodeId edge_tail(const Graph& g, const EdgeMask& away, EdgeId e) {
  const Edge& ed = g.edge(e);
  return away[e] ? ed.u : ed.v;
}

/// Max out-degree under `away` over the edges set in `edges`.
NodeId max_out_degree(const Graph& g, const EdgeMask& away,
                      const EdgeMask& edges);

/// A direction for every edge of a fixed graph, with its max out-degree.
/// Edge e = {u,v} with u < v is oriented u→v when `away_from_lower(e)` is
/// true.
class Orientation {
 public:
  Orientation() = default;
  Orientation(EdgeMask away, NodeId max_out_degree)
      : away_(std::move(away)), max_out_degree_(max_out_degree) {}

  /// The away bits, ready to thread through a pipeline.
  const EdgeMask& away() const { return away_; }
  bool away_from_lower(EdgeId e) const { return away_[e]; }
  NodeId max_out_degree() const { return max_out_degree_; }

 private:
  EdgeMask away_;
  NodeId max_out_degree_ = 0;
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

/// Canonical arboricity-witness orientation: every edge points from the
/// endpoint peeled first, so out-degree ≤ degeneracy.
Orientation degeneracy_orientation(const Graph& g);

}  // namespace dcl
