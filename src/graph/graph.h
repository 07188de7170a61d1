// Immutable undirected simple graph in CSR form, with stable edge ids.
//
// This is the substrate every other module builds on. The listing
// algorithms of the paper repeatedly partition the edge set (E = Em ∪ Es ∪
// Er, goal edges vs. bad edges, ...), so edges carry dense ids `0..m-1`
// that subsets and orientations can index by.
//
// Conventions:
//  * Nodes are `0..n-1`. Edges are stored normalized with `u < v`.
//  * Self-loops and duplicate edges are rejected at construction.
//  * Neighbor lists are sorted, enabling O(log deg) adjacency queries and
//    linear-time sorted-list intersections in the enumeration module.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/edge_mask.h"
#include "graph/ids.h"

namespace dcl {

/// An undirected edge, normalized so that `u < v`.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Returns {min(a,b), max(a,b)}; the canonical form used everywhere.
constexpr Edge make_edge(NodeId a, NodeId b) {
  return (a < b) ? Edge{a, b} : Edge{b, a};
}

/// Immutable simple graph. Construct via `from_edges`, or take a subgraph
/// of another graph with `subgraph`.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph on nodes 0..n-1 from an arbitrary edge collection.
  /// Edges are normalized, sorted, and deduplicated. Throws
  /// `std::invalid_argument` on self-loops or endpoints outside [0, n).
  static Graph from_edges(NodeId n, std::vector<Edge> edges);

  /// Fast-path factory for callers that already hold a normalized
  /// (`u < v`), lexicographically sorted, duplicate-free edge list — the
  /// edges `subgraph` emits. Skips the normalize/sort/unique pass of
  /// `from_edges` and builds the CSR with one counting scatter (the
  /// scatter of a sorted edge list leaves every neighbor row sorted, so no
  /// per-row sort is needed either). The precondition is checked in debug
  /// builds (assert); edge ids equal positions in `edges`.
  static Graph from_sorted_edges(NodeId n, std::vector<Edge> edges);

  NodeId node_count() const { return n_; }
  EdgeId edge_count() const { return to_edge(edges_.size()); }

  /// All edges, sorted lexicographically; `edges()[e]` is the edge with id e.
  std::span<const Edge> edges() const { return edges_; }
  const Edge& edge(EdgeId e) const {
    return edges_[static_cast<std::size_t>(e)];
  }

  NodeId degree(NodeId v) const {
    return to_node(offset(v + 1) - offset(v));
  }

  /// Sorted neighbor list of v.
  std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_.data() + offset(v), adj_.data() + offset(v + 1)};
  }

  /// Edge ids aligned with `neighbors(v)`: incident_edges(v)[i] is the id of
  /// the edge {v, neighbors(v)[i]}.
  std::span<const EdgeId> incident_edges(NodeId v) const {
    return {adj_edge_.data() + offset(v), adj_edge_.data() + offset(v + 1)};
  }

  bool has_edge(NodeId a, NodeId b) const { return edge_id(a, b).has_value(); }

  /// Id of edge {a,b} if present.
  std::optional<EdgeId> edge_id(NodeId a, NodeId b) const;

  NodeId max_degree() const;
  double average_degree() const;

  /// Connected components; returns (component id per node, component count).
  std::pair<std::vector<int>, int> connected_components() const;

 private:
  /// Shared CSR build over a normalized, sorted, duplicate-free edge list
  /// (the tail of both factories).
  static Graph build_from_sorted(NodeId n, std::vector<Edge> edges);

  std::size_t offset(NodeId v) const {
    return offsets_[static_cast<std::size_t>(v)];
  }

  NodeId n_ = 0;
  std::vector<Edge> edges_;          // sorted, normalized
  std::vector<std::size_t> offsets_; // size n+1
  std::vector<NodeId> adj_;          // size 2m, sorted per node
  std::vector<EdgeId> adj_edge_;     // size 2m, aligned with adj_
};

/// A subgraph and the base id of each of its edges.
struct Subgraph {
  Graph graph;
  std::vector<EdgeId> to_base;  ///< local edge i is base edge to_base[i]
};

/// The subgraph of `g` induced on `members`, keeping the edges set in
/// `keep` (sized to g's edge count, else std::invalid_argument is thrown).
/// `members` must ascend: local node i is
/// `members[i]`. An empty `members` keeps every node under its own id.
/// Local edges come out in base id order, and `edge_hint` (the expected
/// kept-edge count) only sizes the buffers.
Subgraph subgraph(const Graph& g, std::span<const NodeId> members,
                  const EdgeMask& keep, std::size_t edge_hint = 0);

}  // namespace dcl
