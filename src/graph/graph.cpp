#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <stdexcept>

namespace dcl {

/// Shared CSR build over a normalized, lexicographically sorted,
/// duplicate-free edge list. A counting scatter in edge order fills every
/// neighbor row already sorted: row v first receives its lower-id
/// neighbors x (edges {x, v} with x < v appear in ascending x before any
/// edge {v, ·}), then its higher-id neighbors w (edges {v, w} in ascending
/// w) — so no per-row sort is needed.
Graph Graph::build_from_sorted(NodeId n, std::vector<Edge> edges) {
  Graph g;
  g.n_ = n;
  g.edges_ = std::move(edges);
  const auto m = g.edges_.size();

  std::vector<std::size_t> deg(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& e : g.edges_) {
    ++deg[static_cast<std::size_t>(e.u)];
    ++deg[static_cast<std::size_t>(e.v)];
  }
  g.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    g.offsets_[static_cast<std::size_t>(v) + 1] =
        g.offsets_[static_cast<std::size_t>(v)] +
        deg[static_cast<std::size_t>(v)];
  }
  g.adj_.resize(2 * m);
  g.adj_edge_.resize(2 * m);
  std::vector<std::size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    const Edge& e = g.edges_[i];
    auto& cu = cursor[static_cast<std::size_t>(e.u)];
    g.adj_[cu] = e.v;
    g.adj_edge_[cu] = static_cast<EdgeId>(i);
    ++cu;
    auto& cv = cursor[static_cast<std::size_t>(e.v)];
    g.adj_[cv] = e.u;
    g.adj_edge_[cv] = static_cast<EdgeId>(i);
    ++cv;
  }
  return g;
}

Graph Graph::from_edges(NodeId n, std::vector<Edge> edges) {
  if (n < 0) throw std::invalid_argument("Graph: negative node count");
  for (auto& e : edges) {
    if (e.u == e.v) throw std::invalid_argument("Graph: self-loop");
    if (e.u < 0 || e.v < 0 || e.u >= n || e.v >= n) {
      throw std::invalid_argument("Graph: endpoint out of range");
    }
    e = make_edge(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return build_from_sorted(n, std::move(edges));
}

Graph Graph::from_sorted_edges(NodeId n, std::vector<Edge> edges) {
  if (n < 0) throw std::invalid_argument("Graph: negative node count");
#ifndef NDEBUG
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    assert(e.u < e.v && e.u >= 0 && e.v < n && "from_sorted_edges: not normalized");
    assert((i == 0 || edges[i - 1] < e) && "from_sorted_edges: not sorted/unique");
  }
#endif
  return build_from_sorted(n, std::move(edges));
}

std::optional<EdgeId> Graph::edge_id(NodeId a, NodeId b) const {
  if (a < 0 || b < 0 || a >= n_ || b >= n_ || a == b) return std::nullopt;
  // Search from the lower-degree endpoint.
  if (degree(a) > degree(b)) std::swap(a, b);
  const auto nbrs = neighbors(a);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), b);
  if (it == nbrs.end() || *it != b) return std::nullopt;
  const auto pos = static_cast<std::size_t>(it - nbrs.begin());
  return incident_edges(a)[pos];
}

NodeId Graph::max_degree() const {
  NodeId best = 0;
  for (NodeId v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::average_degree() const {
  if (n_ == 0) return 0.0;
  return 2.0 * static_cast<double>(edge_count()) / static_cast<double>(n_);
}

std::pair<std::vector<int>, int> Graph::connected_components() const {
  std::vector<int> comp(static_cast<std::size_t>(n_), -1);
  int count = 0;
  std::vector<NodeId> stack;
  for (NodeId s = 0; s < n_; ++s) {
    if (comp[static_cast<std::size_t>(s)] != -1) continue;
    comp[static_cast<std::size_t>(s)] = count;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (NodeId w : neighbors(v)) {
        if (comp[static_cast<std::size_t>(w)] == -1) {
          comp[static_cast<std::size_t>(w)] = count;
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

Subgraph subgraph(const Graph& g, std::span<const NodeId> members,
                  const EdgeMask& keep, std::size_t edge_hint) {
  if (keep.size() != g.edge_count()) {
    throw std::invalid_argument("subgraph: mask size mismatch");
  }
  Subgraph out;
  std::vector<Edge> edges;
  edges.reserve(edge_hint);
  out.to_base.reserve(edge_hint);
  if (members.empty()) {
    // Base edges visited in id order are already normalized, sorted and
    // distinct.
    keep.for_each_set([&](EdgeId e) {
      edges.push_back(g.edge(e));
      out.to_base.push_back(e);
    });
  } else {
    std::vector<NodeId> local(static_cast<std::size_t>(g.node_count()), -1);
    for (std::size_t i = 0; i < members.size(); ++i) {
      local[static_cast<std::size_t>(members[i])] = to_node(i);
    }
    // Members ascend and every neighbor row ascends, so visiting each edge
    // from its lower endpoint emits normalized local pairs in lexicographic
    // order.
    for (std::size_t i = 0; i < members.size(); ++i) {
      const NodeId v = members[i];
      const auto nbrs = g.neighbors(v);
      const auto eids = g.incident_edges(v);
      for (auto j = static_cast<std::size_t>(
               std::upper_bound(nbrs.begin(), nbrs.end(), v) - nbrs.begin());
           j < nbrs.size(); ++j) {
        const NodeId lw = local[static_cast<std::size_t>(nbrs[j])];
        if (lw < 0 || !keep[eids[j]]) continue;
        edges.push_back(Edge{to_node(i), lw});
        out.to_base.push_back(eids[j]);
      }
    }
  }
  const NodeId n = members.empty() ? g.node_count() : to_node(members.size());
  out.graph = Graph::from_sorted_edges(n, std::move(edges));
  return out;
}

}  // namespace dcl
