#include "graph/orientation.h"

#include <algorithm>

namespace dcl {

NodeId max_out_degree(const Graph& g, const EdgeMask& away,
                      const EdgeMask& edges) {
  std::vector<NodeId> out_degree(static_cast<std::size_t>(g.node_count()), 0);
  NodeId best = 0;
  edges.for_each_set([&](EdgeId e) {
    best = std::max(
        best, ++out_degree[static_cast<std::size_t>(edge_tail(g, away, e))]);
  });
  return best;
}

namespace {

/// The peeling over any adjacency: `neighbors(v)` is v's row for v < n.
template <class Rows>
DegeneracyResult peel(NodeId node_count, Rows neighbors) {
  const auto n = static_cast<std::size_t>(node_count);
  DegeneracyResult result;
  result.order.reserve(n);
  result.core_number.assign(n, 0);
  if (n == 0) return result;

  // Bucket queue keyed by current degree: intrusive doubly-linked lists
  // over the nodes, one list per degree. A decrement unlinks the node and
  // pushes it onto the front of the lower bucket, so each node sits in
  // exactly one bucket — no stale entries to skip, and the whole working
  // set is three n-sized arrays. The pop rule (front of the lowest
  // non-empty bucket = most recently pushed node of minimum degree) is the
  // LIFO order of the per-bucket-stack formulation, kept bit-identical
  // because the resulting orientation feeds the Kp pipeline's round
  // ledger.
  std::vector<NodeId> deg(n);
  NodeId max_deg = 0;
  for (NodeId v = 0; v < node_count; ++v) {
    const auto d = to_node(neighbors(v).size());
    deg[static_cast<std::size_t>(v)] = d;
    max_deg = std::max(max_deg, d);
  }
  // Circular lists with one sentinel per bucket (ids n, n+1, …): every
  // element always has live prev/next neighbors, so unlink and push-front
  // are four unconditional stores each — no nil branches in the inner
  // loop. Bucket b is empty iff its sentinel points at itself.
  const std::size_t buckets = static_cast<std::size_t>(max_deg) + 1;
  const auto sentinel = [n](std::size_t b) { return n + b; };
  std::vector<std::size_t> next(n + buckets);
  std::vector<std::size_t> prev(n + buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    next[sentinel(b)] = prev[sentinel(b)] = sentinel(b);
  }
  const auto push_front = [&](std::size_t bucket, std::size_t v) {
    const std::size_t s = sentinel(bucket);
    const std::size_t h = next[s];
    next[v] = h;
    prev[v] = s;
    prev[h] = v;
    next[s] = v;
  };
  for (NodeId v = 0; v < node_count; ++v) {
    push_front(static_cast<std::size_t>(deg[static_cast<std::size_t>(v)]),
               static_cast<std::size_t>(v));
  }
  NodeId current_core = 0;
  std::size_t cursor = 0;  // lowest possibly non-empty bucket
  std::vector<NodeId> live;  // branchless-compacted surviving neighbors
  live.resize(static_cast<std::size_t>(max_deg));
  for (std::size_t peeled = 0; peeled < n; ++peeled) {
    while (next[sentinel(cursor)] == sentinel(cursor)) ++cursor;
    const std::size_t vi = next[sentinel(cursor)];
    const NodeId v = to_node(vi);
    next[sentinel(cursor)] = next[vi];
    prev[next[vi]] = sentinel(cursor);
    current_core = std::max(current_core, to_node(cursor));
    result.core_number[vi] = current_core;
    result.order.push_back(v);
    deg[vi] = -1;
    // The `still live?` test rejects a data-dependent ~half of the visits;
    // compacting survivors branchlessly first keeps the mispredict-prone
    // check out of the pointer-surgery loop.
    std::size_t k = 0;
    for (const NodeId w : neighbors(v)) {
      live[k] = w;
      k += static_cast<std::size_t>(deg[static_cast<std::size_t>(w)] >= 0);
    }
    for (std::size_t i = 0; i < k; ++i) {
      const auto wi = static_cast<std::size_t>(live[i]);
      next[prev[wi]] = next[wi];
      prev[next[wi]] = prev[wi];
      --deg[wi];
      push_front(static_cast<std::size_t>(deg[wi]), wi);
      if (static_cast<std::size_t>(deg[wi]) < cursor) {
        cursor = static_cast<std::size_t>(deg[wi]);
      }
    }
  }
  result.degeneracy = current_core;
  return result;
}

}  // namespace

DegeneracyResult degeneracy_order(const Graph& g) {
  return peel(g.node_count(), [&g](NodeId v) { return g.neighbors(v); });
}

DegeneracyResult degeneracy_order(std::span<const std::uint64_t> offsets,
                                  std::span<const NodeId> adj) {
  const NodeId n = offsets.empty() ? 0 : to_node(offsets.size() - 1);
  return peel(n, [&](NodeId v) {
    const auto b = offsets[static_cast<std::size_t>(v)];
    const auto e = offsets[static_cast<std::size_t>(v) + 1];
    return adj.subspan(static_cast<std::size_t>(b),
                       static_cast<std::size_t>(e - b));
  });
}

Orientation degeneracy_orientation(const Graph& g) {
  const auto dec = degeneracy_order(g);
  std::vector<NodeId> rank(dec.order.size());
  for (std::size_t i = 0; i < dec.order.size(); ++i) {
    rank[static_cast<std::size_t>(dec.order[i])] = to_node(i);
  }
  EdgeMask away(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    away.set(e, rank[static_cast<std::size_t>(ed.u)] <
                    rank[static_cast<std::size_t>(ed.v)]);
  }
  const NodeId max_out = max_out_degree(g, away, EdgeMask(g.edge_count(), true));
  return Orientation(std::move(away), max_out);
}

}  // namespace dcl
