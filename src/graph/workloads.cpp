#include "graph/workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/math_util.h"
#include "graph/generators.h"

namespace dcl {

Graph power_workload(NodeId n, double c, double alpha, Rng& rng) {
  const auto max_m = static_cast<EdgeId>(n) * (n - 1) / 3;
  const auto m = std::min<EdgeId>(
      max_m, static_cast<EdgeId>(c * std::pow(static_cast<double>(n), alpha)));
  return erdos_renyi_gnm(n, m, rng);
}

Graph clustered_workload(NodeId n, Rng& rng, double p_in, double p_out,
                         int hubs) {
  const auto block = std::max<NodeId>(
      8, static_cast<NodeId>(floor_pow(n, 0.75)));
  std::vector<Edge> edges;
  const NodeId body = static_cast<NodeId>(n - hubs);
  for (NodeId u = 0; u < body; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < body; ++v) {
      const double p = (u / block == v / block) ? p_in : p_out;
      if (rng.next_bool(p)) edges.push_back({u, v});
    }
  }
  for (NodeId h = body; h < n; ++h) {
    for (NodeId v = 0; v < body; ++v) {
      if (rng.next_bool(0.3)) edges.push_back(make_edge(v, h));
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph periphery_workload(NodeId n, Rng& rng, double core_density) {
  const auto core = static_cast<NodeId>(floor_pow(n, 0.8));
  std::vector<Edge> edges;
  for (NodeId u = 0; u < core; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < core; ++v) {
      if (rng.next_bool(core_density)) edges.push_back({u, v});
    }
  }
  for (NodeId v = core; v + 1 < n; v = static_cast<NodeId>(v + 2)) {
    const NodeId v2 = static_cast<NodeId>(v + 1);
    // dcl-lint: allow(reserve-hint): one-shot workload generator, size
    edges.push_back({v, v2});  // depends on RNG draws; not a hot path
    const auto shared = 2 + rng.next_below(7);
    for (std::uint64_t i = 0; i < shared; ++i) {
      const auto u = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(core)));
      edges.push_back(make_edge(u, v));
      edges.push_back(make_edge(u, v2));
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph ring_of_cliques_workload(NodeId n, Rng& rng, int blocks,
                               double density) {
  // Every bridge joins two blocks' first nodes, so a ring needs at least
  // two blocks and a node per block; otherwise a bridge is a self-loop.
  if (blocks < 2 || n < blocks) {
    throw std::invalid_argument(
        "ring_of_cliques_workload: needs 2 <= blocks <= n");
  }
  const auto size = static_cast<NodeId>(n / blocks);
  std::vector<Edge> edges;
  for (int b = 0; b < blocks; ++b) {
    const auto lo = static_cast<NodeId>(b * size);
    const auto hi = static_cast<NodeId>((b + 1 == blocks) ? n : lo + size);
    for (NodeId u = lo; u < hi; ++u) {
      for (NodeId v = static_cast<NodeId>(u + 1); v < hi; ++v) {
        if (rng.next_bool(density)) edges.push_back({u, v});
      }
    }
    const auto next_lo = static_cast<NodeId>(((b + 1) % blocks) * size);
    edges.push_back(make_edge(lo, next_lo));
  }
  return Graph::from_edges(n, std::move(edges));
}

}  // namespace dcl
