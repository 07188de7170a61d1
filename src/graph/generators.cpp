#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "common/math_util.h"

namespace dcl {

namespace {

std::uint64_t encode_pair(NodeId u, NodeId v) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

}  // namespace

Graph erdos_renyi_gnm(NodeId n, EdgeId m, Rng& rng) {
  const auto max_m = static_cast<EdgeId>(n) * (n - 1) / 2;
  if (m < 0 || m > max_m) {
    throw std::invalid_argument("erdos_renyi_gnm: m out of range");
  }
  // Dense request: sample edges to *remove* instead, to keep rejection cheap.
  if (m > max_m / 2) {
    std::vector<bool> removed_mask;
    const Graph full = complete_graph(n);
    std::unordered_set<std::uint64_t> removed;
    removed.reserve(static_cast<std::size_t>(max_m - m) * 2);
    while (static_cast<EdgeId>(removed.size()) < max_m - m) {
      const auto u = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto v = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
      if (u == v) continue;
      const Edge e = make_edge(u, v);
      removed.insert(encode_pair(e.u, e.v));
    }
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(m));
    for (const Edge& e : full.edges()) {
      if (!removed.contains(encode_pair(e.u, e.v))) edges.push_back(e);
    }
    return Graph::from_edges(n, std::move(edges));
  }
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(m) * 2);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(m));
  while (static_cast<EdgeId>(edges.size()) < m) {
    const auto u = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    const Edge e = make_edge(u, v);
    if (chosen.insert(encode_pair(e.u, e.v)).second) edges.push_back(e);
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph erdos_renyi_gnp(NodeId n, double p, Rng& rng) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both comparisons
    throw std::invalid_argument("erdos_renyi_gnp: p out of [0,1]");
  }
  std::vector<Edge> edges;
  if (p >= 1.0) return complete_graph(n);
  if (p > 0.0 && n >= 2) {
    // Geometric skipping over the C(n,2) potential edges in lexicographic
    // order (row u holds pairs (u, u+1..n-1)); O(n + m) expected time.
    const double log_q = std::log1p(-p);
    NodeId u = 0;
    NodeId v = 0;  // cursor sits one position *before* the next candidate
    while (u < n - 1) {
      const double r = std::max(rng.next_double(), 1e-300);
      auto skip = static_cast<std::int64_t>(std::floor(std::log(r) / log_q));
      // Advance the (u, v) cursor by skip+1 positions.
      std::int64_t advance = skip + 1;
      while (u < n - 1) {
        const std::int64_t left_in_row = static_cast<std::int64_t>(n) - 1 - v;
        if (advance <= left_in_row) {
          v = static_cast<NodeId>(v + advance);
          advance = 0;
          break;
        }
        advance -= left_in_row;
        ++u;
        v = u;  // next row starts at (u, u+1); cursor one before
      }
      if (u >= n - 1) break;
      edges.push_back(Edge{u, v});
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

PlantedClique planted_clique(NodeId n, NodeId clique_size, double noise_p,
                             Rng& rng) {
  if (clique_size > n) {
    throw std::invalid_argument("planted_clique: clique larger than graph");
  }
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(perm);
  std::vector<NodeId> members(perm.begin(), perm.begin() + clique_size);
  std::sort(members.begin(), members.end());

  const Graph noise = erdos_renyi_gnp(n, noise_p, rng);
  std::vector<Edge> edges(noise.edges().begin(), noise.edges().end());
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      edges.push_back(make_edge(members[i], members[j]));
    }
  }
  PlantedClique result;
  result.graph = Graph::from_edges(n, std::move(edges));
  result.clique_nodes = std::move(members);
  return result;
}

Graph stochastic_block_model(const std::vector<NodeId>& block_sizes,
                             double p_in, double p_out, Rng& rng) {
  NodeId n = 0;
  for (NodeId s : block_sizes) n += s;
  std::vector<int> block(static_cast<std::size_t>(n));
  {
    NodeId v = 0;
    for (std::size_t b = 0; b < block_sizes.size(); ++b) {
      for (NodeId i = 0; i < block_sizes[b]; ++i) {
        block[static_cast<std::size_t>(v++)] = static_cast<int>(b);
      }
    }
  }
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double p = (block[static_cast<std::size_t>(u)] ==
                        block[static_cast<std::size_t>(v)])
                           ? p_in
                           : p_out;
      if (rng.next_bool(p)) edges.push_back(Edge{u, v});
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph power_law_chung_lu(NodeId n, double exponent, double target_avg_degree,
                         Rng& rng) {
  if (n == 0) return empty_graph(0);
  std::vector<double> weight(static_cast<std::size_t>(n));
  const double gamma = 1.0 / (exponent - 1.0);
  double sum = 0.0;
  for (NodeId i = 0; i < n; ++i) {
    weight[static_cast<std::size_t>(i)] =
        std::pow(static_cast<double>(i) + 1.0, -gamma);
    sum += weight[static_cast<std::size_t>(i)];
  }
  const double scale =
      target_avg_degree * static_cast<double>(n) / sum;
  for (auto& w : weight) w *= scale;
  const double total_weight = target_avg_degree * static_cast<double>(n);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double p =
          std::min(1.0, weight[static_cast<std::size_t>(u)] *
                            weight[static_cast<std::size_t>(v)] /
                            total_weight);
      if (rng.next_bool(p)) edges.push_back(Edge{u, v});
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph random_regular(NodeId n, NodeId d, Rng& rng) {
  if (d >= n || (static_cast<std::int64_t>(n) * d) % 2 != 0) {
    throw std::invalid_argument("random_regular: invalid (n, d)");
  }
  // Configuration model with per-pair retries: repeatedly match two random
  // remaining stubs, rejecting self-loops and duplicates locally; restart
  // from scratch only if the tail of the matching gets stuck. For d ≪ n
  // this succeeds in O(1) expected restarts (unlike whole-matching
  // rejection, whose success probability vanishes already at d ≈ 8).
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId i = 0; i < d; ++i) stubs.push_back(v);
    }
    std::unordered_set<std::uint64_t> seen;
    std::vector<Edge> edges;
    bool stuck = false;
    while (stubs.size() >= 2 && !stuck) {
      int local_tries = 0;
      while (true) {
        const auto i = static_cast<std::size_t>(rng.next_below(stubs.size()));
        auto j = static_cast<std::size_t>(rng.next_below(stubs.size() - 1));
        if (j >= i) ++j;
        const NodeId u = stubs[i];
        const NodeId v = stubs[j];
        const Edge e = make_edge(u, v);
        if (u != v && !seen.contains(encode_pair(e.u, e.v))) {
          seen.insert(encode_pair(e.u, e.v));
          edges.push_back(e);
          // Remove both stubs (larger index first).
          const auto hi = std::max(i, j), lo = std::min(i, j);
          stubs[hi] = stubs.back();
          stubs.pop_back();
          stubs[lo] = stubs.back();
          stubs.pop_back();
          break;
        }
        if (++local_tries > 200) {
          stuck = true;  // tail is unmatchable; restart the whole pairing
          break;
        }
      }
    }
    if (!stuck && stubs.empty()) return Graph::from_edges(n, std::move(edges));
  }
  throw std::runtime_error("random_regular: too many restarts");
}

Graph complete_graph(NodeId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back(Edge{u, v});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph complete_bipartite(NodeId a, NodeId b) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < a; ++u) {
    for (NodeId v = 0; v < b; ++v) {
      edges.push_back(Edge{u, static_cast<NodeId>(a + v)});
    }
  }
  return Graph::from_edges(a + b, std::move(edges));
}

Graph star_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back(Edge{0, v});
  return Graph::from_edges(n, std::move(edges));
}

Graph path_graph(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.push_back(Edge{v, static_cast<NodeId>(v + 1)});
  }
  return Graph::from_edges(n, std::move(edges));
}

Graph cycle_graph(NodeId n) {
  if (n < 3) return path_graph(n);
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) {
    edges.push_back(Edge{v, static_cast<NodeId>(v + 1)});
  }
  edges.push_back(make_edge(0, static_cast<NodeId>(n - 1)));
  return Graph::from_edges(n, std::move(edges));
}

Graph empty_graph(NodeId n) { return Graph::from_edges(n, {}); }

Graph disjoint_union(const Graph& a, const Graph& b) {
  std::vector<Edge> edges(a.edges().begin(), a.edges().end());
  const NodeId shift = a.node_count();
  for (const Edge& e : b.edges()) {
    edges.push_back(Edge{static_cast<NodeId>(e.u + shift),
                         static_cast<NodeId>(e.v + shift)});
  }
  return Graph::from_edges(a.node_count() + b.node_count(), std::move(edges));
}

}  // namespace dcl
