#include "expander/decomposition.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>
#include <stdexcept>

#include "common/math_util.h"
#include "expander/spectral.h"

namespace dcl {

double default_conductance_threshold(std::int64_t edge_count) {
  const double m = std::max<double>(2.0, static_cast<double>(edge_count));
  return 1.0 / (12.0 * std::log2(2.0 * m) + 1.0);
}

double polylog_mixing_bound(std::int64_t edge_count) {
  const double phi = default_conductance_threshold(edge_count);
  const double vol = std::max(4.0, 2.0 * static_cast<double>(edge_count));
  // Cheeger: gap ≥ φ²/2 for the lazy walk; t_mix ≈ log(vol)/gap.
  return std::log2(vol) / (phi * phi / 2.0);
}

namespace {

/// Lazy-walk steps of the spectral embedding. The sweep cut reads only the
/// embedding's node order, and 30 steps still split every weak-gap guard
/// input (`Decomposition.FindsEveryBridgeOnWeakGapChains`).
constexpr int kEmbeddingWalkSteps = 30;
/// Fixed, so the diagnostic mixing estimate stays comparable over time.
constexpr int kMixingEstimateSteps = 120;
/// Fraction of n^δ below which a node is peeled into Es.
constexpr double kPeelFraction = 0.5;

/// n^δ for an `ambient_n`-node graph, or the absolute override. Without
/// the override δ must lie in [0, 1] (NaN is rejected too).
std::int64_t cluster_degree(NodeId ambient_n,
                            const DecompositionConfig& config) {
  if (config.absolute_degree > 0) return config.absolute_degree;
  if (!(config.delta >= 0.0 && config.delta <= 1.0)) {
    throw std::invalid_argument("expander decomposition: delta out of [0,1]");
  }
  return ceil_pow(ambient_n, config.delta);
}

/// The peel threshold max(1, kPeelFraction · n^δ).
std::int64_t peel_threshold(std::int64_t ndelta) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(kPeelFraction *
                                   static_cast<double>(ndelta)));
}

/// Mutable working view of the not-yet-assigned part of the graph.
struct WorkState {
  const Graph* g;
  std::vector<EdgePart> part;          // current labels; `cluster` = unassigned
  std::vector<std::uint8_t> assigned;  // edge already finalized into Es/Er?
  std::vector<bool> es_away_from_lower;
  std::vector<std::int64_t> live_degree;  // degree over unassigned edges

  explicit WorkState(const Graph& graph)
      : g(&graph),
        part(static_cast<std::size_t>(graph.edge_count()), EdgePart::cluster),
        assigned(static_cast<std::size_t>(graph.edge_count()), 0),
        es_away_from_lower(static_cast<std::size_t>(graph.edge_count()),
                           false),
        live_degree(static_cast<std::size_t>(graph.node_count()), 0) {
    for (NodeId v = 0; v < graph.node_count(); ++v) {
      live_degree[static_cast<std::size_t>(v)] = graph.degree(v);
    }
  }

  void assign_es(EdgeId e, NodeId away_from) {
    part[static_cast<std::size_t>(e)] = EdgePart::sparse;
    assigned[static_cast<std::size_t>(e)] = 1;
    const Edge& ed = g->edge(e);
    es_away_from_lower[static_cast<std::size_t>(e)] = (away_from == ed.u);
    --live_degree[static_cast<std::size_t>(ed.u)];
    --live_degree[static_cast<std::size_t>(ed.v)];
  }

  void assign_er(EdgeId e) {
    part[static_cast<std::size_t>(e)] = EdgePart::removed;
    assigned[static_cast<std::size_t>(e)] = 1;
    const Edge& ed = g->edge(e);
    --live_degree[static_cast<std::size_t>(ed.u)];
    --live_degree[static_cast<std::size_t>(ed.v)];
  }
};

/// Peels every node of `component` whose live degree (within the component)
/// is below `threshold`; peeled nodes donate their remaining live edges to
/// Es, oriented away from them (out-degree < threshold ≤ n^δ). Returns the
/// surviving nodes.
std::vector<NodeId> peel_low_degree(WorkState& state,
                                    std::vector<NodeId> component,
                                    std::int64_t threshold) {
  const Graph& g = *state.g;
  std::vector<std::uint8_t> in_component(
      static_cast<std::size_t>(g.node_count()), 0);
  for (NodeId v : component) in_component[static_cast<std::size_t>(v)] = 1;

  std::deque<NodeId> queue;
  std::vector<std::uint8_t> queued(in_component.size(), 0);
  for (NodeId v : component) {
    if (state.live_degree[static_cast<std::size_t>(v)] < threshold) {
      queue.push_back(v);
      queued[static_cast<std::size_t>(v)] = 1;
    }
  }
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const EdgeId e = eids[i];
      if (state.assigned[static_cast<std::size_t>(e)]) continue;
      const NodeId w = nbrs[i];
      if (!in_component[static_cast<std::size_t>(w)]) continue;
      state.assign_es(e, v);
      if (!queued[static_cast<std::size_t>(w)] &&
          state.live_degree[static_cast<std::size_t>(w)] < threshold) {
        queue.push_back(w);
        queued[static_cast<std::size_t>(w)] = 1;
      }
    }
    in_component[static_cast<std::size_t>(v)] = 0;  // v leaves
  }
  std::vector<NodeId> survivors;
  for (NodeId v : component) {
    if (in_component[static_cast<std::size_t>(v)]) survivors.push_back(v);
  }
  return survivors;
}

/// Connected components of the ascending `nodes` using only unassigned
/// edges, each sorted, in order of their smallest member.
std::vector<std::vector<NodeId>> live_components(const WorkState& state,
                                                 const std::vector<NodeId>& nodes) {
  const Graph& g = *state.g;
  constexpr int kOutside = -2, kUnvisited = -1;
  std::vector<int> label(static_cast<std::size_t>(g.node_count()), kOutside);
  for (NodeId v : nodes) label[static_cast<std::size_t>(v)] = kUnvisited;
  int count = 0;
  std::vector<NodeId> stack;
  for (NodeId s : nodes) {
    if (label[static_cast<std::size_t>(s)] != kUnvisited) continue;
    label[static_cast<std::size_t>(s)] = count;
    stack.push_back(s);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      const auto nbrs = g.neighbors(v);
      const auto eids = g.incident_edges(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (state.assigned[static_cast<std::size_t>(eids[i])]) continue;
        const NodeId w = nbrs[i];
        if (label[static_cast<std::size_t>(w)] == kUnvisited) {
          label[static_cast<std::size_t>(w)] = count;
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  // Each component was labelled when the scan reached its smallest member,
  // so bucketing the ascending `nodes` by label yields sorted components
  // in discovery order.
  std::vector<std::vector<NodeId>> components(static_cast<std::size_t>(count));
  for (NodeId v : nodes) {
    components[static_cast<std::size_t>(label[static_cast<std::size_t>(v)])]
        .push_back(v);
  }
  return components;
}

/// The subgraph of `g` induced on ascending members, keeping the edges a
/// predicate accepts: local node i is `members[i]`, local edge i is base
/// edge `edge_to_original[i]`.
struct SortedSubgraph {
  Graph graph;
  std::vector<EdgeId> edge_to_original;
};

/// Builds a `SortedSubgraph` with the edges `keep(e)` accepts; `edge_hint`
/// is the expected edge count. Members ascend and every neighbor row
/// ascends, so the scan emits normalized local pairs in lexicographic
/// order: `from_sorted_edges` takes them as they come (it asserts the order
/// in debug builds) and the scanned ids already are `edge_to_original`.
template <typename Keep>
SortedSubgraph sorted_induced_subgraph(const Graph& g,
                                       const std::vector<NodeId>& members,
                                       std::size_t edge_hint, Keep keep) {
  std::vector<NodeId> local(static_cast<std::size_t>(g.node_count()), -1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    local[static_cast<std::size_t>(members[i])] = to_node(i);
  }
  SortedSubgraph out;
  std::vector<Edge> edges;
  edges.reserve(edge_hint);
  out.edge_to_original.reserve(edge_hint);
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeId v = members[i];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    // Higher neighbors only: each edge is visited from its lower endpoint.
    for (auto j = static_cast<std::size_t>(
             std::upper_bound(nbrs.begin(), nbrs.end(), v) - nbrs.begin());
         j < nbrs.size(); ++j) {
      const NodeId lw = local[static_cast<std::size_t>(nbrs[j])];
      if (lw < 0 || !keep(eids[j])) continue;
      edges.push_back(Edge{to_node(i), lw});
      out.edge_to_original.push_back(eids[j]);
    }
  }
  out.graph =
      Graph::from_sorted_edges(to_node(members.size()), std::move(edges));
  return out;
}

/// Induced live subgraph on the ascending `nodes` (unassigned edges only).
SortedSubgraph live_subgraph(const WorkState& state,
                             const std::vector<NodeId>& nodes) {
  // A piece's live edges never leave it (edges between pieces were cut or
  // peeled), so its live volume is twice its edge count.
  std::int64_t live_volume = 0;
  for (NodeId v : nodes) {
    live_volume += state.live_degree[static_cast<std::size_t>(v)];
  }
  return sorted_induced_subgraph(
      *state.g, nodes, static_cast<std::size_t>(live_volume / 2),
      [&state](EdgeId e) {
        return state.assigned[static_cast<std::size_t>(e)] == 0;
      });
}

}  // namespace

ExpanderDecomposition expander_decompose(const Graph& g, NodeId ambient_n,
                                         const DecompositionConfig& config,
                                         Rng& rng) {
  if (ambient_n < g.node_count()) {
    throw std::invalid_argument("expander_decompose: ambient_n too small");
  }
  WorkState state(g);
  const std::int64_t degree_target = cluster_degree(ambient_n, config);
  const std::int64_t threshold = peel_threshold(degree_target);
  const double phi = default_conductance_threshold(g.edge_count());

  ExpanderDecomposition result;
  result.cluster_of.assign(static_cast<std::size_t>(g.node_count()), -1);

  std::deque<std::vector<NodeId>> pending(1);
  pending.front().resize(static_cast<std::size_t>(g.node_count()));
  std::iota(pending.front().begin(), pending.front().end(), NodeId{0});

  while (!pending.empty()) {
    std::vector<NodeId> piece = std::move(pending.front());
    pending.pop_front();
    piece = peel_low_degree(state, std::move(piece), threshold);
    if (piece.empty()) continue;
    for (auto& component : live_components(state, piece)) {
      if (component.size() <= 1) continue;
      const SortedSubgraph sub = live_subgraph(state, component);
      if (sub.graph.edge_count() == 0) continue;
      const auto embedding =
          second_eigenvector(sub.graph, rng, kEmbeddingWalkSteps);
      const Cut cut = sweep_cut(sub.graph, embedding);
      const bool splittable = cut.conductance < phi && !cut.side.empty() &&
                              cut.side.size() < component.size();
      if (splittable) {
        // Remove the cut edges, then recurse on both sides (they may need
        // further peeling as their degrees just dropped).
        std::vector<std::uint8_t> in_side(
            static_cast<std::size_t>(sub.graph.node_count()), 0);
        for (NodeId v : cut.side) in_side[static_cast<std::size_t>(v)] = 1;
        for (EdgeId e = 0; e < sub.graph.edge_count(); ++e) {
          const Edge& ed = sub.graph.edge(e);
          if (in_side[static_cast<std::size_t>(ed.u)] !=
              in_side[static_cast<std::size_t>(ed.v)]) {
            state.assign_er(sub.edge_to_original[static_cast<std::size_t>(e)]);
          }
        }
        std::vector<NodeId> side_original, rest_original;
        for (NodeId nv = 0; nv < sub.graph.node_count(); ++nv) {
          (in_side[static_cast<std::size_t>(nv)] ? side_original
                                                 : rest_original)
              .push_back(component[static_cast<std::size_t>(nv)]);
        }
        pending.push_back(std::move(side_original));
        pending.push_back(std::move(rest_original));
      } else {
        // Accept as a cluster: its live edges become Em.
        Cluster cluster;
        cluster.id = static_cast<int>(result.clusters.size());
        cluster.internal_edges = sub.graph.edge_count();
        NodeId min_deg = sub.graph.node_count();
        for (NodeId nv = 0; nv < sub.graph.node_count(); ++nv) {
          min_deg = std::min(min_deg, sub.graph.degree(nv));
        }
        cluster.min_internal_degree = min_deg;
        for (EdgeId e = 0; e < sub.graph.edge_count(); ++e) {
          const EdgeId orig = sub.edge_to_original[static_cast<std::size_t>(e)];
          state.part[static_cast<std::size_t>(orig)] = EdgePart::cluster;
          state.assigned[static_cast<std::size_t>(orig)] = 1;
        }
        for (NodeId v : component) {
          result.cluster_of[static_cast<std::size_t>(v)] = cluster.id;
        }
        cluster.nodes = std::move(component);
        result.clusters.push_back(std::move(cluster));
      }
    }
  }

  result.part = std::move(state.part);
  result.es_away_from_lower = std::move(state.es_away_from_lower);
  for (const EdgePart p : result.part) {
    switch (p) {
      case EdgePart::cluster:
        ++result.em_count;
        break;
      case EdgePart::sparse:
        ++result.es_count;
        break;
      case EdgePart::removed:
        ++result.er_count;
        break;
    }
  }
  // Theorem 2.3 charge: Õ(n^{1-δ}) = Õ(n / n^δ); we charge
  // (n / degree_target) · log2(n) (the paper's polylog is unspecified; the
  // factor is constant across an n-sweep fit).
  const double n_d = std::max(2.0, static_cast<double>(ambient_n));
  result.charged_rounds =
      n_d / static_cast<double>(std::max<std::int64_t>(1, degree_target)) *
      std::log2(n_d);
  return result;
}

double cluster_mixing_time(const Graph& g, const ExpanderDecomposition& d,
                           const Cluster& c) {
  // The cluster's Em subgraph over its sorted members — exactly the live
  // subgraph the decomposition accepted (every live edge inside an
  // accepted component became Em, and no later step touches it).
  const Graph sub =
      sorted_induced_subgraph(
          g, c.nodes, static_cast<std::size_t>(c.internal_edges),
          [&d](EdgeId e) {
            return d.part[static_cast<std::size_t>(e)] == EdgePart::cluster;
          })
          .graph;
  // A private stream per cluster: the estimate is a diagnostic and must
  // never draw from (and so perturb) the decomposition's own RNG.
  Rng rng(0x6d6978696e67ULL ^ static_cast<std::uint64_t>(c.id));
  return mixing_time_estimate(sub, rng, kMixingEstimateSteps);
}

std::vector<std::string> verify_decomposition(
    const Graph& g, NodeId ambient_n, const DecompositionConfig& config,
    const ExpanderDecomposition& d, double max_mixing_time) {
  std::vector<std::string> errors;
  const auto m = static_cast<std::size_t>(g.edge_count());
  if (d.part.size() != m) {
    errors.push_back("part vector size mismatch");
    return errors;
  }
  // |Er| <= |E|/6.
  if (6 * d.er_count > g.edge_count()) {
    errors.push_back("|Er| > |E|/6: " + std::to_string(d.er_count) + " of " +
                     std::to_string(g.edge_count()));
  }
  // Es out-degree witness <= n^delta (or the absolute override).
  const std::int64_t ndelta = cluster_degree(ambient_n, config);
  std::vector<std::int64_t> out_deg(static_cast<std::size_t>(g.node_count()),
                                    0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (d.part[static_cast<std::size_t>(e)] != EdgePart::sparse) continue;
    const Edge& ed = g.edge(e);
    const NodeId tail =
        d.es_away_from_lower[static_cast<std::size_t>(e)] ? ed.u : ed.v;
    ++out_deg[static_cast<std::size_t>(tail)];
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (out_deg[static_cast<std::size_t>(v)] > ndelta) {
      errors.push_back("Es out-degree of node " + std::to_string(v) + " is " +
                       std::to_string(out_deg[static_cast<std::size_t>(v)]) +
                       " > n^delta = " + std::to_string(ndelta));
      break;
    }
  }
  // Clusters: consistency of cluster_of with Em components, min degree.
  const std::int64_t threshold = peel_threshold(ndelta);
  std::vector<std::int64_t> em_degree(static_cast<std::size_t>(g.node_count()),
                                      0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (d.part[static_cast<std::size_t>(e)] != EdgePart::cluster) continue;
    const Edge& ed = g.edge(e);
    const int cu = d.cluster_of[static_cast<std::size_t>(ed.u)];
    const int cv = d.cluster_of[static_cast<std::size_t>(ed.v)];
    if (cu < 0 || cu != cv) {
      errors.push_back("Em edge " + std::to_string(e) +
                       " does not lie inside one cluster");
      break;
    }
    ++em_degree[static_cast<std::size_t>(ed.u)];
    ++em_degree[static_cast<std::size_t>(ed.v)];
  }
  for (const Cluster& c : d.clusters) {
    for (NodeId v : c.nodes) {
      if (d.cluster_of[static_cast<std::size_t>(v)] != c.id) {
        errors.push_back("cluster_of mismatch for node " + std::to_string(v));
      }
      if (em_degree[static_cast<std::size_t>(v)] < threshold) {
        errors.push_back(
            "cluster node " + std::to_string(v) + " has Em-degree " +
            std::to_string(em_degree[static_cast<std::size_t>(v)]) +
            " < peel threshold " + std::to_string(threshold));
      }
    }
    const double mixing = cluster_mixing_time(g, d, c);
    if (mixing > max_mixing_time) {
      errors.push_back("cluster " + std::to_string(c.id) +
                       " mixing-time estimate " + std::to_string(mixing) +
                       " exceeds bound " + std::to_string(max_mixing_time));
    }
    if (errors.size() > 20) return errors;
  }
  return errors;
}

}  // namespace dcl
