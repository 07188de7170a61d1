#include "expander/spectral.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "common/parallel_for.h"

namespace dcl {

namespace {

/// One application of the lazy walk operator P = (I + D^{-1}A)/2.
/// Rows are independent (out[v] reads only x), so they shard over the
/// worker pool — each out[v] is computed by exactly one shard with the
/// same per-row summation order as the sequential loop, so the result is
/// bit-identical at any DCL_THREADS. The π-weighted reductions around this
/// stay sequential: their summation order is part of the fixed-seed
/// fingerprint.
void apply_lazy_walk(const Graph& g, const std::vector<double>& x,
                     std::vector<double>& out) {
  // A row is a few flops per neighbor, and the power iteration applies
  // the operator hundreds of times — without a grain the per-application
  // pool dispatch dominated on laptop-sized cluster candidates (measured
  // as a net DCL_THREADS=4 *slowdown* on the committed bench inputs).
  constexpr std::int64_t kRowGrain = 2048;
  const double* const xs = x.data();
  // Row v from its neighbor sum; the neighbor sum of a row starts at 0.0
  // and adds x over the row in neighbor order.
  const auto finish = [&](NodeId v, double acc) {
    const double deg = static_cast<double>(g.degree(v));
    const double walk = (deg > 0) ? acc / deg : xs[v];
    out[static_cast<std::size_t>(v)] = 0.5 * (xs[v] + walk);
  };
  const auto add_from = [&](std::span<const NodeId> nbrs, std::size_t from,
                            double acc) {
    for (std::size_t j = from; j < nbrs.size(); ++j) acc += xs[nbrs[j]];
    return acc;
  };
  parallel_for_shards(g.node_count(), [&](int, std::int64_t lo,
                                          std::int64_t hi) {
    // Four rows at once: one row's sum is a serial add chain, so four
    // independent chains keep the adder busy. Each row keeps its own
    // accumulator and neighbor order, and finishes its tail alone, so
    // every double equals the row-at-a-time value.
    auto v = static_cast<NodeId>(lo);
    for (; v + 4 <= static_cast<NodeId>(hi); v += 4) {
      const std::span<const NodeId> n0 = g.neighbors(v);
      const std::span<const NodeId> n1 = g.neighbors(v + 1);
      const std::span<const NodeId> n2 = g.neighbors(v + 2);
      const std::span<const NodeId> n3 = g.neighbors(v + 3);
      const std::size_t common =
          std::min({n0.size(), n1.size(), n2.size(), n3.size()});
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (std::size_t j = 0; j < common; ++j) {
        a0 += xs[n0[j]];
        a1 += xs[n1[j]];
        a2 += xs[n2[j]];
        a3 += xs[n3[j]];
      }
      finish(v, add_from(n0, common, a0));
      finish(v + 1, add_from(n1, common, a1));
      finish(v + 2, add_from(n2, common, a2));
      finish(v + 3, add_from(n3, common, a3));
    }
    for (; v < static_cast<NodeId>(hi); ++v) {
      finish(v, add_from(g.neighbors(v), 0, 0.0));
    }
  }, kRowGrain);
}

/// Removes the component along the stationary distribution π(v) ∝ deg(v).
/// For the lazy-walk operator acting on functions, the top (eigenvalue-1)
/// right eigenvector is the all-ones vector; deflation must be with respect
/// to the π-weighted inner product under which P is self-adjoint.
void deflate_stationary(const Graph& g, std::vector<double>& x) {
  double num = 0.0, den = 0.0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const double pi = static_cast<double>(g.degree(v));
    num += pi * x[static_cast<std::size_t>(v)];
    den += pi;
  }
  if (den <= 0) return;
  const double mean = num / den;
  for (auto& value : x) value -= mean;
}

double pi_norm(const Graph& g, const std::vector<double>& x) {
  double acc = 0.0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const double pi = static_cast<double>(g.degree(v));
    acc += pi * x[static_cast<std::size_t>(v)] * x[static_cast<std::size_t>(v)];
  }
  return std::sqrt(acc);
}

}  // namespace

std::vector<double> second_eigenvector(const Graph& g, Rng& rng,
                                       int iterations) {
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<double> x(n), next(n);
  for (auto& value : x) value = rng.next_double() - 0.5;
  deflate_stationary(g, x);
  for (int it = 0; it < iterations; ++it) {
    apply_lazy_walk(g, x, next);
    x.swap(next);
    deflate_stationary(g, x);
    const double norm = pi_norm(g, x);
    if (norm < 1e-14) {
      // Collapsed (e.g. complete graph where λ₂ component vanishes):
      // re-randomize once; if it collapses again the gap is just large.
      for (auto& value : x) value = rng.next_double() - 0.5;
      deflate_stationary(g, x);
      continue;
    }
    for (auto& value : x) value /= norm;
  }
  return x;
}

double lazy_walk_lambda2(const Graph& g, Rng& rng, int iterations) {
  if (g.node_count() <= 1 || g.edge_count() == 0) return 0.5;
  auto x = second_eigenvector(g, rng, iterations);
  const double before = pi_norm(g, x);
  if (before < 1e-14) return 0.5;
  std::vector<double> next(x.size());
  apply_lazy_walk(g, x, next);
  deflate_stationary(g, next);
  const double after = pi_norm(g, next);
  // Rayleigh-quotient style estimate of |λ₂| via one extra application.
  return std::clamp(after / before, 0.0, 1.0);
}

double mixing_time_estimate(const Graph& g, Rng& rng, int iterations) {
  const double lambda2 = lazy_walk_lambda2(g, rng, iterations);
  const double gap = std::max(1e-9, 1.0 - lambda2);
  const double volume = std::max(2.0, 2.0 * static_cast<double>(g.edge_count()));
  return std::log(volume) / gap;
}

Cut sweep_cut(const Graph& g, const std::vector<double>& embedding) {
  if (g.edge_count() == 0) {
    throw std::invalid_argument("sweep_cut: graph has no edges");
  }
  const NodeId n = g.node_count();
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return embedding[static_cast<std::size_t>(a)] <
           embedding[static_cast<std::size_t>(b)];
  });
  std::vector<std::uint8_t> in_side(static_cast<std::size_t>(n), 0);
  const std::int64_t total_volume = 2 * g.edge_count();
  std::int64_t volume = 0;
  std::int64_t cut = 0;
  double best_conductance = 2.0;
  std::size_t best_prefix = 0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    const NodeId v = order[i];
    in_side[static_cast<std::size_t>(v)] = 1;
    volume += g.degree(v);
    for (NodeId w : g.neighbors(v)) {
      // Adding v turns edges to outside into cut edges and removes edges to
      // already-inside nodes from the cut. Branch-free: which neighbors are
      // inside is data-dependent, so a branch here mispredicts about half
      // the time.
      cut += 1 - 2 * std::int64_t{in_side[static_cast<std::size_t>(w)]};
    }
    const std::int64_t small_vol = std::min(volume, total_volume - volume);
    if (small_vol <= 0) continue;
    const double phi =
        static_cast<double>(cut) / static_cast<double>(small_vol);
    if (phi < best_conductance) {
      best_conductance = phi;
      best_prefix = i + 1;
    }
  }
  Cut result;
  result.conductance = best_conductance;
  // Report the smaller-volume side for the chosen prefix.
  std::int64_t prefix_volume = 0;
  for (std::size_t i = 0; i < best_prefix; ++i) {
    prefix_volume += g.degree(order[i]);
  }
  const bool prefix_is_small = prefix_volume <= total_volume - prefix_volume;
  if (prefix_is_small) {
    result.side.assign(order.begin(),
                       order.begin() + static_cast<std::ptrdiff_t>(best_prefix));
    result.volume_small = prefix_volume;
  } else {
    result.side.assign(order.begin() + static_cast<std::ptrdiff_t>(best_prefix),
                       order.end());
    result.volume_small = total_volume - prefix_volume;
  }
  std::sort(result.side.begin(), result.side.end());
  // Recount cut edges for the reported side (robust to the incremental
  // bookkeeping above).
  std::vector<std::uint8_t> mark(static_cast<std::size_t>(n), 0);
  for (NodeId v : result.side) mark[static_cast<std::size_t>(v)] = 1;
  std::int64_t cut_edges = 0;
  for (const Edge& e : g.edges()) {
    cut_edges += mark[static_cast<std::size_t>(e.u)] !=
                 mark[static_cast<std::size_t>(e.v)];
  }
  result.cut_edges = cut_edges;
  if (result.volume_small > 0) {
    result.conductance = static_cast<double>(cut_edges) /
                         static_cast<double>(result.volume_small);
  }
  return result;
}

double conductance_of(const Graph& g, const std::vector<NodeId>& side) {
  std::vector<bool> mark(static_cast<std::size_t>(g.node_count()), false);
  std::int64_t volume = 0;
  for (NodeId v : side) {
    mark[static_cast<std::size_t>(v)] = true;
    volume += g.degree(v);
  }
  std::int64_t cut = 0;
  for (const Edge& e : g.edges()) {
    if (mark[static_cast<std::size_t>(e.u)] !=
        mark[static_cast<std::size_t>(e.v)]) {
      ++cut;
    }
  }
  const std::int64_t total = 2 * g.edge_count();
  const std::int64_t small_vol = std::min(volume, total - volume);
  if (small_vol <= 0) return 1.0;
  return static_cast<double>(cut) / static_cast<double>(small_vol);
}

}  // namespace dcl
