// E4 — Theorem 2.3 / Definition 2.2: the δ-expander decomposition.
//
// For each (family, n, δ) we report the charged construction rounds
// against the theorem's Õ(n^{1-δ}), and the three output guarantees:
// |Er| ≤ |E|/6, arboricity(Es) ≤ n^δ (via the explicit orientation
// witness), and cluster quality (min internal degree ≥ the peel threshold,
// spectral mixing-time estimate within the polylog bound).
#include <cstdio>

#include "bench_util.h"
#include "expander/decomposition.h"
#include "graph/orientation.h"

namespace dcl {
namespace {

std::int64_t es_witness_outdegree(const Graph& g,
                                  const ExpanderDecomposition& d) {
  EdgeMask es(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    es.set(e, d.part[static_cast<std::size_t>(e)] == EdgePart::sparse);
  }
  return max_out_degree(g, d.es_away_from_lower, es);
}

}  // namespace
}  // namespace dcl

int main() {
  using namespace dcl;
  std::printf(
      "E4: Theorem 2.3 — δ-expander decomposition: charged rounds vs "
      "Õ(n^{1-δ}) and the Definition 2.2 guarantees.\n");
  Table table({"family", "n", "m", "delta", "rounds", "n^{1-δ}log n",
               "|Er|/|E|", "Es outdeg", "n^δ", "clusters", "min cl deg",
               "max mixing", "polylog bound"});
  for (const NodeId n : {256, 512, 1024}) {
    for (const double delta : {0.45, 0.55, 0.65}) {
      for (const int family : {0, 1}) {
        Rng rng(static_cast<std::uint64_t>(n) * 31 + family);
        const Graph g =
            (family == 0)
                ? erdos_renyi_gnm(n, static_cast<EdgeId>(12LL * n), rng)
                : stochastic_block_model(
                      {static_cast<NodeId>(n / 2), static_cast<NodeId>(n / 2)},
                      std::min(1.0, 24.0 / n), 0.01, rng);
        DecompositionConfig cfg;
        cfg.delta = delta;
        const auto d = expander_decompose(g, n, cfg, rng);
        NodeId min_deg = n;
        double max_mixing = 0.0;
        for (const auto& c : d.clusters) {
          min_deg = std::min(min_deg, c.min_internal_degree);
          max_mixing = std::max(max_mixing, cluster_mixing_time(g, d, c));
        }
        const double predicted =
            std::pow(static_cast<double>(n), 1.0 - delta) *
            std::log2(static_cast<double>(n));
        table.row()
            .add(family == 0 ? "erdos-renyi" : "sbm-2-blocks")
            .add(static_cast<std::int64_t>(n))
            .add(g.edge_count())
            .add(delta, 2)
            .add(d.charged_rounds, 1)
            .add(predicted, 1)
            .add(static_cast<double>(d.er_count) /
                     static_cast<double>(std::max<EdgeId>(1, g.edge_count())),
                 4)
            .add(es_witness_outdegree(g, d))
            .add(ceil_pow(n, delta))
            .add(static_cast<std::int64_t>(d.clusters.size()))
            .add(d.clusters.empty() ? 0 : static_cast<std::int64_t>(min_deg))
            .add(max_mixing, 1)
            .add(polylog_mixing_bound(g.edge_count()), 1);
      }
    }
  }
  table.print();
  std::printf(
      "Guarantees: |Er|/|E| ≤ 1/6 ≈ 0.1667; Es outdeg ≤ n^δ; mixing ≤ "
      "polylog bound.\n");
  return 0;
}
