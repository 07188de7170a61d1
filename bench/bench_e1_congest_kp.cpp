// E1 — Theorem 1.1: CONGEST Kp-listing rounds vs n, per p ∈ {4,5,6,7}.
//
// The paper proves the worst-case bound Õ(n^{3/4} + n^{p/(p+2)}), which is
// about *dense* inputs (for sparse inputs the sparsity-aware machinery is
// strictly faster — that is the point of the design). We therefore sweep
// constant-edge-density Erdős–Rényi graphs (m = Θ(n²)) and fit the
// log-log growth exponent of the measured rounds per clique size.
//
// Reproduction criteria:
//  * every fitted exponent stays at or below the paper's worst-case
//    exponent max(3/4, p/(p+2)) — the Õ(·) envelope;
//  * exponents are ordered in p (larger cliques are harder), matching the
//    p/(p+2) ordering;
//  * the measurement tracks the balanced-instance model exponent 1 - 2/p
//    (an n-node expander cluster listing its own m = Θ(n²) edges — the
//    regime these instances actually exercise).
#include <cstdio>

#include "bench_util.h"
#include "core/kp_lister.h"

int main() {
  using namespace dcl;
  std::printf(
      "E1: Theorem 1.1 — Kp listing in CONGEST, Õ(n^{3/4} + n^{p/(p+2)}).\n"
      "Dense workload G(n, 0.12·C(n,2)); fitted exponents must stay under "
      "the paper's worst-case exponent.\n\n");
  const std::vector<NodeId> sizes = {128, 181, 256, 362, 512};
  const double edge_density = 0.12;
  Table table({"p", "n", "m", "rounds", "exchange", "routing", "analytic",
               "cliques"});
  std::printf("fitted exponents:\n");
  for (const int p : {4, 5, 6, 7}) {
    std::vector<double> ns, rounds;
    for (const NodeId n : sizes) {
      const double avg = bench::average_over_seeds(2, [&](std::uint64_t seed) {
        Rng rng(seed * 7919 + static_cast<std::uint64_t>(n) +
                static_cast<std::uint64_t>(p));
        const Graph g = erdos_renyi_gnp(n, edge_density, rng);
        KpConfig cfg;
        cfg.p = p;
        cfg.seed = seed;
        cfg.stop_scale = 0.15;
        ListingOutput out(g.node_count());
        const auto result = list_kp_collect(g, cfg, out);
        if (seed == 1) {
          table.row()
              .add(p)
              .add(static_cast<std::int64_t>(n))
              .add(g.edge_count())
              .add(result.total_rounds(), 1)
              .add(result.ledger.rounds_of_kind(CostKind::exchange), 1)
              .add(result.ledger.rounds_of_kind(CostKind::routing), 1)
              .add(result.ledger.rounds_of_kind(CostKind::analytic), 1)
              .add(out.unique_count());
        }
        return result.total_rounds();
      });
      ns.push_back(static_cast<double>(n));
      rounds.push_back(avg);
    }
    const double paper = std::max(0.75, static_cast<double>(p) / (p + 2));
    const double balanced = 1.0 - 2.0 / p;
    const auto fit = fit_power_law(ns, rounds);
    std::printf(
        "  K%d: measured %.3f (R^2 %.3f) | paper worst-case %.3f | "
        "balanced-instance model %.3f\n",
        p, fit.slope, fit.r_squared, paper, balanced);
  }
  std::printf("\n");
  table.print();
  return 0;
}
