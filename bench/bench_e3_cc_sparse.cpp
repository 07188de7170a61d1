// E3 — Theorem 1.3: sparsity-aware CONGESTED CLIQUE listing in
// Θ̃(1 + m/n^{1+2/p}) rounds.
//
// For fixed n we sweep m across the crossover point m* = n^{1+2/p}:
// below it the algorithm runs in Õ(1) rounds (flat region), above it the
// rounds grow linearly in m. The Dolev-style oblivious baseline is flat at
// Θ(n^{1-2/p}·p²) regardless of m — the sparsity-aware algorithm must beat
// it in the sparse regime. (Section 4 of the paper; the lower-bound side of
// Θ̃ comes from Fischer et al. / Izumi–Le Gall as cited there.)
#include <cstdio>

#include "baselines/baselines.h"
#include "bench_util.h"
#include "core/sparse_cc.h"

int main() {
  using namespace dcl;
  std::printf(
      "E3: Theorem 1.3 — sparsity-aware Kp listing in the CONGESTED "
      "CLIQUE, Θ̃(1 + m/n^{1+2/p}).\n");
  for (const NodeId n : {243, 512}) {
    for (const int p : {3, 4, 5}) {
      const double crossover =
          std::pow(static_cast<double>(n), 1.0 + 2.0 / p);
      std::printf("\n-- n = %d, p = %d, crossover m* = n^{1+2/p} ≈ %.0f --\n",
                  n, p, crossover);
      Table table({"m", "m/m*", "sparse-aware rounds", "oblivious rounds",
                   "max recv load", "cliques (sparse pts)"});
      const auto max_m = static_cast<EdgeId>(n) * (n - 1) / 3;
      for (const double factor : {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
        const auto m = std::min<EdgeId>(
            max_m, static_cast<EdgeId>(factor * crossover));
        Rng rng(static_cast<std::uint64_t>(m) + static_cast<std::uint64_t>(p));
        const Graph g = erdos_renyi_gnm(n, m, rng);
        SparseCcConfig cfg;
        cfg.p = p;
        cfg.seed = 3;
        // Rounds come from the exact communication loads; skip the local
        // enumeration so the dense end of the sweep stays tractable.
        cfg.perform_listing = (static_cast<double>(m) <= crossover);
        ListingOutput out(n);
        const auto result = sparse_cc_list(g, cfg, out);
        const double oblivious_rounds = oblivious_cc_rounds(n, p);
        table.row()
            .add(m)
            .add(static_cast<double>(m) / crossover, 3)
            .add(result.total_rounds(), 1)
            .add(oblivious_rounds, 1)
            .add(result.max_recv_load)
            .add(out.unique_count());
        if (m >= max_m) break;  // density cap reached
      }
      table.print();
    }
  }
  std::printf(
      "\nExpected shape: sparse-aware flat (Õ(1)) for m ≲ m*, then linear "
      "in m; oblivious flat at its worst-case schedule for all m.\n");
  return 0;
}
