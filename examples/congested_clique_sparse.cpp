// Theorem 1.3 demo: sparsity-aware Kp listing in the CONGESTED CLIQUE.
//
// Sweeps the input density for a fixed node count and shows the
// Θ̃(1 + m/n^{1+2/p}) behaviour: constant rounds below the m* = n^{1+2/p}
// crossover, then linear growth — while the oblivious (Dolev-style)
// baseline pays its fixed worst-case schedule regardless. Also
// demonstrates the fake-edge padding mechanism of Section 4.
//
//   ./example_congested_clique_sparse [n] [p]
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "baselines/baselines.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

int main(int argc, char** argv) {
  using namespace dcl;
  const NodeId n = (argc > 1) ? std::atoi(argv[1]) : 216;
  const int p = (argc > 2) ? std::atoi(argv[2]) : 3;

  const double crossover = std::pow(static_cast<double>(n), 1.0 + 2.0 / p);
  std::printf("CONGESTED CLIQUE, n=%d, p=%d, crossover m* = n^{1+2/p} = "
              "%.0f edges\n\n",
              n, p, crossover);
  std::printf("%10s %10s %14s %14s %10s\n", "m", "m/m*", "sparse-aware",
              "oblivious", "cliques");
  for (double factor = 0.125; factor <= 8.0; factor *= 2.0) {
    const auto m = std::min<EdgeId>(
        static_cast<EdgeId>(n) * (n - 1) / 3,
        static_cast<EdgeId>(factor * crossover));
    Rng rng(static_cast<std::uint64_t>(m));
    const Graph g = erdos_renyi_gnm(n, m, rng);
    SparseCcConfig cfg;
    cfg.p = p;
    cfg.seed = 5;
    ListingOutput out(n);
    const auto result = sparse_cc_list(g, cfg, out);
    ListingOutput out2(n);
    const auto oblivious = oblivious_cc_list(g, p, out2);
    const bool ok = out.cliques() == out2.cliques();
    std::printf("%10lld %10.3f %14.1f %14.1f %10llu%s\n",
                static_cast<long long>(m),
                static_cast<double>(m) / crossover, result.total_rounds(),
                oblivious.total_rounds(),
                static_cast<unsigned long long>(out.unique_count()),
                ok ? "" : "  DISAGREE");
  }

  // Fake-edge padding (Section 4): engage it explicitly and verify no fake
  // edge leaks into the output.
  Rng rng(9);
  const Graph sparse_g = erdos_renyi_gnm(n, 4 * n, rng);
  SparseCcConfig padded;
  padded.p = p;
  padded.pad_factor = 1.0;
  ListingOutput out(n);
  const auto result = sparse_cc_list(sparse_g, padded, out);
  const auto truth = count_k_cliques(sparse_g, p);
  std::printf("\nfake-edge padding demo: %lld fake edges added; listed "
              "%llu cliques, exact count %llu — %s\n",
              static_cast<long long>(result.fake_edges),
              static_cast<unsigned long long>(out.unique_count()),
              static_cast<unsigned long long>(truth),
              out.unique_count() == truth ? "no leakage" : "LEAKED");
  return out.unique_count() == truth ? 0 : 1;
}
