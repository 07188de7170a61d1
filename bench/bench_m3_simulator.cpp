// M3 — substrate micro-benchmarks: the spectral tools and the expander
// decomposition.
// Self-timed (min-of-k); usage: bench_m3 [--out FILE].
#include <cstring>

#include "bench_util.h"
#include "common/rng.h"
#include "expander/decomposition.h"
#include "expander/spectral.h"
#include "graph/generators.h"

namespace dcl::bench {
namespace {

int run(const char* out_path) {
  BenchReport report("bench_m3_simulator");

  for (const int n : {512, 2048}) {
    Rng rng(3);
    const Graph g = erdos_renyi_gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(10LL * n), rng);
    report.add(time_kernel(
        std::string("second_eigenvector/n=") + std::to_string(n), [&] {
          Rng eig_rng(3);
          const auto vec = second_eigenvector(g, eig_rng, 120);
          return static_cast<std::uint64_t>(vec.size());
        }));
  }

  for (const int n : {512, 2048}) {
    Rng rng(4);
    const Graph g = erdos_renyi_gnm(static_cast<NodeId>(n),
                                    static_cast<EdgeId>(12LL * n), rng);
    DecompositionConfig cfg;
    // Absolute degree target keeps both sizes in the cluster-forming regime
    // (at n^{0.55} the larger instance would peel without any spectral work).
    cfg.absolute_degree = 8;
    report.add(time_kernel(
        std::string("expander_decomposition/n=") + std::to_string(n), [&] {
          Rng deco_rng(4);
          return static_cast<std::uint64_t>(
              expander_decompose(g, static_cast<NodeId>(n), cfg, deco_rng)
                  .clusters.size());
        }));
  }

  return finish_report(report, out_path);
}

}  // namespace
}  // namespace dcl::bench

int main(int argc, char** argv) {
  return dcl::bench::bench_main(argc, argv, dcl::bench::run);
}
