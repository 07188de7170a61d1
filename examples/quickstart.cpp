// Quickstart: list all K4 instances of a random graph with the paper's
// CONGEST algorithm (Theorem 1.1) and validate against the sequential
// ground-truth enumerator.
//
//   ./example_quickstart [n] [m] [p]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/kp_lister.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

int main(int argc, char** argv) {
  using namespace dcl;
  const NodeId n = (argc > 1) ? std::atoi(argv[1]) : 150;
  const EdgeId m = (argc > 2) ? std::atoll(argv[2]) : 8 * n;
  const int p = (argc > 3) ? std::atoi(argv[3]) : 4;

  // 1. Make a graph (any dcl::Graph works — see graph/graph_io.h to load
  //    your own edge list).
  Rng rng(42);
  const Graph g = erdos_renyi_gnm(n, m, rng);
  std::printf("graph: n=%d, m=%lld, max degree %d\n", g.node_count(),
              static_cast<long long>(g.edge_count()), g.max_degree());

  // 2. Run the distributed lister. Every node of the simulated CONGEST
  //    network outputs cliques; their union is the answer.
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = 1;
  ListingOutput output(g.node_count());
  const KpListResult result = list_kp_collect(g, cfg, output);

  std::printf("listed %llu unique K%d instances in %.1f simulated rounds "
              "(%llu reports, duplication x%.2f)\n",
              static_cast<unsigned long long>(output.unique_count()), p,
              result.total_rounds(),
              static_cast<unsigned long long>(result.total_reports),
              output.duplication_factor());
  result.ledger.print_audited(std::cout);

  // 3. Validate against the sequential oracle.
  const CliqueSet truth{list_k_cliques(g, p)};
  if (output.cliques() == truth) {
    std::printf("validation: OK — union of node outputs == exact K%d set "
                "(%zu cliques)\n",
                p, truth.size());
    return 0;
  }
  std::printf("validation: MISMATCH (%zu expected, %llu listed)\n",
              truth.size(),
              static_cast<unsigned long long>(output.unique_count()));
  return 1;
}
