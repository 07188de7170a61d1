// E8 — the iterative invariants behind Theorems 2.8 and 2.9.
//
// Traces one full run: the outer LIST iterations must (at least) halve the
// arboricity witness A each time (§2.2: "both d_k and δ_k decrease by the
// same amount"), and within each LIST, the inner ARB-LIST iterations must
// shrink |Er| geometrically (Theorem 2.9: |Êr| ≤ |Er|/4) while the bad
// edges stay within the |Er|/25-style budget that keeps the decay intact.
#include <cstdio>

#include "bench_util.h"
#include "core/kp_lister.h"

int main() {
  using namespace dcl;
  std::printf(
      "E8: iteration traces — arboricity halving (Theorem 2.8) and Er decay "
      "(Theorem 2.9).\n");
  const NodeId n = 512;
  Rng rng(11);
  // Ring of dense blocks: the bridge edges are the only sparse-enough
  // cuts, so they populate Er for later ARB iterations.
  const Graph g = bench::ring_of_cliques_workload(n, rng, 6, 0.45);
  KpConfig cfg;
  cfg.p = 4;
  cfg.stop_scale = 0.05;  // run the outer loop as deep as it can go
  cfg.coupling_scale = 0.5;
  cfg.seed = 11;
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);

  std::printf("\nOuter LIST iterations (n = %d, m = %lld):\n", n,
              static_cast<long long>(g.edge_count()));
  Table outer({"iter", "A before", "A after", "halved?", "n^δ (coupled)",
               "edges before", "edges after", "rounds"});
  for (const auto& t : result.list_traces) {
    outer.row()
        .add(t.list_iteration)
        .add(t.arboricity_bound_before)
        .add(t.arboricity_bound_after)
        .add(t.arboricity_bound_after * 2 <= t.arboricity_bound_before
                 ? "yes"
                 : "no")
        .add(t.cluster_degree)
        .add(t.edges_before)
        .add(t.edges_after)
        .add(t.rounds, 1);
  }
  outer.print();

  std::printf("\nInner ARB-LIST iterations:\n");
  Table inner({"LIST", "ARB", "|Er| before", "|Er| after", "decay",
               "goal edges", "bad edges", "bad/|Er|", "clusters",
               "heavy pairs", "max learned", "rounds"});
  for (const auto& t : result.arb_traces) {
    inner.row()
        .add(t.list_iteration)
        .add(t.arb_iteration)
        .add(t.er_before)
        .add(t.er_after)
        .add(t.er_before > 0 ? static_cast<double>(t.er_after) /
                                   static_cast<double>(t.er_before)
                             : 0.0,
             3)
        .add(t.goal_edges)
        .add(t.bad_edges)
        .add(t.er_before > 0 ? static_cast<double>(t.bad_edges) /
                                   static_cast<double>(t.er_before)
                             : 0.0,
             4)
        .add(t.clusters)
        .add(t.heavy_relationships)
        .add(t.max_learned_edges)
        .add(t.rounds, 1);
  }
  inner.print();
  std::printf(
      "\nTargets: A after ≤ A before / 2 per LIST; |Er| decay ≤ 0.25 per "
      "ARB-LIST; bad/|Er| ≤ 0.04 (paper proves 1/25).\n"
      "Total: %.1f rounds, %llu unique cliques (duplication ×%.2f).\n",
      result.total_rounds(),
      static_cast<unsigned long long>(out.unique_count()),
      out.duplication_factor());
  return 0;
}
