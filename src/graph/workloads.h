// Structured workload families for experiments and stress tests.
//
// Plain random graphs are not enough to exercise the paper's machinery:
// a dense Erdős–Rényi graph is a whole-graph expander (the decomposition
// returns a single cluster and the outside-edge machinery idles), while a
// sparse one never forms clusters at all. These families target specific
// mechanisms:
//  * `power_workload`      — G(n, c·n^α): density-controlled scaling sweeps;
//  * `clustered_workload`  — dense blocks + sparse cross edges + hub nodes;
//  * `periphery_workload`  — dense core + *peeling* periphery pairs whose
//    K4s straddle the cluster boundary (Challenge 1 / Theorem 1.2 traffic);
//  * `ring_of_cliques_workload` — blocks joined by single bridges, the only
//    cuts sparse enough for the 1/Θ(log m) conductance threshold, so Er
//    decays over several ARB-LIST iterations (§2.3's geometry).
#pragma once

#include "common/rng.h"
#include "graph/graph.h"

namespace dcl {

/// G(n, m) with m = round(c · n^alpha), capped at a third of all pairs.
Graph power_workload(NodeId n, double c, double alpha, Rng& rng);

/// ~n^{1/4} dense blocks of ~n^{3/4} nodes, sparse cross edges, plus `hubs`
/// nodes adjacent to a 0.3 fraction of the graph (C-heavy everywhere).
Graph clustered_workload(NodeId n, Rng& rng, double p_in = 0.45,
                         double p_out = 0.015, int hubs = 4);

/// Dense ER core of ~n^{0.8} nodes plus periphery pairs, each pair sharing
/// 2–8 random core attachments and one pair edge.
Graph periphery_workload(NodeId n, Rng& rng, double core_density = 0.4);

/// Ring of `blocks` dense blocks joined by single bridge edges. Throws
/// std::invalid_argument unless 2 <= blocks <= n.
Graph ring_of_cliques_workload(NodeId n, Rng& rng, int blocks = 6,
                               double density = 0.5);

}  // namespace dcl
