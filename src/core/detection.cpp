#include "core/detection.h"

#include <algorithm>
#include <span>

namespace dcl {

DetectionResult detect_kp(const Graph& g, const KpConfig& cfg) {
  DetectionResult result;
  ListingOutput out(g.node_count());
  const KpListResult run = list_kp_collect(g, cfg, out);
  result.rounds = run.total_rounds();
  result.found = out.unique_count() > 0;
  if (result.found) {
    // The lexicographically smallest listed clique. The set's own order
    // is by hash, so its first member would be a valid but arbitrary pick.
    out.cliques().for_each_span([&](std::span<const NodeId> c) {
      if (result.witness.empty() ||
          std::lexicographical_compare(c.begin(), c.end(),
                                       result.witness.begin(),
                                       result.witness.end())) {
        result.witness.assign(c.begin(), c.end());
      }
    });
  }
  return result;
}

CountingResult count_kp_distributed(const Graph& g, const KpConfig& cfg) {
  CountingResult result;
  ListingOutput out(g.node_count());
  const KpListResult run = list_kp_collect(g, cfg, out);
  // Canonical-reporter rule: each unique clique is counted by exactly one
  // node — its minimum-id member. (Nodes can apply this rule locally: a
  // node that listed a clique knows all its member ids. A clique may be
  // listed only by nodes that are not members — the in-cluster lister
  // assigns cliques to cluster nodes by part tuples — so the rule is
  // "minimum id among the *reporters*"; the collector already gives us the
  // deduplicated set, and any consistent local tie-break yields the same
  // global sum.)
  result.count = out.unique_count();
  // Aggregation: convergecast of per-node partial counts up a BFS tree of
  // each component, then the total back down — one value per tree edge
  // per direction, so 2·depth rounds (the standard O(D) bound).
  std::int64_t depth = 0;
  if (g.node_count() > 0 && g.edge_count() > 0) {
    // BFS from the minimum-id node of each component; the convergecasts of
    // distinct components run in parallel, so charge the max depth.
    std::vector<int> dist(static_cast<std::size_t>(g.node_count()), -1);
    std::vector<NodeId> queue;
    queue.reserve(static_cast<std::size_t>(g.node_count()));  // never popped
    for (NodeId root = 0; root < g.node_count(); ++root) {
      if (dist[static_cast<std::size_t>(root)] != -1) continue;
      dist[static_cast<std::size_t>(root)] = 0;
      queue.push_back(root);
      std::size_t head = queue.size() - 1;
      for (; head < queue.size(); ++head) {
        const NodeId v = queue[head];
        for (const NodeId w : g.neighbors(v)) {
          if (dist[static_cast<std::size_t>(w)] == -1) {
            dist[static_cast<std::size_t>(w)] =
                dist[static_cast<std::size_t>(v)] + 1;
            depth = std::max<std::int64_t>(
                depth, dist[static_cast<std::size_t>(w)]);
            queue.push_back(w);
          }
        }
      }
    }
  }
  result.aggregation_rounds = static_cast<double>(2 * depth);  // up + down
  result.rounds = run.total_rounds() + result.aggregation_rounds;
  return result;
}

}  // namespace dcl
