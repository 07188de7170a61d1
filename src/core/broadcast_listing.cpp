#include "core/broadcast_listing.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "enumeration/clique_enumeration.h"

namespace dcl {

BroadcastListingStats broadcast_listing(const BroadcastListingArgs& args,
                                        RoundLedger& ledger,
                                        ListingOutput& out) {
  const Graph& base = *args.base;
  const bool out_mode = args.mode == BroadcastMode::out_edges;
  if (out_mode && args.away == nullptr) {
    throw std::invalid_argument("broadcast_listing: out_edges needs away bits");
  }

  // One pass over base's rows: per-node current degree and out-degree, and
  // the current graph's rows — base's rows cut to the current edges, still
  // sorted — with `require_edge` as per-entry goal flags.
  const bool cut = args.current != nullptr;
  const bool filtered = args.require_edge != nullptr;
  const auto n = static_cast<std::size_t>(base.node_count());
  std::vector<std::int64_t> deg(n, 0);
  std::vector<std::int64_t> outdeg(n, 0);
  std::vector<std::uint64_t> offsets{0};
  std::vector<NodeId> adj;
  std::vector<std::uint8_t> goal;
  for (NodeId v = 0; v < base.node_count(); ++v) {
    const auto nbrs = base.neighbors(v);
    const auto ids = base.incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const EdgeId e = ids[i];
      if (cut && !(*args.current)[e]) continue;
      ++deg[static_cast<std::size_t>(v)];
      // Edge {v, w} leaves v iff it points away from its lower end and v
      // is that end, or the other way round.
      if (out_mode && (*args.away)[e] == (v < nbrs[i])) {
        ++outdeg[static_cast<std::size_t>(v)];
      }
      if (cut) adj.push_back(nbrs[i]);
      if (filtered) goal.push_back((*args.require_edge)[e] ? 1 : 0);
    }
    if (cut) offsets.push_back(adj.size());
  }

  // Exact exchange cost: on directed current edge (u→v) node u sends its
  // list (out-edges or whole neighborhood), so the congestion is the
  // longest list, and node u sends its list once per current edge.
  BroadcastListingStats stats;
  const auto& load_of = out_mode ? outdeg : deg;
  for (std::size_t v = 0; v < n; ++v) {
    stats.rounds = std::max(stats.rounds, load_of[v]);
    stats.messages += static_cast<std::uint64_t>(deg[v] * load_of[v]);
  }
  if (stats.messages > 0) {
    ledger.charge_exchange(args.label, static_cast<double>(stats.rounds),
                           stats.messages);
  }

  // Equivalent local listing: every Kp of the current graph is known to all
  // its members; report once with the minimum-id member as reporter. The
  // goal flags make the kernel list exactly the cliques to report.
  CliqueDag dag = cut ? degeneracy_dag(offsets, adj, goal)
                      : degeneracy_dag(base, goal);
  CliqueScratch scratch;
  std::vector<NodeId> flat;
  list_dag_cliques(dag, args.p, scratch, flat, 0, dag.node_count());
  const auto width = static_cast<std::size_t>(args.p);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    const std::span<const NodeId> clique(flat.data() + at, width);
    out.report(*std::min_element(clique.begin(), clique.end()), clique);
  }
  stats.cliques_reported = flat.size() / width;
  return stats;
}

}  // namespace dcl
