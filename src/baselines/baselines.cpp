#include "baselines/baselines.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "common/intersect.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/arb_list.h"
#include "core/broadcast_listing.h"
#include "core/kp_lister.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/orientation.h"
#include "routing/cluster_router.h"

namespace dcl {

BaselineResult trivial_broadcast_list(const Graph& g, int p,
                                      ListingOutput& out) {
  BaselineResult result;
  BroadcastListingArgs args;
  args.base = &g;
  args.p = p;
  args.mode = BroadcastMode::neighborhood;
  args.label = "trivial-neighborhood-broadcast";
  broadcast_listing(args, result.ledger, out);
  result.total_reports = out.total_reports();
  return result;
}

double oblivious_cc_rounds(NodeId n, int p) {
  // p >= 2 keeps the budget >= 2 slots; p = 1 would budget none at all.
  if (p < 2) throw std::invalid_argument("oblivious_cc_rounds: p must be >= 2");
  if (n < 2) return 0.0;
  const int q = std::max<int>(
      1, static_cast<int>(floor_pow(n, 1.0 / static_cast<double>(p))));
  return static_cast<double>(lenzen_rounds(oblivious_pair_budget(n, q, p), n));
}

BaselineResult oblivious_cc_list(const Graph& g, int p, ListingOutput& out) {
  BaselineResult result;
  const NodeId n = g.node_count();
  if (n < 2) return result;
  const int q = std::max<int>(
      1, static_cast<int>(floor_pow(n, 1.0 / static_cast<double>(p))));
  const std::int64_t part_size = ceil_div(static_cast<std::int64_t>(n), q);

  // Fixed consecutive parts: part(v) = v / part_size.
  auto part_of = [&](NodeId v) { return static_cast<int>(v / part_size); };

  result.ledger.charge_exchange("oblivious-cc-schedule",
                                oblivious_cc_rounds(n, p),
                                static_cast<std::uint64_t>(g.edge_count()));

  // Deliver the actual edges under that schedule and list locally.
  const std::int64_t space = ipow(q, p);
  for (NodeId i = 0; i < n; ++i) {
    auto digits = radix_digits(static_cast<std::int64_t>(i) % space, q, p);
    std::sort(digits.begin(), digits.end());
    std::vector<Edge> local;
    std::vector<NodeId> to_global;
    std::unordered_map<NodeId, NodeId> to_compact;
    auto intern = [&](NodeId v) {
      auto [it, fresh] =
          to_compact.try_emplace(v, to_node(to_global.size()));
      if (fresh) to_global.push_back(v);
      return it->second;
    };
    auto covered = [&](int a, int b) {
      if (a > b) std::swap(a, b);
      if (a == b) {
        const auto lo = std::lower_bound(digits.begin(), digits.end(), a);
        return lo != digits.end() && *lo == a && (lo + 1) != digits.end() &&
               *(lo + 1) == a;
      }
      return sorted_contains(digits, a) && sorted_contains(digits, b);
    };
    for (const Edge& e : g.edges()) {
      if (covered(part_of(e.u), part_of(e.v))) {
        local.push_back(make_edge(intern(e.u), intern(e.v)));
      }
    }
    if (static_cast<int>(local.size()) < p * (p - 1) / 2) continue;
    const Graph local_graph = Graph::from_edges(
        to_node(to_global.size()), std::move(local));
    std::vector<NodeId> global(static_cast<std::size_t>(p));
    for (const auto& c : list_k_cliques(local_graph, p)) {
      for (std::size_t x = 0; x < c.size(); ++x) {
        global[x] = to_global[static_cast<std::size_t>(c[x])];
      }
      out.report(i, global);
    }
  }
  result.total_reports = out.total_reports();
  return result;
}

BaselineResult one_shot_list(const Graph& g, int p, ListingOutput& out,
                             double delta, std::uint64_t seed) {
  BaselineResult result;
  if (g.edge_count() == 0) return result;
  KpConfig cfg;
  cfg.p = p;
  cfg.enable_bad_edges = false;
  cfg.in_cluster_charge = InClusterChargeMode::worst_case;
  cfg.seed = seed;
  Rng rng(seed);

  const Orientation orient = degeneracy_orientation(g);
  EdgeMask away(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    away.set(e, orient.away_from_lower(e));
  }
  EdgeMask es(g.edge_count());
  EdgeMask er(g.edge_count(), true);

  ListingOutput scratch(g.node_count());
  ArbListContext ctx;
  ctx.base = &g;
  ctx.ledger = &result.ledger;
  ctx.cfg = &cfg;
  ctx.rng = &rng;
  ctx.out = &out;
  ctx.es_mask = &es;
  ctx.er_mask = &er;
  ctx.away = &away;
  ctx.cluster_degree = std::max<std::int64_t>(1, ceil_pow(g.node_count(), delta));
  ctx.arboricity_bound = std::max<std::int64_t>(1, orient.max_out_degree());
  arb_list(ctx);

  // Everything the single pass did not remove is finished by a
  // neighborhood broadcast (no arboricity iteration — the cost the paper's
  // coupled iterations avoid).
  const EdgeMask leftover = es | er;
  BroadcastListingArgs args;
  args.base = &g;
  args.current = &leftover;
  args.away = &away;
  args.p = p;
  args.mode = BroadcastMode::neighborhood;
  args.label = "one-shot-leftover-broadcast";
  broadcast_listing(args, result.ledger, out);

  result.total_reports = out.total_reports();
  return result;
}

BaselineResult chang_style_triangle_list(const Graph& g, ListingOutput& out,
                                         std::uint64_t seed) {
  KpConfig cfg;
  cfg.p = 3;
  cfg.seed = seed;
  const KpListResult r = list_kp_collect(g, cfg, out);
  BaselineResult result;
  result.ledger = r.ledger;
  result.total_reports = r.total_reports;
  return result;
}

}  // namespace dcl
