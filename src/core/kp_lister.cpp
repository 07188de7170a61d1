#include "core/kp_lister.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/telemetry.h"
#include "core/arb_list.h"
#include "core/broadcast_listing.h"
#include "graph/orientation.h"

namespace dcl {

namespace {

/// Procedure LIST (Theorem 2.8): iterates ARB-LIST on the edges of
/// `current` until Er is empty. On return `current` holds the surviving
/// low-arboricity edge set Ẽs (with `away` updated), and every Kp with an
/// edge in the removed set has been listed.
void run_list_procedure(const Graph& base, const KpConfig& cfg, Rng& rng,
                        RoundLedger& ledger, ListingOutput& out,
                        EdgeMask& current, EdgeMask& away,
                        std::int64_t arboricity_bound,
                        std::int64_t cluster_degree, int list_iteration,
                        std::vector<ArbIterationTrace>& arb_traces,
                        FaultSession& faults) {
  EdgeMask es(base.edge_count());
  EdgeMask er = current;  // Er starts as the whole edge set (§2.3)
  // Broadcast listing of everything still touching Er — correct, with an
  // honestly charged O(A) cost.
  const auto fallback_broadcast = [&] {
    const EdgeMask cur_all = es | er;
    BroadcastListingArgs args;
    args.base = &base;
    args.current = &cur_all;
    args.away = &away;
    args.p = cfg.p;
    args.mode = BroadcastMode::out_edges;
    args.require_edge = &er;
    args.label = "list-fallback-broadcast";
    const auto stats = broadcast_listing(args, ledger, out);
    faults.inject(ledger, "list-fallback-broadcast", stats.messages);
    if (TraceCollector* telemetry = active_telemetry()) {
      telemetry->sync_to(ledger.total_rounds(), ledger.total_messages());
      telemetry->instant("list-fallback-broadcast", "core");
      telemetry->metrics().counter_add("list.fallbacks", 1);
    }
  };

  for (int iter = 0; iter < cfg.max_arb_iterations; ++iter) {
    if (er.none()) break;
    // Telemetry span per ARB-LIST iteration; coordinates come from the run
    // ledger's cumulative totals, so they are identical at any DCL_THREADS.
    SpanGuard arb_span(active_telemetry(), "arb-iteration", "core");
    ArbListContext ctx;
    ctx.base = &base;
    ctx.ledger = &ledger;
    ctx.cfg = &cfg;
    ctx.rng = &rng;
    ctx.out = &out;
    ctx.es_mask = &es;
    ctx.er_mask = &er;
    ctx.away = &away;
    ctx.cluster_degree = cluster_degree;
    ctx.arboricity_bound = arboricity_bound;
    ctx.faults = &faults;
    const double rounds_before = ledger.total_rounds();
    ArbIterationTrace trace = arb_list(ctx);
    trace.list_iteration = list_iteration;
    trace.arb_iteration = iter;
    trace.rounds = ledger.total_rounds() - rounds_before;
    arb_span.sync_to(ledger.total_rounds(), ledger.total_messages());
    arb_traces.push_back(trace);

    if (trace.er_after >= trace.er_before) {
      // No progress (e.g. the decomposition produced only clusters of bad
      // edges on a pathological instance): fall back and finish this LIST
      // call.
      fallback_broadcast();
      er.fill(false);
      log_warn() << "LIST fallback broadcast used at list iteration "
                 << list_iteration;
      break;
    }
  }
  // Anything still in Er after the iteration cap is handled by the same
  // fallback (should not happen with the 1/4 decay; the cap is a backstop).
  if (er.any()) fallback_broadcast();
  current = std::move(es);
}

}  // namespace

KpListResult list_kp_collect(const Graph& g, const KpConfig& cfg,
                             ListingOutput& out) {
  if (cfg.p < 3) throw std::invalid_argument("list_kp: p must be >= 3");
  if (cfg.k4_fast && cfg.p != 4) {
    throw std::invalid_argument("list_kp: k4_fast requires p == 4");
  }
  KpListResult result;
  const NodeId n = g.node_count();
  if (n == 0 || g.edge_count() == 0) return result;

  TraceCollector* const telemetry = active_telemetry();
  SpanGuard run_span(telemetry, "list-kp", "core");

  // Fault plane: one session per run threads the logical phase clock, the
  // detected-crash set, and the loss tally through the whole pipeline.
  FaultSession faults;
  faults.plan = cfg.faults;

  Rng rng(cfg.seed);
  // Initial arboricity witness: the degeneracy orientation.
  const Orientation orient = degeneracy_orientation(g);
  EdgeMask away = orient.away();
  EdgeMask current(g.edge_count(), true);
  std::int64_t arboricity_bound =
      std::max<std::int64_t>(1, orient.max_out_degree());

  const double stop_exp =
      cfg.k4_fast ? 2.0 / 3.0
                  : std::max(0.75, static_cast<double>(cfg.p) /
                                       static_cast<double>(cfg.p + 2));
  const std::int64_t log_n =
      std::max<std::int64_t>(1, ceil_log2(static_cast<std::uint64_t>(n)));
  const std::int64_t stop_bound = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(cfg.stop_scale *
                                   static_cast<double>(floor_pow(n, stop_exp))));

  int list_iteration = 0;
  while (arboricity_bound > stop_bound && current.any() &&
         list_iteration < 64) {
    SpanGuard iter_span(telemetry, "list-iteration", "core");
    ListIterationTrace trace;
    trace.list_iteration = list_iteration;
    trace.arboricity_bound_before = arboricity_bound;
    trace.edges_before = current.count();
    // Coupling of Section 2.2: n^δ = A / (coupling_scale · log n).
    const std::int64_t cluster_degree = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               static_cast<double>(arboricity_bound) /
               (cfg.coupling_scale * static_cast<double>(log_n))));
    trace.cluster_degree = cluster_degree;
    const double rounds_before = result.ledger.total_rounds();

    run_list_procedure(g, cfg, rng, result.ledger, out, current, away,
                       arboricity_bound, cluster_degree, list_iteration,
                       result.arb_traces, faults);

    const std::int64_t new_bound =
        std::max<std::int64_t>(1, max_out_degree(g, away, current));
    trace.arboricity_bound_after = new_bound;
    trace.edges_after = current.count();
    trace.rounds = result.ledger.total_rounds() - rounds_before;
    iter_span.sync_to(result.ledger.total_rounds(),
                      result.ledger.total_messages());
    if (telemetry != nullptr) {
      telemetry->metrics().counter_add("list.iterations", 1);
    }
    result.list_traces.push_back(trace);
    ++list_iteration;
    if (new_bound >= arboricity_bound) break;  // no progress; final stage
    arboricity_bound = new_bound;
  }

  // Final stage (§2.2): broadcast outgoing edges, list everything left.
  // Crash sweep first: a node that died since the last ARB-LIST boundary
  // cannot take part in the broadcast, and its edges left the survivor
  // contract.
  faults.charge_crash_timeout(result.ledger, faults.detect_crashes(n).size());
  faults.drop_dead_edges(g, current);
  {
    SpanGuard final_span(telemetry, "final-broadcast", "core");
    BroadcastListingArgs args;
    args.base = &g;
    args.current = &current;
    args.away = &away;
    args.p = cfg.p;
    args.mode = BroadcastMode::out_edges;
    args.label = "final-broadcast";
    const auto final_stats = broadcast_listing(args, result.ledger, out);
    faults.inject(result.ledger, "final-broadcast", final_stats.messages);
    final_span.sync_to(result.ledger.total_rounds(),
                       result.ledger.total_messages());
  }

  result.total_reports = out.total_reports();
  result.lost_messages = result.ledger.lost_messages();
  result.crash_degraded = faults.crash_degraded;
  for (NodeId v = 0; v < n; ++v) {
    if (faults.is_dead(v)) result.crashed_nodes.push_back(v);
  }
  if (telemetry != nullptr) {
    run_span.sync_to(result.ledger.total_rounds(),
                     result.ledger.total_messages());
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("list.arb_iterations", result.arb_traces.size());
    metrics.gauge_set("list.unique_cliques",
                      static_cast<std::int64_t>(out.unique_count()));
    metrics.gauge_set("list.total_reports",
                      static_cast<std::int64_t>(result.total_reports));
    metrics.gauge_set("list.crashed_nodes",
                      static_cast<std::int64_t>(result.crashed_nodes.size()));
  }
  return result;
}

KpListResult list_kp(const Graph& g, const KpConfig& cfg) {
  ListingOutput out(g.node_count());
  return list_kp_collect(g, cfg, out);
}

}  // namespace dcl
