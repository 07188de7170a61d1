#include "core/sparse_cc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/orientation.h"
#include "routing/cluster_router.h"

namespace dcl {

SparseCcResult sparse_cc_list(const Graph& g, const SparseCcConfig& cfg,
                              ListingOutput& out) {
  if (cfg.p < 3) throw std::invalid_argument("sparse_cc_list: p must be >= 3");
  SparseCcResult result;
  const NodeId n = g.node_count();
  if (n < 2) return result;
  // Telemetry: one span over the whole sparse CONGESTED-CLIQUE pipeline;
  // its virtual-time extent is synced from the run's ledger at each exit.
  TraceCollector* const telemetry = active_telemetry();
  SpanGuard cc_span(telemetry, "sparse-cc", "core");
  RoundLedger& ledger = result.ledger;
  auto record_cc_metrics = [&] {
    if (telemetry == nullptr) return;
    cc_span.sync_to(ledger.total_rounds(), ledger.total_messages());
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("sparsecc.runs", 1);
    metrics.counter_add("sparsecc.fake_edges",
                        static_cast<std::uint64_t>(result.fake_edges));
    metrics.gauge_max("sparsecc.parts", result.parts);
    metrics.gauge_max("sparsecc.max_pair_bucket", result.max_pair_bucket);
    metrics.gauge_max("sparsecc.max_recv_load", result.max_recv_load);
  };
  Rng rng(cfg.seed);

  const int p = cfg.p;
  const int q = std::max<int>(
      1, static_cast<int>(floor_pow(n, 1.0 / static_cast<double>(p))));
  result.parts = q;

  // Arboricity-witness orientation: each edge has a unique sender (tail).
  const Orientation orient = degeneracy_orientation(g);

  // Fake-edge padding (Section 4): bring m/n^{1/p} up to
  // pad_factor · n · log n. Fake edges only add load: the listing below
  // runs on g, so they are never listed. Each is sent by its lower end.
  std::vector<Edge> fake;
  if (cfg.pad_factor > 0) {
    const double target_m = cfg.pad_factor * static_cast<double>(n) *
                            std::log2(static_cast<double>(std::max<NodeId>(2, n))) *
                            static_cast<double>(q);
    const auto key = [](const Edge& e) {
      return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u))
              << 32) |
             static_cast<std::uint32_t>(e.v);
    };
    std::unordered_set<std::uint64_t> present;
    present.reserve(static_cast<std::size_t>(g.edge_count()) * 2);
    for (const Edge& e : g.edges()) present.insert(key(e));
    const auto possible = static_cast<double>(n) * (n - 1) / 2.0;
    while (static_cast<double>(g.edge_count()) +
               static_cast<double>(fake.size()) <
           std::min(target_m, possible)) {
      const auto a = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto b = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
      if (a == b) continue;
      const Edge e = make_edge(a, b);
      if (present.insert(key(e)).second) fake.push_back(e);
    }
    result.fake_edges = static_cast<std::int64_t>(fake.size());
  }

  // Round 1: every node announces its random part (one message to each
  // other node — exactly one CONGEST-CLIQUE round).
  std::vector<int> part(static_cast<std::size_t>(n));
  for (auto& pt : part) {
    pt = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q)));
  }
  // Fault plane: the clique phases are accounting-level, so the session
  // wraps the two charge sites below (retry entries + resend escalation;
  // the listed cliques are unchanged — see docs/ROBUSTNESS.md).
  FaultSession faults;
  faults.plan = cfg.faults;

  // One representative message per ordered pair would be n(n-1) objects;
  // the cost is exactly 1 round in either accounting mode, so charge it
  // directly and skip materialization (the paper's "broadcast one value").
  const std::uint64_t announce_msgs = static_cast<std::uint64_t>(n) *
                                      static_cast<std::uint64_t>(n - 1);
  faults.charge_exchange(ledger, "part-announce(broadcast)", 1.0,
                         announce_msgs);

  // Edge distribution: each tail sends its edge to every covering node.
  // Loads are computed exactly and charged by Lenzen routing on
  // max(max_send, max_recv) (`lenzen_rounds`).
  // Per part pair edge counts (real and fake) give Lemma 2.7's balance
  // check and every receive load: a node receives the edges of the pairs
  // its multiset covers, so loads are computed once per distinct multiset
  // and weighted by the nodes holding it.
  const PartMultisets msets = part_multisets(n, q, p);
  const std::vector<std::int64_t> cover = coverage_table(msets, q);
  std::vector<std::int64_t> pair_edges(checked_mul64(q, q), 0);
  std::vector<std::int64_t> send_load(static_cast<std::size_t>(n), 0);
  const auto distribute = [&](NodeId tail, NodeId head) {
    const auto idx = static_cast<std::size_t>(
        pair_index(part[static_cast<std::size_t>(tail)],
                   part[static_cast<std::size_t>(head)], q));
    ++pair_edges[idx];
    send_load[static_cast<std::size_t>(tail)] += cover[idx];
  };
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    distribute(orient.tail(e), orient.head(e));
  }
  for (const Edge& e : fake) distribute(e.u, e.v);
  result.max_pair_bucket =
      *std::max_element(pair_edges.begin(), pair_edges.end());
  std::int64_t max_load =
      *std::max_element(send_load.begin(), send_load.end());
  std::uint64_t total_msgs = 0;
  for (std::size_t m = 0; m < msets.parts.size(); ++m) {
    const std::int64_t recv = covered_sum(msets.parts[m], pair_edges, q);
    max_load = std::max(max_load, recv);
    total_msgs += static_cast<std::uint64_t>(recv * msets.nodes[m]);
  }
  result.max_recv_load = max_load;
  const std::int64_t distribution_rounds = lenzen_rounds(max_load, n);
  faults.charge_exchange(ledger, "edge-distribution(lenzen)",
                         static_cast<double>(distribution_rounds), total_msgs);

  if (!cfg.perform_listing) {
    result.lost_messages = ledger.lost_messages();
    record_cc_metrics();
    return result;
  }

  // Local listing, simulated once (see the header): list the real edges
  // of g along the orientation above and report each clique by every
  // representative whose multiset covers its part tuple, all in one batch
  // that appends each clique once.
  cc_span.sync_to(ledger.total_rounds(), ledger.total_messages());
  {
    SpanGuard list_span(telemetry, "sparse-cc/list", "core");
    CliqueDag dag;
    dag.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    dag.adj.reserve(static_cast<std::size_t>(g.edge_count()));
    for (NodeId v = 0; v < n; ++v) {
      const auto row = orient.out_neighbors(v);
      dag.adj.insert(dag.adj.end(), row.begin(), row.end());
      dag.offsets[static_cast<std::size_t>(v) + 1] = dag.adj.size();
    }
    CliqueScratch scratch;
    std::vector<NodeId> flat;
    list_dag_cliques(dag, p, scratch, flat, 0, n);
    PartTupleCovers covers(msets.parts, q, p);
    covers.report_rows(flat, part, {}, msets.rep, out);
    list_span.add_work(flat.size() / static_cast<std::size_t>(p));
  }

  result.lost_messages = ledger.lost_messages();
  result.total_reports = out.total_reports();
  record_cc_metrics();
  return result;
}

}  // namespace dcl
