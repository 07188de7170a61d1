// perfbench — the repository benchmark: three Kp-listing workloads driven
// from outside the library, through its public functions only.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// `run.py` builds this program and forwards its arguments; METRICS.md lists
// the workloads, every metric, and the layer and workload each one watches.
//
// --trace 0 measures what a user of the lister sees: whole lister calls at
// 1 and at min(4, nproc) threads, alternated for --seconds, plus set-up
// time, the simulated round ledger and peak memory.
// --trace 1 is the separate per-layer run: the same calls, plus an
// outside-in replay of list_kp (degeneracy orientation → ARB-LIST calls →
// final broadcast, set up exactly as kp_lister does) with the bench's own
// timers around each public call, and standalone timings of the layers the
// pipeline is built from. No wall time comes from the library's telemetry.
//
// Every call is checked: its clique fingerprint and count against the
// list_k_cliques oracle, its ledger totals against the 1-thread reference
// run, and every replayed ARB-LIST trace against list_kp's own. A mismatch
// or an exception counts as a failed call. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/arb_list.h"
#include "core/broadcast_listing.h"
#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "expander/decomposition.h"
#include "graph/edge_mask.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "graph/workloads.h"

namespace {

using namespace dcl;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---- Workloads --------------------------------------------------------------

constexpr int kP = 4;
constexpr std::uint64_t kAlgorithmSeed = 7;

enum class Lister { kp, sparse_cc };

struct Workload {
  const char* name;
  Lister lister;
  std::uint64_t default_seed;
  double stop_scale;  ///< KpConfig::stop_scale (list_kp workloads only)
  /// Generator seed for a workload seed (the identity unless the workload
  /// rejects draws outside its regime).
  std::uint64_t (*draw_seed)(std::uint64_t seed);
  Graph (*generate)(std::uint64_t draw_seed);
};

std::uint64_t same_seed(std::uint64_t seed) { return seed; }

/// list_kp's coupled cluster degree n^δ = A / (coupling_scale · ceil(log2 n))
/// for an arboricity bound A (initially the degeneracy), as kp_lister.cpp
/// computes it for each LIST iteration.
std::int64_t kp_cluster_degree(std::int64_t bound, NodeId n,
                               double coupling_scale = KpConfig{}.coupling_scale) {
  const std::int64_t log_n =
      std::max<std::int64_t>(1, ceil_log2(static_cast<std::uint64_t>(n)));
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(bound) /
                                   (coupling_scale *
                                    static_cast<double>(log_n))));
}

Graph er1c_graph(std::uint64_t draw_seed) {
  Rng rng(draw_seed);
  return erdos_renyi_gnm(2000, 30000, rng);
}

/// er1c-p4 stays in the regime of its default seed 14: cluster degree 2.
/// About one gnm(2000, 30000) draw in five has degeneracy 21 instead of 22,
/// which halves the cluster degree and doubles the charged decomposition
/// rounds; such draws are replaced by the next seed of a fixed sequence
/// derived from the workload seed, so every seed measures the same regime
/// instead of a mix of two.
std::uint64_t er1c_draw_seed(std::uint64_t seed) {
  Rng redraw(seed);
  std::uint64_t draw_seed = seed;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Graph g = er1c_graph(draw_seed);
    const Orientation orient = degeneracy_orientation(g);
    if (kp_cluster_degree(orient.max_out_degree(), g.node_count()) == 2) {
      return draw_seed;
    }
    draw_seed = redraw.next_u64();
  }
  throw std::runtime_error("er1c-p4: no draw with cluster degree 2");
}

Graph ring8_graph(std::uint64_t seed) {
  Rng rng(seed);
  return ring_of_cliques_workload(480, rng, 8);
}

Graph cc_graph(std::uint64_t seed) {
  Rng rng(seed);
  return erdos_renyi_gnm(1000, 20000, rng);
}

const Workload kWorkloads[] = {
    {"er1c-p4", Lister::kp, 14, 0.01, er1c_draw_seed, er1c_graph},
    {"ring8-p4", Lister::kp, 13, 0.1, same_seed, ring8_graph},
    {"cc-p4", Lister::sparse_cc, 21, 0.0, same_seed, cc_graph},
};

KpConfig kp_config(const Workload& w) {
  KpConfig cfg;
  cfg.p = kP;
  cfg.seed = kAlgorithmSeed;
  cfg.stop_scale = w.stop_scale;
  return cfg;
}

SparseCcConfig cc_config() {
  SparseCcConfig cfg;
  cfg.p = kP;
  cfg.seed = kAlgorithmSeed;
  return cfg;
}

// ---- Checked lister calls ---------------------------------------------------

struct Totals {
  double rounds = 0.0;
  std::uint64_t messages = 0;
};

/// What every call must reproduce: the oracle's clique set and the
/// reference run's ledger totals.
struct Expected {
  std::uint64_t fingerprint = 0;
  std::uint64_t cliques = 0;
  Totals totals;
};

bool output_matches(const Expected& e, const ListingOutput& out) {
  return out.cliques().fingerprint() == e.fingerprint &&
         out.unique_count() == e.cliques;
}

bool call_matches(const Expected& e, const ListingOutput& out, Totals t) {
  return output_matches(e, out) && t.rounds == e.totals.rounds &&
         t.messages == e.totals.messages;
}

/// Counts every checked operation; a check that fails or throws is a
/// failure, never a dropped sample.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  bool record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }

  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Runs the workload's lister once at `threads` shards into `out`.
Totals call_lister(const Workload& w, const Graph& g, int threads,
                   ListingOutput& out, KpListResult* kp_result = nullptr,
                   SparseCcResult* cc_result = nullptr) {
  set_shard_threads(threads);
  if (w.lister == Lister::kp) {
    KpListResult r = list_kp_collect(g, kp_config(w), out);
    const Totals t{r.total_rounds(), r.ledger.total_messages()};
    if (kp_result != nullptr) *kp_result = std::move(r);
    return t;
  }
  SparseCcResult r = sparse_cc_list(g, cc_config(), out);
  const Totals t{r.total_rounds(), r.ledger.total_messages()};
  if (cc_result != nullptr) *cc_result = std::move(r);
  return t;
}

/// One timed, checked lister call; appends its wall time on success.
void timed_call(const Workload& w, const Graph& g, int threads,
                const Expected& expected, Tally& tally,
                std::vector<double>& samples_ms) {
  try {
    const auto start = Clock::now();
    ListingOutput out(g.node_count());
    const Totals t = call_lister(w, g, threads, out);
    const double ms = ms_since(start);
    if (tally.record(call_matches(expected, out, t))) samples_ms.push_back(ms);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lister call failed: %s\n", e.what());
    tally.record(false);
  }
}

// ---- Statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Splits the samples, in the order taken, into ten equal windows and
/// returns the median of the window means. On a shared machine, speed
/// phases lasting seconds (other tenants' load) split the samples into
/// modes; a per-sample median jumps between modes as their shares shift
/// from run to run, while window means move smoothly with the shares, and
/// the median over windows still drops a burst confined to one or two.
double window_median(const std::vector<double>& v) {
  const std::size_t windows = std::min<std::size_t>(10, v.size());
  std::vector<double> means;
  for (std::size_t i = 0; i < windows; ++i) {
    const std::size_t lo = i * v.size() / windows;
    const std::size_t hi = (i + 1) * v.size() / windows;
    double sum = 0.0;
    for (std::size_t k = lo; k < hi; ++k) sum += v[k];
    means.push_back(sum / static_cast<double>(hi - lo));
  }
  return median(std::move(means));
}

/// The highest of p50/p90/p99 that leaves at least ten samples above it
/// (nearest rank), with its percentile; the median when there are fewer
/// than 20 samples.
std::pair<double, int> tail(std::vector<double> v) {
  if (v.empty()) return {0.0, 50};
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  for (const int pct : {99, 90}) {
    const std::int64_t rank = (pct * n + 99) / 100;  // ceil(pct% of n)
    if (n - rank >= 10) return {v[static_cast<std::size_t>(rank - 1)], pct};
  }
  return {median(v), 50};
}

// ---- Outside-in replay of list_kp -------------------------------------------

/// The state one ARB-LIST call starts its decomposition from: its Er edge
/// set, list_kp's RNG before the call (arb_list's first draw is the
/// decomposition's split), and the coupled cluster degree.
struct DecomposeInput {
  EdgeMask er;
  Rng rng;
  std::int64_t cluster_degree;
};

struct Replay {
  explicit Replay(NodeId n) : out(n) {}
  ListingOutput out;
  RoundLedger ledger;
  std::vector<ArbIterationTrace> traces;
  std::vector<DecomposeInput> decompose_inputs;
  double orientation_ms = 0.0;
  double arb_ms = 0.0;  ///< Σ arb_list calls
  double final_broadcast_ms = 0.0;
  double wall_ms = 0.0;  ///< the whole replay, glue and timers included
  /// False when list_kp would have taken its no-progress fallback, which
  /// the replay does not mirror.
  bool complete = true;
};

/// Max out-degree of `current` under `away` (kp_lister's re-measured A).
std::int64_t out_degree_bound(const Graph& g, const EdgeMask& current,
                              const EdgeMask& away) {
  std::vector<std::int64_t> outdeg(static_cast<std::size_t>(g.node_count()),
                                   0);
  current.for_each_set([&](EdgeId e) {
    const Edge& ed = g.edge(e);
    ++outdeg[static_cast<std::size_t>(away[e] ? ed.u : ed.v)];
  });
  std::int64_t best = 0;
  for (const std::int64_t d : outdeg) best = std::max(best, d);
  return best;
}

/// Re-drives list_kp's pipeline through its public layers, with the same
/// set-up, RNG stream and loop conditions as kp_lister.cpp, timing each
/// layer call.
Replay replay_list_kp(const Graph& g, const KpConfig& cfg) {
  const NodeId n = g.node_count();
  Replay r(n);
  const auto start = Clock::now();
  Rng rng(cfg.seed);

  auto t = Clock::now();
  const Orientation orient = degeneracy_orientation(g);
  r.orientation_ms = ms_since(t);
  EdgeMask away(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    away.set(e, orient.away_from_lower(e));
  }
  EdgeMask current(g.edge_count(), true);
  std::int64_t bound = std::max<std::int64_t>(1, orient.max_out_degree());
  const double stop_exp = std::max(
      0.75, static_cast<double>(cfg.p) / static_cast<double>(cfg.p + 2));
  const std::int64_t stop_bound = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             cfg.stop_scale * static_cast<double>(floor_pow(n, stop_exp))));

  for (int list_iteration = 0;
       bound > stop_bound && current.any() && list_iteration < 64;
       ++list_iteration) {
    const std::int64_t cluster_degree =
        kp_cluster_degree(bound, n, cfg.coupling_scale);
    EdgeMask es(g.edge_count());
    EdgeMask er = current;
    for (int iter = 0; iter < cfg.max_arb_iterations && er.any(); ++iter) {
      r.decompose_inputs.push_back(DecomposeInput{er, rng, cluster_degree});
      ArbListContext ctx;
      ctx.base = &g;
      ctx.ledger = &r.ledger;
      ctx.cfg = &cfg;
      ctx.rng = &rng;
      ctx.out = &r.out;
      ctx.es_mask = &es;
      ctx.er_mask = &er;
      ctx.away = &away;
      ctx.cluster_degree = cluster_degree;
      ctx.arboricity_bound = bound;
      t = Clock::now();
      const ArbIterationTrace trace = arb_list(ctx);
      r.arb_ms += ms_since(t);
      r.traces.push_back(trace);
      if (trace.er_after >= trace.er_before) {
        r.complete = false;
        return r;
      }
    }
    if (er.any()) {
      r.complete = false;
      return r;
    }
    current = std::move(es);
    const std::int64_t new_bound =
        std::max<std::int64_t>(1, out_degree_bound(g, current, away));
    if (new_bound >= bound) break;
    bound = new_bound;
  }

  BroadcastListingArgs args;
  args.base = &g;
  args.current = &current;
  args.away = &away;
  args.p = cfg.p;
  args.mode = BroadcastMode::out_edges;
  args.label = "final-broadcast";
  t = Clock::now();
  broadcast_listing(args, r.ledger, r.out);
  r.final_broadcast_ms = ms_since(t);
  r.wall_ms = ms_since(start);
  return r;
}

/// The fields the replay must reproduce from list_kp's own traces.
bool same_trace(const ArbIterationTrace& a, const ArbIterationTrace& b) {
  return a.er_before == b.er_before && a.er_after == b.er_after &&
         a.clusters == b.clusters && a.goal_edges == b.goal_edges &&
         a.bad_edges == b.bad_edges &&
         a.tail_est_work_total == b.tail_est_work_total;
}

bool replay_matches(const Replay& r, const KpListResult& ref,
                    const Expected& expected) {
  if (!r.complete || r.traces.size() != ref.arb_traces.size()) return false;
  for (std::size_t i = 0; i < r.traces.size(); ++i) {
    if (!same_trace(r.traces[i], ref.arb_traces[i])) return false;
  }
  return call_matches(expected, r.out,
                      Totals{r.ledger.total_rounds(),
                             r.ledger.total_messages()});
}

struct DecomposeSums {
  double ms = 0.0;
  std::int64_t clusters = 0;
  std::int64_t em_edges = 0;
  double charged_rounds = 0.0;
};

/// Runs expander_decompose standalone on each replayed call's Er subgraph,
/// exactly as arb_list's step 1 builds it, timing only the decomposition.
DecomposeSums decompose_standalone(const Graph& g, const KpConfig& cfg,
                                   const std::vector<DecomposeInput>& inputs) {
  DecomposeSums sums;
  for (const DecomposeInput& in : inputs) {
    std::vector<Edge> er_edges;
    in.er.for_each_set([&](EdgeId e) { er_edges.push_back(g.edge(e)); });
    const Graph gr = Graph::from_edges(g.node_count(), std::move(er_edges));
    DecompositionConfig dcfg = cfg.decomposition;
    dcfg.absolute_degree = in.cluster_degree;
    Rng parent = in.rng;
    Rng deco_rng = parent.split();
    const auto t = Clock::now();
    const ExpanderDecomposition deco =
        expander_decompose(gr, g.node_count(), dcfg, deco_rng);
    sums.ms += ms_since(t);
    sums.clusters += static_cast<std::int64_t>(deco.clusters.size());
    sums.em_edges += deco.em_count;
    sums.charged_rounds += deco.charged_rounds;
  }
  return sums;
}

// ---- Result printing --------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int finish(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- The two runs -----------------------------------------------------------

struct Subject {
  const Workload* workload = nullptr;
  Graph graph;
  std::vector<Clique> oracle;
  Expected expected;
  KpListResult kp_ref;
  SparseCcResult cc_ref;
  int threads_t4 = 1;
  std::uint64_t draw_seed = 0;
};

/// Generates the input, lists the oracle, and runs the 1-thread reference
/// call.
Subject prepare(const Workload& w, std::uint64_t seed, Tally& tally) {
  Subject s;
  s.workload = &w;
  s.threads_t4 = static_cast<int>(std::clamp<unsigned>(
      std::thread::hardware_concurrency(), 1, 4));
  s.draw_seed = w.draw_seed(seed);
  s.graph = w.generate(s.draw_seed);

  s.oracle = list_k_cliques(s.graph, kP);
  const CliqueSet oracle_set(s.oracle);
  s.expected.fingerprint = oracle_set.fingerprint();
  s.expected.cliques = oracle_set.size();

  ListingOutput out(s.graph.node_count());
  s.expected.totals =
      call_lister(w, s.graph, 1, out, &s.kp_ref, &s.cc_ref);
  tally.record(output_matches(s.expected, out));
  return s;
}

/// Whole lister calls, 1 thread and t4 alternated until the deadline, each
/// pair followed by one timed set-up (input generation plus graph build),
/// so all three series see the same mix of machine speed phases.
int end_to_end_run(const Subject& s, double seconds, Tally& tally) {
  const Workload& w = *s.workload;
  std::vector<double> t1, t4, setup_ms;
  std::vector<double> discard;
  timed_call(w, s.graph, s.threads_t4, s.expected, tally, discard);  // warm-up
  const auto start = Clock::now();
  while (ms_since(start) < seconds * 1000.0) {
    timed_call(w, s.graph, 1, s.expected, tally, t1);
    timed_call(w, s.graph, s.threads_t4, s.expected, tally, t4);
    const auto t = Clock::now();
    const Graph g = w.generate(s.draw_seed);
    setup_ms.push_back(ms_since(t));
  }
  std::printf("%s: %zu calls at 1 thread, %zu at %d threads; error_rate %s\n",
              w.name, t1.size(), t4.size(), s.threads_t4,
              json_number(tally.error_rate()).c_str());
  // Reported, but kept out of the bounded metrics: the t4 calls and the
  // tails move with other tenants' load about twice as far as the 1-thread
  // window median does (METRICS.md).
  const auto [t1_tail, t1_pct] = tail(t1);
  const auto [t4_tail, t4_pct] = tail(t4);
  std::printf("  %-28s %16s ms (p%d, not bounded)\n", "list_t1_tail_ms",
              json_number(t1_tail).c_str(), t1_pct);
  std::printf("  %-28s %16s ms (not bounded)\n", "list_t4_ms",
              json_number(window_median(t4)).c_str());
  std::printf("  %-28s %16s ms (p%d, not bounded)\n", "list_t4_tail_ms",
              json_number(t4_tail).c_str(), t4_pct);
  return finish(
      {
          {"list_t1_ms", "ms", window_median(t1)},
          {"sim_rounds", "rounds", s.expected.totals.rounds},
          {"sim_messages", "messages",
           static_cast<double>(s.expected.totals.messages)},
          {"peak_rss_mb", "MiB", peak_rss_mb()},
          {"setup_s", "s", window_median(setup_ms) / 1000.0},
      },
      tally);
}

/// max/mean of the tail shards' estimated work, summed over calls (the
/// makespan ratio of the calls' enumeration phases run back to back).
double shard_balance(const std::vector<ArbIterationTrace>& traces) {
  double max_sum = 0.0, mean_sum = 0.0;
  for (const ArbIterationTrace& tr : traces) {
    if (tr.tail_shard_work.empty()) continue;
    std::uint64_t mx = 0, total = 0;
    for (const std::uint64_t w : tr.tail_shard_work) {
      mx = std::max(mx, w);
      total += w;
    }
    max_sum += static_cast<double>(mx);
    mean_sum += static_cast<double>(total) /
                static_cast<double>(tr.tail_shard_work.size());
  }
  return mean_sum > 0.0 ? max_sum / mean_sum : 0.0;
}

/// The per-layer run: rounds of whole calls, replays and standalone layer
/// calls until the deadline; every timing is the median over rounds.
int per_layer_run(const Subject& s, double seconds, Tally& tally) {
  const Workload& w = *s.workload;
  const Graph& g = s.graph;
  const NodeId n = g.node_count();
  const bool kp = w.lister == Lister::kp;
  const KpConfig cfg = kp_config(w);

  const Orientation orient = degeneracy_orientation(g);
  EdgeMask away(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    away.set(e, orient.away_from_lower(e));
  }
  const std::uint64_t reports =
      kp ? s.kp_ref.total_reports : s.cc_ref.total_reports;

  std::vector<double> t1, t4, orientation, enumeration, broadcast, report;
  std::vector<double> arb1, arb4, self1, self4, deco1, attributed, replay_wall;
  std::int64_t broadcast_rounds = 0;
  DecomposeSums deco_counts;
  std::vector<ArbIterationTrace> traces, traces_t4;
  std::vector<double> discard;
  timed_call(w, g, s.threads_t4, s.expected, tally, discard);  // warm-up

  const auto start = Clock::now();
  while (ms_since(start) < seconds * 1000.0) {
    timed_call(w, g, 1, s.expected, tally, t1);
    timed_call(w, g, s.threads_t4, s.expected, tally, t4);
    set_shard_threads(1);
    try {
      auto t = Clock::now();
      const Orientation o = degeneracy_orientation(g);
      orientation.push_back(ms_since(t));
      tally.record(o.max_out_degree() == orient.max_out_degree());

      t = Clock::now();
      const std::vector<Clique> listed = list_k_cliques(g, kP);
      enumeration.push_back(ms_since(t));
      tally.record(listed.size() == s.expected.cliques);

      BroadcastListingArgs args;
      args.base = &g;
      args.away = &away;
      args.p = kP;
      args.mode = BroadcastMode::out_edges;
      args.label = "bench-full-broadcast";
      RoundLedger ledger;
      ListingOutput bout(n);
      t = Clock::now();
      const BroadcastListingStats stats = broadcast_listing(args, ledger, bout);
      broadcast.push_back(ms_since(t));
      broadcast_rounds = stats.rounds;
      tally.record(output_matches(s.expected, bout));

      // Dedup layer: the oracle's cliques reported into a fresh collector
      // as often as the reference run reported (duplicates included).
      ListingOutput rout(n);
      t = Clock::now();
      for (std::uint64_t i = 0; i < reports && !s.oracle.empty(); ++i) {
        const Clique& c = s.oracle[i % s.oracle.size()];
        rout.report(c.front(), c);
      }
      report.push_back(ms_since(t));
      tally.record(output_matches(s.expected, rout));

      if (kp) {
        for (const int threads : {1, s.threads_t4}) {
          set_shard_threads(threads);
          Replay r = replay_list_kp(g, cfg);
          if (!tally.record(replay_matches(r, s.kp_ref, s.expected))) {
            std::fprintf(stderr,
                         "replay at %d threads diverged from list_kp\n",
                         threads);
            continue;
          }
          const DecomposeSums d =
              decompose_standalone(g, cfg, r.decompose_inputs);
          std::int64_t replay_clusters = 0;
          for (const ArbIterationTrace& tr : r.traces) {
            replay_clusters += tr.clusters;
          }
          tally.record(d.clusters == replay_clusters);
          if (threads == 1) {
            arb1.push_back(r.arb_ms);
            self1.push_back(r.arb_ms - d.ms);
            deco1.push_back(d.ms);
            attributed.push_back(r.orientation_ms + r.arb_ms +
                                 r.final_broadcast_ms);
            replay_wall.push_back(r.wall_ms);
            deco_counts = d;
            traces = std::move(r.traces);
          } else {
            arb4.push_back(r.arb_ms);
            self4.push_back(r.arb_ms - d.ms);
            traces_t4 = std::move(r.traces);
          }
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "layer call failed: %s\n", e.what());
      tally.record(false);
    }
  }

  const double list_t1 = median(t1);
  const auto pct_of_t1 = [&](double ms) {
    return list_t1 > 0.0 ? 100.0 * ms / list_t1 : 0.0;
  };
  std::int64_t goal = 0, bad = 0, max_learned = 0, items = 0;
  std::uint64_t est_work = 0;
  for (const ArbIterationTrace& tr : traces) {
    goal += tr.goal_edges;
    bad += tr.bad_edges;
    max_learned = std::max(max_learned, tr.max_learned_edges);
    items += tr.tail_work_items;
    est_work += tr.tail_est_work_total;
  }
  const RoundLedger& ledger = kp ? s.kp_ref.ledger : s.cc_ref.ledger;
  // Outside-visible work of one list call: for list_kp the replayed layers;
  // sparse_cc_list is a single call whose only public sub-layer is the
  // degeneracy orientation.
  const double attributed_ms =
      kp ? median(attributed) : median(orientation);
  const double replay_overhead_ms = kp ? median(replay_wall) - list_t1 : 0.0;
  std::printf("%s: %zu rounds of layer calls; %zu calls at 1 thread, %zu at "
              "%d threads; error_rate %s\n",
              w.name, orientation.size(), t1.size(), t4.size(), s.threads_t4,
              json_number(tally.error_rate()).c_str());
  const auto count = [](auto v) { return static_cast<double>(v); };
  return finish(
      {
          {"orientation.degeneracy_ms", "ms", median(orientation)},
          {"expander.decompose_ms", "ms", median(deco1)},
          {"expander.clusters", "count", count(deco_counts.clusters)},
          {"expander.em_edges", "count", count(deco_counts.em_edges)},
          {"expander.charged_rounds", "rounds", deco_counts.charged_rounds},
          {"arb.calls", "count", count(traces.size())},
          {"arb.call_ms", "ms", median(arb1)},
          {"arb.self_ms", "ms", median(self1)},
          {"arb.call_t4_ms", "ms", median(arb4)},
          {"arb.self_t4_ms", "ms", median(self4)},
          {"arb.goal_edges", "count", count(goal)},
          {"arb.bad_edges", "count", count(bad)},
          {"arb.max_learned_edges", "count", count(max_learned)},
          {"arb.tail_work_items", "count", count(items)},
          {"arb.tail_est_work_total", "count", count(est_work)},
          {"arb.tail_shard_balance_t4", "ratio", shard_balance(traces_t4)},
          {"output.report_ms", "ms", median(report)},
          {"output.duplication_factor", "ratio",
           s.expected.cliques > 0
               ? count(reports) / count(s.expected.cliques)
               : 0.0},
          {"output.total_reports", "count", count(reports)},
          {"enumeration.list_ms", "ms", median(enumeration)},
          {"cc.parts", "count", count(kp ? 0 : s.cc_ref.parts)},
          {"cc.max_pair_bucket", "count",
           count(kp ? 0 : s.cc_ref.max_pair_bucket)},
          {"cc.max_recv_load", "count", count(kp ? 0 : s.cc_ref.max_recv_load)},
          {"broadcast.full_ms", "ms", median(broadcast)},
          {"broadcast.rounds", "rounds", count(broadcast_rounds)},
          {"ledger.exchange_rounds", "rounds",
           ledger.rounds_of_kind(CostKind::exchange)},
          {"ledger.routing_rounds", "rounds",
           ledger.rounds_of_kind(CostKind::routing)},
          {"ledger.analytic_rounds", "rounds",
           ledger.rounds_of_kind(CostKind::analytic)},
          {"parallel.list_t4_ms", "ms", median(t4)},
          {"parallel.t4_speedup", "ratio",
           median(t4) > 0.0 ? list_t1 / median(t4) : 0.0},
          {"trace.overhead_pct", "%", pct_of_t1(replay_overhead_ms)},
          {"coverage.unattributed_pct", "%",
           pct_of_t1(list_t1 - attributed_ms)},
          {"error_rate", "ratio", tally.error_rate()},
      },
      tally);
}

// ---- Command line -----------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "er1c-p4|ring8-p4|cc-p4 [--seed N] [--seconds S] "
               "[--trace 0|1]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(std::string_view text, std::uint64_t max) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size() ||
      v > max) {
    usage("bad number");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  bool seed_given = false;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 30;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string_view value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
      if (workload == nullptr) usage("unknown workload");
    } else if (arg == "--seed") {
      seed = parse_uint(value, UINT64_MAX);
      seed_given = true;
    } else if (arg == "--seconds") {
      seconds = parse_uint(value, 3600);
      if (seconds == 0) usage("--seconds must be at least 1");
    } else if (arg == "--trace") {
      trace = parse_uint(value, 1) == 1;
    } else {
      usage("unknown argument");
    }
  }
  if (workload == nullptr) usage("--workload is required");
  if (!seed_given) seed = workload->default_seed;

  // Pure speed knobs must not reorder shards under the benchmark.
  set_shard_audit(ShardAudit::off);
  Tally tally;
  try {
    const Subject subject = prepare(*workload, seed, tally);
    std::printf("%s: seed %llu, n=%d m=%lld, %llu oracle cliques\n",
                workload->name, static_cast<unsigned long long>(seed),
                subject.graph.node_count(),
                static_cast<long long>(subject.graph.edge_count()),
                static_cast<unsigned long long>(subject.expected.cliques));
    const auto secs = static_cast<double>(seconds);
    return trace ? per_layer_run(subject, secs, tally)
                 : end_to_end_run(subject, secs, tally);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
