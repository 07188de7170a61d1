#include "core/arb_list.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>

#include "common/math_util.h"
#include "common/parallel_for.h"
#include "common/telemetry.h"
#include "core/broadcast_listing.h"
#include "core/in_cluster_listing.h"
#include "graph/orientation.h"
#include "routing/cluster_router.h"

namespace dcl {

namespace {

/// The current logical edge set as two CSRs filled by a counting pass
/// over `cur`: every node's neighbors with the aligned ids of the edges to
/// them, and its out-edges under the current orientation. Edges are
/// visited in ascending id order, which is lexicographic, so every row is
/// sorted by neighbor id, as `Graph` rows are.
class CurrentView {
 public:
  CurrentView(const Graph& base, const EdgeMask& cur, const EdgeMask& away) {
    const auto n = static_cast<std::size_t>(base.node_count());
    // Row offsets are edge-scale (Σ deg = 2m), hence 64-bit.
    adj_off_.assign(n + 1, 0);
    out_off_.assign(n + 1, 0);
    cur.for_each_set([&](EdgeId e) {
      const Edge& ed = base.edge(e);
      ++adj_off_[static_cast<std::size_t>(ed.u) + 1];
      ++adj_off_[static_cast<std::size_t>(ed.v) + 1];
      ++out_off_[static_cast<std::size_t>(edge_tail(base, away, e)) + 1];
    });
    for (std::size_t v = 1; v <= n; ++v) {
      adj_off_[v] += adj_off_[v - 1];
      out_off_[v] += out_off_[v - 1];
    }
    nbr_.resize(adj_off_[n]);
    edge_.resize(adj_off_[n]);
    out_.resize(out_off_[n]);
    std::vector<std::uint64_t> adj_at(adj_off_.begin(), adj_off_.end() - 1);
    std::vector<std::uint64_t> out_at(out_off_.begin(), out_off_.end() - 1);
    cur.for_each_set([&](EdgeId e) {
      const Edge& ed = base.edge(e);
      const std::uint64_t iu = adj_at[static_cast<std::size_t>(ed.u)]++;
      const std::uint64_t iv = adj_at[static_cast<std::size_t>(ed.v)]++;
      nbr_[iu] = ed.v;
      edge_[iu] = e;
      nbr_[iv] = ed.u;
      edge_[iv] = e;
      out_[out_at[static_cast<std::size_t>(edge_tail(base, away, e))]++] = e;
    });
  }

  /// v's current-graph neighbors, sorted.
  std::span<const NodeId> neighbors(NodeId v) const {
    return row(adj_off_, nbr_, v);
  }
  /// Ids of the edges to `neighbors(v)`, aligned with it.
  std::span<const EdgeId> incident_edges(NodeId v) const {
    return row(adj_off_, edge_, v);
  }
  /// Ids of v's out-edges under the current orientation, by head.
  std::span<const EdgeId> out_edges(NodeId v) const {
    return row(out_off_, out_, v);
  }

 private:
  template <class T>
  static std::span<const T> row(const std::vector<std::uint64_t>& off,
                                const std::vector<T>& entries, NodeId v) {
    const auto b = off[static_cast<std::size_t>(v)];
    const auto e = off[static_cast<std::size_t>(v) + 1];
    return {entries.data() + b, static_cast<std::size_t>(e - b)};
  }

  std::vector<std::uint64_t> adj_off_;  // n+1 row offsets into nbr_/edge_
  std::vector<std::uint64_t> out_off_;  // n+1 row offsets into out_
  std::vector<NodeId> nbr_;
  std::vector<EdgeId> edge_;
  std::vector<EdgeId> out_;
};

/// Per-node cluster-neighbor counts g_{v,C}: one CSR of (cluster, count)
/// entries, sorted by cluster id within each node's row. Replaces the old
/// vector of per-node unordered_maps — the rows live in one contiguous
/// array and membership is a binary search over a short sorted row.
struct ClusterNeighborTable {
  // Row offsets are prefix sums bounded by Σ_v |N(v)| = 2m — edge-scale,
  // past 2^32 on graphs of tens of millions of nodes — so they are 64-bit
  // even though every individual row length is node-scale.
  std::vector<std::uint64_t> off;  // n+1 row offsets
  std::vector<std::pair<int, std::int32_t>> entries;

  std::span<const std::pair<int, std::int32_t>> row(NodeId v) const {
    const auto b = off[static_cast<std::size_t>(v)];
    const auto e = off[static_cast<std::size_t>(v) + 1];
    return {entries.data() + b, static_cast<std::size_t>(e - b)};
  }

  /// Count for cluster `c` at node `v`, or nullptr when v has no
  /// C-neighbors.
  const std::int32_t* find(NodeId v, int c) const {
    const auto r = row(v);
    const auto it = std::lower_bound(
        r.begin(), r.end(), c,
        [](const std::pair<int, std::int32_t>& e, int key) {
          return e.first < key;
        });
    return (it != r.end() && it->first == c) ? &it->second : nullptr;
  }
};

/// Builds the table sharded over the node index: each shard run-length
/// encodes the sorted cluster ids of its nodes into a shard-local buffer;
/// shards cover contiguous ascending node ranges, so concatenating the
/// buffers in shard order IS the node-ordered CSR payload.
/// Per-node work in the sharded step 2a/3 scans is one adjacency walk;
/// below this many nodes per shard the pool dispatch costs more than the
/// loop (grain rule of parallel_for_shards).
constexpr std::int64_t kNodeScanGrain = 256;
/// Step 4 does nested adjacency×adjacency work per node — a coarser unit.
constexpr std::int64_t kLightListGrain = 64;

ClusterNeighborTable build_cluster_neighbors(NodeId n, const CurrentView& view,
                                             const std::vector<int>& cluster_of) {
  ClusterNeighborTable table;
  table.off.assign(static_cast<std::size_t>(n) + 1, 0);
  // Sized by shard_threads() alone — an upper bound on whatever shard
  // count parallel_for_shards derives, so the two can never disagree.
  std::vector<std::vector<std::pair<int, std::int32_t>>> shard_entries(
      static_cast<std::size_t>(shard_threads()));
  parallel_for_shards(n, [&](int shard, std::int64_t lo, std::int64_t hi) {
    auto& buf = shard_entries[static_cast<std::size_t>(shard)];
    std::vector<int> scratch;
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto v = static_cast<NodeId>(i);
      scratch.clear();
      for (const NodeId w : view.neighbors(v)) {
        const int c = cluster_of[static_cast<std::size_t>(w)];
        if (c >= 0 && cluster_of[static_cast<std::size_t>(v)] != c) {
          scratch.push_back(c);
        }
      }
      std::sort(scratch.begin(), scratch.end());
      const std::size_t row_start = buf.size();
      for (std::size_t x = 0; x < scratch.size();) {
        std::size_t y = x;
        while (y < scratch.size() && scratch[y] == scratch[x]) ++y;
        buf.emplace_back(scratch[x], static_cast<std::int32_t>(y - x));
        x = y;
      }
      table.off[static_cast<std::size_t>(v) + 1] = buf.size() - row_start;
    }
  }, kNodeScanGrain);
  for (std::size_t v = 1; v <= static_cast<std::size_t>(n); ++v) {
    table.off[v] += table.off[v - 1];
  }
  table.entries.reserve(table.off[static_cast<std::size_t>(n)]);
  for (const auto& buf : shard_entries) {
    table.entries.insert(table.entries.end(), buf.begin(), buf.end());
  }
  return table;
}

}  // namespace

ArbIterationTrace arb_list(ArbListContext& ctx) {
  const Graph& base = *ctx.base;
  const KpConfig& cfg = *ctx.cfg;
  const NodeId n = base.node_count();
  auto& es = *ctx.es_mask;
  auto& er = *ctx.er_mask;
  auto& away = *ctx.away;

  // Fault plane: detection and every fault decision happen ONLY at the
  // sequential phase boundaries of this function — decisions mutate the
  // recorded replay schedule, so they must never run inside a parallel
  // region. Without a driver session the hooks run on an inert one.
  FaultSession inert;
  FaultSession& faults = ctx.faults != nullptr ? *ctx.faults : inert;
  // Each crash sweep charges the missed-phase timeout that detected it.
  auto sweep_crashes = [&] {
    auto newly = faults.detect_crashes(n);
    faults.charge_crash_timeout(*ctx.ledger, newly.size());
    return newly;
  };
  // Crash sweep at call entry: nodes whose crash clock has already passed
  // leave the logical graph before the decomposition sees them — their
  // edges can neither be goal edges (the survivor contract covers only
  // alive-alive edges) nor carry into later iterations.
  sweep_crashes();
  faults.drop_dead_edges(base, er);
  faults.drop_dead_edges(base, es);

  // Telemetry: one span per ARB-LIST step, coordinatized by the cumulative
  // ledger totals (virtual time). Spans begin/end only in this sequential
  // orchestration code — never inside a shard body — so the span tree is
  // identical at any DCL_THREADS; shard bodies record into per-shard
  // metric cells merged in shard order below.
  TraceCollector* const telemetry = active_telemetry();
  auto sync_telemetry = [&] {
    if (telemetry != nullptr) {
      telemetry->sync_to(ctx.ledger->total_rounds(),
                         ctx.ledger->total_messages());
    }
  };
  auto begin_step = [&](const char* name) {
    if (telemetry == nullptr) return std::int32_t{-1};
    sync_telemetry();
    return telemetry->begin_span(name, "arb");
  };
  auto end_step = [&](std::int32_t id) {
    if (telemetry == nullptr) return;
    sync_telemetry();
    telemetry->end_span(id);
  };

  ArbIterationTrace trace;
  trace.er_before = er.count();
  if (trace.er_before == 0) return trace;

  // ---- Step 1: expander decomposition of (V, Er) (Theorem 2.3). ----------
  const std::int32_t decompose_span = begin_step("arb/decompose");
  const Subgraph gr =
      subgraph(base, {}, er, static_cast<std::size_t>(trace.er_before));
  DecompositionConfig dcfg = cfg.decomposition;
  dcfg.absolute_degree = ctx.cluster_degree;
  Rng deco_rng = ctx.rng->split();
  const ExpanderDecomposition deco =
      expander_decompose(gr.graph, n, dcfg, deco_rng);
  ctx.ledger->charge_analytic("expander-decomposition (T2.3)",
                              deco.charged_rounds);

  // Apply the split to the logical edge sets.
  std::vector<EdgeId> em_edges;  // base ids of cluster-internal edges
  for (EdgeId se = 0; se < gr.graph.edge_count(); ++se) {
    const EdgeId be = gr.to_base[static_cast<std::size_t>(se)];
    switch (deco.part[static_cast<std::size_t>(se)]) {
      case EdgePart::sparse:
        er.set(be, false);
        es.set(be, true);
        away.set(be, deco.es_away_from_lower[se]);
        break;
      case EdgePart::cluster:
        er.set(be, false);  // pending goal/bad split
        em_edges.push_back(be);
        break;
      case EdgePart::removed:
        break;  // stays in Er
    }
  }
  trace.clusters = static_cast<std::int64_t>(deco.clusters.size());
  end_step(decompose_span);

  if (deco.clusters.empty()) {
    trace.er_after = er.count();
    trace.es_total = es.count();
    return trace;
  }

  // ---- Step 2a: cluster announcement + g_{v,C} (one exchange round). -----
  // Every cluster node tells its current-graph neighbors its cluster id;
  // v then knows g_{v,C} for each adjacent cluster C. Built sharded into
  // the flat CSR table; the announce message count is the sum of all
  // per-cluster counts (one message per cross-cluster adjacency). The span
  // also owns the build of the current-graph view the announcement walks.
  const std::int32_t announce_span = begin_step("arb/cluster-announce");
  // The "current graph" for this call: all Es ∪ Er ∪ Em edges that existed
  // on entry (Em edges are removed only after the call).
  EdgeMask cur = es | er;
  for (const EdgeId be : em_edges) cur.set(be);
  const CurrentView view(base, cur, away);

  const auto& cluster_of = deco.cluster_of;
  const ClusterNeighborTable cluster_neighbors =
      build_cluster_neighbors(n, view, cluster_of);
  std::uint64_t announce_msgs = 0;
  for (const auto& [c, count] : cluster_neighbors.entries) {
    announce_msgs += static_cast<std::uint64_t>(count);
  }
  faults.charge_exchange(*ctx.ledger, "cluster-announce", 1.0, announce_msgs);
  end_step(announce_span);

  // Heavy threshold: n^{1/4} in the general algorithm (Section 2.4.1),
  // A / n^{1/3} in k4_fast mode (Section 3).
  const std::int64_t heavy_threshold = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(
             cfg.heavy_scale *
             (cfg.k4_fast
                  ? static_cast<double>(ctx.arboricity_bound) /
                        std::pow(static_cast<double>(std::max<NodeId>(2, n)),
                                 1.0 / 3.0)
                  : std::pow(static_cast<double>(std::max<NodeId>(2, n)),
                             0.25)))));

  auto is_heavy_for = [&](NodeId v, int c) {
    const std::int32_t* count = cluster_neighbors.find(v, c);
    return count != nullptr && *count > heavy_threshold;
  };

  // ---- Step 2b: heavy nodes ship their outgoing edges into the cluster. --
  // v sends its ≤ A outgoing edges in round-robin chunks across its
  // C-neighbors; per-edge congestion is the chunk size.
  const std::int32_t heavy_span = begin_step("arb/heavy-edges");
  // Edges learned from outside the cluster, per node, as base edge ids.
  std::vector<std::vector<EdgeId>> learned(static_cast<std::size_t>(n));
  std::int64_t heavy_phase_load = 0;
  std::uint64_t heavy_msgs = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto clusters_of_v = cluster_neighbors.row(v);
    if (clusters_of_v.empty()) continue;
    const auto out_v = view.out_edges(v);
    for (const auto& [c, count] : clusters_of_v) {
      if (count <= heavy_threshold) continue;  // C-light
      ++trace.heavy_relationships;
      if (out_v.empty()) continue;
      // Collect v's neighbors inside cluster c (sorted by id via adj order).
      std::vector<NodeId> receivers;
      receivers.reserve(static_cast<std::size_t>(count));
      for (const NodeId w : view.neighbors(v)) {
        if (cluster_of[static_cast<std::size_t>(w)] == c) {
          receivers.push_back(w);
        }
      }
      for (std::size_t i = 0; i < out_v.size(); ++i) {
        const NodeId u = receivers[i % receivers.size()];
        learned[static_cast<std::size_t>(u)].push_back(out_v[i]);
      }
      heavy_msgs += out_v.size();
      heavy_phase_load = std::max(
          heavy_phase_load,
          ceil_div(static_cast<std::int64_t>(out_v.size()),
                   static_cast<std::int64_t>(receivers.size())));
    }
  }
  faults.charge_exchange(*ctx.ledger, "heavy-edge-shipping",
                         static_cast<double>(heavy_phase_load), heavy_msgs);
  end_step(heavy_span);

  // ---- Step 3: light-status exchange, bad nodes, bad edges. ---------------
  const std::int32_t status_span = begin_step("arb/light-status");
  // One round: every outside node tells its cluster neighbors whether it is
  // C-light; u ∈ C then knows u_light. Sharded over u: ulight slots are
  // disjoint and the message count is an exact integer sum over shards.
  std::vector<std::int64_t> ulight(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> shard_status_msgs(
      static_cast<std::size_t>(shard_threads()), 0);
  parallel_for_shards(n, [&](int shard, std::int64_t lo, std::int64_t hi) {
    std::uint64_t msgs = 0;
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto u = static_cast<NodeId>(i);
      const int c = cluster_of[static_cast<std::size_t>(u)];
      if (c < 0) continue;
      for (const NodeId v : view.neighbors(u)) {
        if (cluster_of[static_cast<std::size_t>(v)] == c) continue;
        ++msgs;
        if (!is_heavy_for(v, c)) ++ulight[static_cast<std::size_t>(u)];
      }
    }
    shard_status_msgs[static_cast<std::size_t>(shard)] = msgs;
  }, kNodeScanGrain);
  std::uint64_t status_msgs = 0;
  for (const std::uint64_t msgs : shard_status_msgs) status_msgs += msgs;
  faults.charge_exchange(*ctx.ledger, "light-status", 1.0, status_msgs);
  end_step(status_span);

  const std::int64_t bad_threshold = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(
             cfg.bad_scale *
             std::sqrt(static_cast<double>(std::max<NodeId>(2, n))) *
             std::log2(static_cast<double>(std::max<NodeId>(2, n))))));
  std::vector<bool> bad(static_cast<std::size_t>(n), false);
  if (cfg.enable_bad_edges && !cfg.k4_fast) {
    for (NodeId u = 0; u < n; ++u) {
      if (cluster_of[static_cast<std::size_t>(u)] >= 0 &&
          ulight[static_cast<std::size_t>(u)] > bad_threshold) {
        bad[static_cast<std::size_t>(u)] = true;
      }
    }
  }

  // Goal edges = Em minus edges between two bad nodes; bad edges return to
  // Er for a later iteration (but stay in `cur` for communication).
  EdgeMask goal(base.edge_count());
  for (const EdgeId be : em_edges) {
    const Edge& ed = base.edge(be);
    if (bad[static_cast<std::size_t>(ed.u)] &&
        bad[static_cast<std::size_t>(ed.v)]) {
      er.set(be, true);
      ++trace.bad_edges;
    } else {
      goal.set(be, true);
      ++trace.goal_edges;
    }
  }

  // ---- Step 4: C-light edge learning (general algorithm only). -----------
  // Two sequential exchanges: good cluster nodes broadcast their C-light
  // neighbor lists to every outside neighbor, then the outside neighbors
  // answer with the sublist they are adjacent to. Each exchange is charged
  // its exact per-directed-edge congestion.
  if (!cfg.k4_fast) {
    const std::int32_t light_span = begin_step("arb/light-lists");
    // Sharded over u: each u writes only learned[u] (its own slot, in its
    // own iteration order), the `mark` scratch is per-shard, and the loads
    // merge by exact max / integer sum — all independent of interleaving.
    struct LightListStats {
      std::int64_t broadcast_load = 0;
      std::int64_t response_load = 0;
      std::uint64_t broadcast_msgs = 0;
      std::uint64_t response_msgs = 0;
    };
    std::vector<LightListStats> shard_stats(
        static_cast<std::size_t>(shard_threads()));
    parallel_for_shards(n, [&](int shard, std::int64_t lo, std::int64_t hi) {
      LightListStats stats;
      std::vector<bool> mark(static_cast<std::size_t>(n), false);
      std::vector<NodeId> light_list;
      for (std::int64_t i = lo; i < hi; ++i) {
        const auto u = static_cast<NodeId>(i);
        const int c = cluster_of[static_cast<std::size_t>(u)];
        if (c < 0 || bad[static_cast<std::size_t>(u)]) continue;
        // L(u): u's C-light neighbors outside the cluster.
        light_list.clear();
        for (const NodeId v : view.neighbors(u)) {
          if (cluster_of[static_cast<std::size_t>(v)] != c &&
              !is_heavy_for(v, c)) {
            light_list.push_back(v);
          }
        }
        if (light_list.empty()) continue;
        for (const NodeId w : light_list) {
          mark[static_cast<std::size_t>(w)] = true;
        }
        for (const NodeId v : view.neighbors(u)) {
          if (cluster_of[static_cast<std::size_t>(v)] == c) continue;
          // u → v: the whole list; v → u: the members adjacent to v.
          stats.broadcast_load = std::max(
              stats.broadcast_load,
              static_cast<std::int64_t>(light_list.size()));
          stats.broadcast_msgs += light_list.size();
          std::int64_t matches = 0;
          const auto v_nbrs = view.neighbors(v);
          const auto v_edges = view.incident_edges(v);
          for (std::size_t j = 0; j < v_nbrs.size(); ++j) {
            const NodeId w = v_nbrs[j];
            if (w == u || !mark[static_cast<std::size_t>(w)]) continue;
            ++matches;
            // v reports the edge {v,w} with its orientation bit.
            learned[static_cast<std::size_t>(u)].push_back(v_edges[j]);
          }
          stats.response_msgs += static_cast<std::uint64_t>(matches);
          stats.response_load = std::max(stats.response_load, matches);
        }
        for (const NodeId w : light_list) {
          mark[static_cast<std::size_t>(w)] = false;
        }
      }
      shard_stats[static_cast<std::size_t>(shard)] = stats;
    }, kLightListGrain);
    LightListStats total;
    for (const LightListStats& stats : shard_stats) {
      total.broadcast_load = std::max(total.broadcast_load,
                                      stats.broadcast_load);
      total.response_load = std::max(total.response_load, stats.response_load);
      total.broadcast_msgs += stats.broadcast_msgs;
      total.response_msgs += stats.response_msgs;
    }
    faults.charge_exchange(*ctx.ledger, "light-list-broadcast",
                           static_cast<double>(total.broadcast_load),
                           total.broadcast_msgs);
    faults.charge_exchange(*ctx.ledger, "light-list-response",
                           static_cast<double>(total.response_load),
                           total.response_msgs);
    end_step(light_span);
  }

  // ---- Fault plane: mid-call crash handling. ------------------------------
  // Crashes whose clock fell inside steps 2–4 are detected now (the
  // missed-phase timeout of the pre-step-5 barrier), and again after the
  // step-5 plan commits. Each detection:
  //  * removes dead-incident edges from every logical edge set — they stop
  //    being goal edges (the survivor contract covers alive-alive edges);
  //  * redistributes what the dead members had learned in steps 2b/4 to the
  //    surviving cluster members, round-robin ("crash-relearn", charged);
  //  * marks touched clusters so their rosters are rebuilt over the
  //    survivors before (or re-planned after) the Theorem 2.4 routing;
  //  * sends decimated clusters — fewer than 2 survivors, or less than half
  //    the roster — to the broadcast-listing fallback instead.
  std::vector<char> cluster_touched(deco.clusters.size(), 0);
  std::vector<char> cluster_fallback(deco.clusters.size(), 0);
  EdgeMask fallback_goal(base.edge_count());
  const bool crash_mode = faults.active() && !faults.plan->crashes().empty();
  auto apply_crashes = [&](const std::vector<NodeId>& newly) {
    std::vector<std::size_t> newly_touched;
    if (newly.empty()) return newly_touched;
    for (const NodeId u : newly) {
      const int c = cluster_of[static_cast<std::size_t>(u)];
      if (c < 0) continue;
      if (!cluster_touched[static_cast<std::size_t>(c)]) {
        cluster_touched[static_cast<std::size_t>(c)] = 1;
        newly_touched.push_back(static_cast<std::size_t>(c));
      }
      // Redistribute the dead member's learned edges (steps 2b/4) to the
      // survivors; edges with a dead endpoint are unroutable and dropped.
      auto& learned_u = learned[static_cast<std::size_t>(u)];
      std::vector<NodeId> survivors;
      for (const NodeId w :
           deco.clusters[static_cast<std::size_t>(c)].nodes) {
        if (!faults.is_dead(w)) survivors.push_back(w);
      }
      if (!survivors.empty() && !learned_u.empty()) {
        std::uint64_t relearned = 0;
        std::size_t slot = 0;
        for (const EdgeId e : learned_u) {
          const Edge& ed = base.edge(e);
          if (faults.is_dead(ed.u) || faults.is_dead(ed.v)) continue;
          learned[static_cast<std::size_t>(
                      survivors[slot++ % survivors.size()])]
              .push_back(e);
          ++relearned;
        }
        if (relearned > 0) {
          ctx.ledger->charge_exchange(
              "crash-relearn",
              static_cast<double>(ceil_div(
                  static_cast<std::int64_t>(relearned),
                  static_cast<std::int64_t>(survivors.size()))),
              relearned);
        }
      }
      learned_u.clear();
    }
    faults.drop_dead_edges(base, goal);
    faults.drop_dead_edges(base, er);
    faults.drop_dead_edges(base, es);
    // Decimation check for every touched, not-yet-fallback cluster.
    for (std::size_t ci = 0; ci < deco.clusters.size(); ++ci) {
      if (!cluster_touched[ci] || cluster_fallback[ci]) continue;
      const Cluster& cluster = deco.clusters[ci];
      std::size_t alive = 0;
      for (const NodeId w : cluster.nodes) alive += !faults.is_dead(w);
      if (alive >= 2 && 2 * alive >= cluster.nodes.size()) continue;
      cluster_fallback[ci] = 1;
      std::vector<EdgeId> moved;
      goal.for_each_set([&](EdgeId be) {
        const Edge& ed = base.edge(be);
        if (cluster_of[static_cast<std::size_t>(ed.u)] ==
            static_cast<int>(cluster.id)) {
          moved.push_back(be);
        }
      });
      for (const EdgeId be : moved) {
        goal.set(be, false);
        fallback_goal.set(be, true);
      }
    }
    return newly_touched;
  };
  apply_crashes(sweep_crashes());

  // ---- Step 5: reshuffle to responsibility holders (Theorem 2.4). --------
  // The paper runs every cluster's reshuffle + in-cluster listing
  // independently (§2.4: clusters route and list in parallel on disjoint
  // edge sets). The tail is a two-level scheduler:
  //
  //  * Phase A (plan) shards over *clusters*, whose plans are independent
  //    of each other (each has its own pre-split Rng): routing to
  //    responsibility holders, the in-cluster plan (partition, oriented
  //    cluster graph, representative roster), and EVERY ledger charge —
  //    the charges are a pure function of the plans, never of how
  //    enumeration is sharded.
  //  * Phase B (enumerate) flattens the plans' oriented cluster graphs into
  //    (cluster, DAG-root-range) work items weighted by the roots'
  //    out-degree² and shards those with the proportional weighted
  //    allocator — so the one-huge-cluster regime (every ER bench input
  //    decomposes to a single cluster) still splits across threads
  //    instead of collapsing onto one.
  //
  // Determinism contract: per-cluster RNGs are pre-split in cluster order
  // before the region (the parent stream advances exactly as the
  // sequential loop's split() calls did), clusters touch only disjoint
  // node slots of the read-only step 2b/4 state, work items are a pure
  // function of the plans (grain independent of thread count), and the
  // per-shard listing buffers / charge accumulators merge in shard
  // (= ascending cluster / item) order — every fingerprint is
  // bit-identical at any DCL_THREADS (tests/test_parallel_for.cpp,
  // tests/test_single_cluster_sharding.cpp).
  const std::int32_t plan_span = begin_step("arb/tail-plan");
  const auto new_id = assign_cluster_ids(deco.clusters, n, *ctx.ledger);
  std::vector<Rng> cluster_rngs = ctx.rng->split_n(deco.clusters.size());

  // Crash mode: clusters with dead members run on *patched* rosters — the
  // survivors, with dense within-cluster ids reassigned by survivor order
  // and the routing bandwidth reduced by the members lost (each survivor
  // lost at most that many internal neighbors). Untouched clusters keep the
  // original roster objects, so their plans and charges stay bit-identical
  // to the fault-free run.
  std::vector<Cluster> patched_clusters;
  std::vector<NodeId> patched_new_id;
  auto patch_cluster = [&](std::size_t ci) {
    Cluster& pc = patched_clusters[ci];
    const Cluster& oc = deco.clusters[ci];
    pc.nodes.clear();
    for (const NodeId w : oc.nodes) {
      if (!faults.is_dead(w)) pc.nodes.push_back(w);
    }
    const auto members_lost =
        static_cast<std::int64_t>(oc.nodes.size() - pc.nodes.size());
    pc.min_internal_degree = static_cast<NodeId>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(oc.min_internal_degree) - members_lost));
    for (std::size_t i = 0; i < pc.nodes.size(); ++i) {
      patched_new_id[static_cast<std::size_t>(pc.nodes[i])] =
          static_cast<NodeId>(i);
    }
  };
  if (crash_mode) {
    patched_clusters = deco.clusters;
    patched_new_id = new_id;
    for (std::size_t ci = 0; ci < deco.clusters.size(); ++ci) {
      if (cluster_touched[ci] && !cluster_fallback[ci]) patch_cluster(ci);
    }
  }
  const Cluster* const clusters_data =
      crash_mode ? patched_clusters.data() : deco.clusters.data();
  const NodeId* const id_of =
      crash_mode ? patched_new_id.data() : new_id.data();

  struct ClusterTailState {
    ParallelRoutingCharge reshuffle;
    ParallelRoutingCharge partition;
    ParallelRoutingCharge distribution;
    std::int64_t max_learned_edges = 0;
  };

  std::vector<InClusterPlan> plans(deco.clusters.size());

  auto prepare_cluster = [&](std::size_t ci, ClusterTailState& st) {
    if (crash_mode && cluster_fallback[ci]) return;  // broadcast path
    const Cluster& cluster = clusters_data[ci];
    const auto k = to_node(cluster.nodes.size());
    if (k == 0) return;
    const std::int64_t bandwidth =
        std::max<std::int64_t>(1, cluster.min_internal_degree);
    std::vector<std::vector<EdgeId>> holders(static_cast<std::size_t>(k));
    std::vector<std::int64_t> send_load(static_cast<std::size_t>(k), 0);
    std::vector<std::int64_t> recv_load(static_cast<std::size_t>(k), 0);

    // Each edge goes to the holder responsible for its orientation tail.
    auto route = [&](NodeId from_cluster_node, NodeId holder, EdgeId e) {
      holders[static_cast<std::size_t>(holder)].push_back(e);
      ++send_load[static_cast<std::size_t>(
          id_of[static_cast<std::size_t>(from_cluster_node)])];
      ++recv_load[static_cast<std::size_t>(holder)];
    };
    auto holder_of = [&](NodeId tail) {
      return responsible_cluster_index(tail, n, k);
    };

    for (const NodeId u : cluster.nodes) {
      // Own outgoing edges.
      const NodeId own_holder = holder_of(u);
      for (const EdgeId e : view.out_edges(u)) route(u, own_holder, e);
      // Crossing edges oriented away from the outside endpoint (u is the
      // only cluster node guaranteed to know them).
      const auto u_nbrs = view.neighbors(u);
      const auto u_edges = view.incident_edges(u);
      for (std::size_t j = 0; j < u_nbrs.size(); ++j) {
        const NodeId v = u_nbrs[j];
        if (cluster_of[static_cast<std::size_t>(v)] == cluster.id) continue;
        if (edge_tail(base, away, u_edges[j]) == v) {
          route(u, holder_of(v), u_edges[j]);
        }
      }
      // Everything learned from outside during steps 2b and 4.
      auto& learned_u = learned[static_cast<std::size_t>(u)];
      st.max_learned_edges =
          std::max(st.max_learned_edges,
                   static_cast<std::int64_t>(learned_u.size()));
      for (const EdgeId e : learned_u) {
        route(u, holder_of(edge_tail(base, away, e)), e);
      }
    }

    std::int64_t max_load = 0;
    std::uint64_t routed = 0;
    for (NodeId i = 0; i < k; ++i) {
      max_load = std::max({max_load, send_load[static_cast<std::size_t>(i)],
                           recv_load[static_cast<std::size_t>(i)]});
      routed += static_cast<std::uint64_t>(
          recv_load[static_cast<std::size_t>(i)]);
      auto& h = holders[static_cast<std::size_t>(i)];
      std::sort(h.begin(), h.end());
      h.erase(std::unique(h.begin(), h.end()), h.end());
    }
    st.reshuffle.add_cluster(max_load, bandwidth, routed);

    // Partition broadcast: every cluster node announces the part choices of
    // its ≤ ceil(n/k) responsibility nodes to all k-1 peers.
    const std::int64_t range = ceil_div(static_cast<std::int64_t>(n),
                                        static_cast<std::int64_t>(k));
    st.partition.add_cluster(
        range * (k - 1), bandwidth,
        static_cast<std::uint64_t>(range) * static_cast<std::uint64_t>(k) *
            static_cast<std::uint64_t>(k - 1));

    // In-cluster sparsity-aware listing plan (Section 2.4.3). The plan
    // carries the exact distribution loads; the enumeration half runs in
    // Phase B below and cannot change any charge.
    InClusterProblem problem;
    problem.base = &base;
    problem.cluster = &cluster;
    problem.edges_by_holder = &holders;
    problem.goal_edge = &goal;
    problem.p = cfg.p;
    problem.charge_mode = cfg.in_cluster_charge;
    plans[ci] = in_cluster_plan(problem, cluster_rngs[ci]);
    const InClusterCost& cost = plans[ci].cost;
    st.distribution.add_cluster(std::max(cost.max_send, cost.max_recv),
                                bandwidth, cost.messages);
  };

  std::vector<ClusterTailState> shard_tail(
      static_cast<std::size_t>(shard_threads()));
  parallel_for_shards(static_cast<std::int64_t>(deco.clusters.size()),
                      [&](int shard, std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t ci = lo; ci < hi; ++ci) {
                          prepare_cluster(
                              static_cast<std::size_t>(ci),
                              shard_tail[static_cast<std::size_t>(shard)]);
                        }
                      });
  ClusterTailState tail;
  for (const ClusterTailState& st : shard_tail) {
    tail.reshuffle.merge_from(st.reshuffle);
    tail.partition.merge_from(st.partition);
    tail.distribution.merge_from(st.distribution);
    tail.max_learned_edges =
        std::max(tail.max_learned_edges, st.max_learned_edges);
  }
  trace.max_learned_edges =
      std::max(trace.max_learned_edges, tail.max_learned_edges);
  tail.reshuffle.commit(*ctx.ledger, "reshuffle (T2.4)", n);
  tail.partition.commit(*ctx.ledger, "partition-broadcast (T2.4)", n);
  tail.distribution.commit(*ctx.ledger, "edge-distribution (T2.4)", n);

  // Fault injection for the committed step-5 phases (sequential point —
  // the decisions were deliberately NOT taken inside the sharded region),
  // then the post-plan crash sweep: crashes landing between the plan and
  // the enumeration re-plan only the touched clusters, reusing the
  // plan/enumerate split — everyone else's plan is already final.
  faults.inject(*ctx.ledger, "reshuffle (T2.4)",
                tail.reshuffle.total_messages());
  faults.inject(*ctx.ledger, "partition-broadcast (T2.4)",
                tail.partition.total_messages());
  faults.inject(*ctx.ledger, "edge-distribution (T2.4)",
                tail.distribution.total_messages());
  const auto newly_touched = apply_crashes(sweep_crashes());
  if (!newly_touched.empty()) {
    ClusterTailState replan;
    for (const std::size_t ci : newly_touched) {
      plans[ci] = InClusterPlan{};
      if (cluster_fallback[ci]) continue;
      patch_cluster(ci);
      prepare_cluster(ci, replan);
    }
    // The survivors redo the routing from scratch; the first attempt's
    // rounds above were genuinely spent, so both charges stand.
    replan.reshuffle.commit(*ctx.ledger, "crash-replan (T2.4)", n);
    replan.partition.commit(*ctx.ledger, "crash-replan (T2.4)", n);
    replan.distribution.commit(*ctx.ledger, "crash-replan (T2.4)", n);
    trace.max_learned_edges =
        std::max(trace.max_learned_edges, replan.max_learned_edges);
  }
  end_step(plan_span);

  // ---- Phase B: flattened weighted enumeration. ---------------------------
  // Every plan's DAG roots are cut into work items of roughly
  // est_work_total / kTailTargetItems estimated work each, weighting a root
  // by its out-degree² (`root_est_work`). The item grain depends only on
  // the plans (never on DCL_THREADS), so the item list is a pure function
  // of the input; the weighted allocator then assigns the items to shards
  // proportionally. kTailTargetItems trades balance (more items = finer
  // allocation) against per-item overhead: 32 items give a 4-way split 8
  // items per shard, enough slack for max/mean estimated work ≤ 1.5 on the
  // single-cluster bench inputs.
  constexpr std::uint64_t kTailTargetItems = 32;
  // Below this much total estimated enumeration work the pool dispatch
  // costs more than the listing; the tail then runs inline (the same
  // measured rule as the kNodeScanGrain loops).
  constexpr std::uint64_t kTailEnumGrainWeight = 4096;

  struct TailItem {
    std::uint32_t cluster = 0;
    NodeId root_begin = 0;
    NodeId root_end = 0;
  };
  std::uint64_t est_total = 0;
  for (const InClusterPlan& plan : plans) est_total += plan.est_work_total;
  const std::uint64_t item_grain =
      std::max<std::uint64_t>(1, est_total / kTailTargetItems);
  std::vector<TailItem> items;
  std::vector<std::uint64_t> item_weight;
  for (std::size_t ci = 0; ci < deco.clusters.size(); ++ci) {
    if (plans[ci].reps.empty()) continue;
    const CliqueDag& dag = plans[ci].dag;
    const NodeId roots = dag.node_count();
    NodeId begin = 0;
    std::uint64_t acc = 0;
    for (NodeId v = 0; v < roots; ++v) {
      acc += root_est_work(dag, v);
      if (acc >= item_grain || v + 1 == roots) {
        items.push_back(
            TailItem{static_cast<std::uint32_t>(ci), begin, v + 1});
        item_weight.push_back(acc);
        begin = v + 1;
        acc = 0;
      }
    }
  }
  trace.tail_work_items = static_cast<std::int64_t>(items.size());
  trace.tail_est_work_total = est_total;

  // Telemetry span for the enumeration tail. Its work-unit delta is
  // `est_total` — the same 64-bit quantity trace.tail_shard_work sums to —
  // added once from this sequential code, so one source of truth feeds
  // both views and the span is identical at any DCL_THREADS.
  const std::int32_t enumerate_span = begin_step("arb/tail-enumerate");
  if (telemetry != nullptr) telemetry->add_work(est_total);

  const int tail_shards = weighted_shard_count(
      est_total, static_cast<std::int64_t>(items.size()),
      kTailEnumGrainWeight);
  trace.tail_shards = tail_shards;
  // One shard (or none: no items) reports straight into the global
  // collector with no buffer merge; several report into per-shard buffers
  // and per-shard metric cells that the calling thread folds back in shard
  // order after the region (the parallel_for_shards merge contract).
  const auto buffers = static_cast<std::size_t>(std::max(tail_shards, 1));
  trace.tail_shard_work.assign(buffers, 0);
  std::vector<ListingOutput> shard_out;
  if (tail_shards > 1) shard_out.assign(buffers, ListingOutput(n));
  std::vector<MetricsRegistry::ShardCell> tail_cells(buffers);
  parallel_for_weighted_shards(
      item_weight,
      [&](int shard, std::int64_t lo, std::int64_t hi) {
        const auto s = static_cast<std::size_t>(shard);
        ListingOutput& sink = tail_shards == 1 ? *ctx.out : shard_out[s];
        // One enumerator (DAG copy, kernel scratch, cover memo) serves all
        // of this shard's consecutive items of the same cluster.
        std::optional<InClusterEnumerator> enumerator;
        std::uint32_t bound = 0;
        for (std::int64_t i = lo; i < hi; ++i) {
          const TailItem& item = items[static_cast<std::size_t>(i)];
          const std::uint64_t w = item_weight[static_cast<std::size_t>(i)];
          if (!enumerator || bound != item.cluster) {
            enumerator.emplace(plans[item.cluster]);
            bound = item.cluster;
          }
          enumerator->run(item.root_begin, item.root_end, sink);
          trace.tail_shard_work[s] += w;
          tail_cells[s].counter_add("arb.tail.enumerated_items", 1);
          tail_cells[s].histogram_record("arb.tail.item_est_work", w);
        }
      },
      kTailEnumGrainWeight);
  for (const ListingOutput& buffer : shard_out) ctx.out->merge_from(buffer);
  if (telemetry != nullptr) telemetry->metrics().merge_cells(tail_cells);
  end_step(enumerate_span);

  // ---- Fault plane: broadcast fallback for decimated clusters. -----------
  // A cluster that lost too many members cannot run the Theorem 2.4
  // routing; its surviving goal edges are covered by a plain broadcast
  // listing over the alive part of the current graph — correct, with the
  // honestly charged O(A) degraded cost.
  if (crash_mode && fallback_goal.any()) {
    EdgeMask cur_alive = cur;
    faults.drop_dead_edges(base, cur_alive);
    BroadcastListingArgs fargs;
    fargs.base = &base;
    fargs.current = &cur_alive;
    fargs.away = &away;
    fargs.p = cfg.p;
    fargs.mode = BroadcastMode::out_edges;
    fargs.require_edge = &fallback_goal;
    fargs.label = "crash-fallback-broadcast";
    broadcast_listing(fargs, *ctx.ledger, *ctx.out);
    faults.crash_degraded = true;
    if (telemetry != nullptr) {
      sync_telemetry();
      telemetry->instant("crash-fallback-broadcast", "arb");
      telemetry->metrics().counter_add("arb.crash_fallbacks", 1);
    }
  }

  // ---- Step 6 (k4_fast): sequential per-cluster C-light probing. ---------
  if (cfg.k4_fast) {
    const std::int32_t probe_span = begin_step("arb/k4-light-probe");
    std::int64_t probe_rounds = 0;
    std::uint64_t probe_msgs = 0;
    std::vector<bool> mark(static_cast<std::size_t>(n), false);
    for (const Cluster& cluster : deco.clusters) {
      std::int64_t cluster_max = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (cluster_of[static_cast<std::size_t>(v)] == cluster.id) continue;
        const std::int32_t* count = cluster_neighbors.find(v, cluster.id);
        if (count == nullptr || *count > heavy_threshold) continue;
        // v is C-light: collect Lv = its cluster-C neighbors.
        std::vector<NodeId> lv;
        for (const NodeId w : view.neighbors(v)) {
          if (cluster_of[static_cast<std::size_t>(w)] == cluster.id) {
            lv.push_back(w);
          }
        }
        if (lv.size() < 2) continue;
        cluster_max =
            std::max(cluster_max, static_cast<std::int64_t>(lv.size()));
        for (const NodeId w : lv) mark[static_cast<std::size_t>(w)] = true;
        // v queries each neighbor v2 about every u in Lv and lists the K4s
        // {u, w, v, v2} it can certify.
        for (const NodeId v2 : view.neighbors(v)) {
          if (cluster_of[static_cast<std::size_t>(v2)] == cluster.id) continue;
          probe_msgs += 2 * lv.size();  // queries + bit answers
          // M = Lv ∩ N_cur(v2).
          std::vector<NodeId> inter;
          for (const NodeId w : view.neighbors(v2)) {
            if (mark[static_cast<std::size_t>(w)]) inter.push_back(w);
          }
          for (std::size_t x = 0; x < inter.size(); ++x) {
            for (std::size_t y = x + 1; y < inter.size(); ++y) {
              const auto eid = base.edge_id(inter[x], inter[y]);
              if (!eid || !cur[*eid]) continue;
              const NodeId quad[4] = {inter[x], inter[y], v, v2};
              ctx.out->report(v, quad);
            }
          }
        }
        for (const NodeId w : lv) mark[static_cast<std::size_t>(w)] = false;
      }
      probe_rounds += cluster_max;  // clusters handled sequentially (§3)
    }
    faults.charge_exchange(*ctx.ledger, "k4-light-probe",
                           static_cast<double>(probe_rounds), probe_msgs);
    end_step(probe_span);
  }

  trace.er_after = er.count();
  trace.es_total = es.count();
  if (telemetry != nullptr) {
    sync_telemetry();
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("arb.iterations", 1);
    metrics.counter_add("arb.clusters",
                        static_cast<std::uint64_t>(trace.clusters));
    metrics.counter_add("arb.goal_edges",
                        static_cast<std::uint64_t>(trace.goal_edges));
    metrics.counter_add("arb.bad_edges",
                        static_cast<std::uint64_t>(trace.bad_edges));
    metrics.counter_add("arb.heavy_relationships",
                        static_cast<std::uint64_t>(trace.heavy_relationships));
    metrics.counter_add("arb.tail.items",
                        static_cast<std::uint64_t>(trace.tail_work_items));
    metrics.counter_add("arb.tail.est_work", est_total);
    // NB: the tail shard count is a host execution detail (it tracks
    // DCL_THREADS) and deliberately stays OUT of the metrics: the run
    // report must be bit-identical at any thread count.
    metrics.gauge_max("arb.max_learned_edges", trace.max_learned_edges);
    // The global collector's unique-clique count after this iteration.
    metrics.gauge_set("cliqueset.size",
                      static_cast<std::int64_t>(ctx.out->unique_count()));
  }
  return trace;
}

}  // namespace dcl
