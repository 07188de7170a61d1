#include "core/in_cluster_listing.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/math_util.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/orientation.h"

namespace dcl {

InClusterPlan in_cluster_plan(const InClusterProblem& problem, Rng& rng) {
  const Graph& base = *problem.base;
  const Cluster& cluster = *problem.cluster;
  const auto& holders = *problem.edges_by_holder;
  const int p = problem.p;
  const auto k = to_node(cluster.nodes.size());
  if (holders.size() != static_cast<std::size_t>(k)) {
    throw std::invalid_argument("in_cluster_plan: holder count mismatch");
  }

  InClusterPlan plan;
  plan.cluster = &cluster;
  plan.p = p;
  const int q = std::max<int>(
      1, static_cast<int>(floor_pow(static_cast<std::int64_t>(k),
                                    1.0 / static_cast<double>(p))));
  plan.q = q;
  plan.cost.parts = q;

  // Step 1: random partition of the whole vertex set into q parts. (In the
  // distributed execution each cluster node draws the choices for its
  // responsibility range and broadcasts them; the broadcast is charged by
  // the caller. The draw itself is the same uniform choice.)
  std::vector<int> part(static_cast<std::size_t>(base.node_count()));
  for (auto& pt : part) {
    pt = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q)));
  }

  // Step 2: the distinct part multisets of the cluster nodes, and the
  // coverage table cover[(a,b)] = number of cluster nodes whose multiset
  // covers {a,b}.
  const PartMultisets msets = part_multisets(k, q, p);
  const std::vector<std::int64_t> cover = coverage_table(msets, q);

  // ---- Step 3 + 3.5: count, intern and deduplicate the held edges. -----
  //
  // Compact interning over base ids, in first-seen order. The dense
  // base-id → compact-id map is thread_local so its O(n) storage is NOT
  // re-allocated per cluster call, and safe under the cluster-parallel
  // caller: each worker thread owns its own buffer. The invariant is "all
  // `global_to_compact` slots are -1 between uses"; the scope guard below
  // restores it on every exit path (including exceptions) by walking the
  // ids interned so far. The compact id list itself lives in the returned
  // plan — the plan owns all the data the enumeration half reads, so
  // enumeration may run on other threads.
  static thread_local std::vector<NodeId> global_to_compact;
  const auto needed = static_cast<std::size_t>(base.node_count());
  if (global_to_compact.size() < needed) {
    global_to_compact.resize(needed, -1);
  } else if (global_to_compact.size() > std::max<std::size_t>(4 * needed,
                                                              4096)) {
    // All slots are -1 between uses, so a fresh buffer is equivalent; drop
    // storage left over from a much larger earlier base graph.
    std::vector<NodeId>(needed, -1).swap(global_to_compact);
  }
  struct InternReset {
    std::vector<NodeId>& dense;
    const std::vector<NodeId>& ids;
    ~InternReset() {
      for (const NodeId g : ids) dense[static_cast<std::size_t>(g)] = -1;
    }
  } intern_reset{global_to_compact, plan.compact_to_global};
  const auto intern = [&](NodeId g) {
    NodeId& slot = global_to_compact[static_cast<std::size_t>(g)];
    if (slot < 0) {
      slot = to_node(plan.compact_to_global.size());
      plan.compact_to_global.push_back(g);
      plan.part.push_back(part[static_cast<std::size_t>(g)]);
    }
    return slot;
  };

  // Every held copy counts against its unordered part pair, tracking exact
  // send loads (holder sends each edge to every covering node). The goal
  // flag is resolved here, once per held edge per cluster.
  struct CompactEdge {
    NodeId lo, hi;
    std::uint8_t goal;
  };
  std::vector<CompactEdge> edges;
  std::vector<std::int64_t> held_per_pair(checked_mul64(q, q), 0);
  std::vector<std::int64_t> send_load(static_cast<std::size_t>(k), 0);
  for (NodeId holder = 0; holder < k; ++holder) {
    for (const KnownEdge& e : holders[static_cast<std::size_t>(holder)]) {
      const auto idx = static_cast<std::size_t>(
          pair_index(part[static_cast<std::size_t>(e.tail)],
                     part[static_cast<std::size_t>(e.head)], q));
      ++held_per_pair[idx];
      send_load[static_cast<std::size_t>(holder)] += cover[idx];
      const auto eid = base.edge_id(e.tail, e.head);
      const NodeId cu = intern(e.tail);
      const NodeId cv = intern(e.head);
      edges.push_back(CompactEdge{
          std::min(cu, cv), std::max(cu, cv),
          static_cast<std::uint8_t>(eid.has_value() &&
                                    (*problem.goal_edge)[*eid])});
    }
  }
  const auto compact_n = to_node(plan.compact_to_global.size());

  // Sort the held copies by compact (lo, hi) and dedup them, OR-merging
  // the goal flags (the union of held copies), then count each part pair's
  // distinct edges and goal edges for the roster below.
  std::sort(edges.begin(), edges.end(),
            [](const CompactEdge& x, const CompactEdge& y) {
              return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
            });
  std::size_t distinct = 0;
  for (const CompactEdge& ce : edges) {
    if (distinct > 0 && edges[distinct - 1].lo == ce.lo &&
        edges[distinct - 1].hi == ce.hi) {
      edges[distinct - 1].goal |= ce.goal;
    } else {
      edges[distinct++] = ce;
    }
  }
  edges.resize(distinct);
  std::vector<std::int64_t> pair_edges(checked_mul64(q, q), 0);
  std::vector<std::int64_t> pair_goals(checked_mul64(q, q), 0);
  std::uint64_t goal_total = 0;
  for (const CompactEdge& ce : edges) {
    const auto idx = static_cast<std::size_t>(
        pair_index(plan.part[static_cast<std::size_t>(ce.lo)],
                   plan.part[static_cast<std::size_t>(ce.hi)], q));
    ++pair_edges[idx];
    pair_goals[idx] += ce.goal;
    goal_total += ce.goal;
  }

  // Orient once: peel the cluster graph a single time and direct every
  // edge from its earlier to its later endpoint in that degeneracy order,
  // so the kernel lists each clique of the cluster graph exactly once.
  std::vector<NodeId> rank(static_cast<std::size_t>(compact_n));
  {
    std::vector<Edge> sorted;
    sorted.reserve(edges.size());
    for (const CompactEdge& ce : edges) sorted.push_back(Edge{ce.lo, ce.hi});
    const DegeneracyResult dec = degeneracy_order(
        Graph::from_sorted_edges(compact_n, std::move(sorted)));
    for (std::size_t i = 0; i < dec.order.size(); ++i) {
      rank[static_cast<std::size_t>(dec.order[i])] = to_node(i);
    }
  }
  const bool flag_goals = goal_total != edges.size();
  CliqueDag& dag = plan.dag;
  dag.offsets.assign(static_cast<std::size_t>(compact_n) + 1, 0);
  const auto source = [&](const CompactEdge& ce) {
    return rank[static_cast<std::size_t>(ce.lo)] <
                   rank[static_cast<std::size_t>(ce.hi)]
               ? ce.lo
               : ce.hi;
  };
  for (const CompactEdge& ce : edges) {
    ++dag.offsets[static_cast<std::size_t>(source(ce)) + 1];
  }
  for (std::size_t v = 1; v < dag.offsets.size(); ++v) {
    dag.offsets[v] += dag.offsets[v - 1];
  }
  std::vector<std::uint64_t> cursor(dag.offsets.begin(),
                                    dag.offsets.end() - 1);
  dag.adj.resize(edges.size());
  if (flag_goals) dag.goal.resize(edges.size());
  for (const CompactEdge& ce : edges) {
    const NodeId src = source(ce);
    const std::uint64_t at = cursor[static_cast<std::size_t>(src)]++;
    dag.adj[at] = src == ce.lo ? ce.hi : ce.lo;
    if (flag_goals) dag.goal[at] = ce.goal;
  }

  // Receive loads, then the representative roster. Nodes with identical
  // part multisets receive identical edge sets and would produce identical
  // outputs, so only the representative of each multiset (its minimum
  // cluster index) reports (a pure simulation shortcut: loads are still
  // accounted for every node, and the *union* of outputs — the correctness
  // contract — is unchanged). Representatives that cannot report anything
  // (too few edges for a Kp, or no goal edge received) are dropped HERE, at
  // plan time: no clique they cover can hold a goal edge.
  plan.reps.reserve(msets.parts.size());
  for (std::size_t m = 0; m < msets.parts.size(); ++m) {
    const std::vector<int>& s = msets.parts[m];
    const std::int64_t recv = covered_sum(s, held_per_pair, q);
    plan.cost.max_recv = std::max(plan.cost.max_recv, recv);
    plan.cost.messages += static_cast<std::uint64_t>(recv * msets.nodes[m]);
    const std::int64_t rep_edges = covered_sum(s, pair_edges, q);
    if (rep_edges < p * (p - 1) / 2 || covered_sum(s, pair_goals, q) == 0) {
      continue;
    }
    plan.reps.push_back(InClusterPlan::Rep{msets.rep[m], s, rep_edges});
  }
  if (!plan.reps.empty()) {
    for (NodeId v = 0; v < compact_n; ++v) {
      plan.est_work_total += root_est_work(dag, v);
    }
  }

  for (const std::int64_t load : send_load) {
    plan.cost.max_send = std::max(plan.cost.max_send, load);
  }

  if (problem.charge_mode == InClusterChargeMode::worst_case) {
    // Oblivious schedule: every node must budget p² slots of (n/q)²
    // potential pairs regardless of how many edges actually exist.
    const std::int64_t part_size =
        ceil_div(static_cast<std::int64_t>(base.node_count()), q);
    const std::int64_t budget = static_cast<std::int64_t>(p) * p * part_size *
                                part_size / 2;
    plan.cost.max_send = std::max(plan.cost.max_send, budget);
    plan.cost.max_recv = std::max(plan.cost.max_recv, budget);
  }
  return plan;
}

InClusterEnumerator::InClusterEnumerator(const InClusterPlan& plan)
    : plan_(plan),
      dag_(plan.dag),
      covers_(
          [&] {
            std::vector<std::vector<int>> multisets;
            for (const InClusterPlan::Rep& rep : plan.reps) {
              multisets.push_back(rep.parts);
            }
            return multisets;
          }(),
          plan.q, plan.p),
      parts_(static_cast<std::size_t>(plan.p)),
      global_(static_cast<std::size_t>(plan.p)) {}

std::uint64_t InClusterEnumerator::run(NodeId root_begin, NodeId root_end,
                                       ListingOutput& out) {
  if (plan_.reps.empty()) return 0;
  // Only cliques containing at least one goal edge of C are reported — the
  // task assigned to this cluster (others are other iterations' work); an
  // all-goal cluster graph carries no flags and skips the filter.
  flat_.clear();
  list_dag_cliques(dag_, plan_.p, scratch_, flat_, root_begin, root_end);
  std::uint64_t reported = 0;
  for (std::size_t at = 0; at < flat_.size(); at += global_.size()) {
    for (std::size_t i = 0; i < global_.size(); ++i) {
      global_[i] =
          plan_.compact_to_global[static_cast<std::size_t>(flat_[at + i])];
    }
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      parts_[i] = plan_.part[static_cast<std::size_t>(flat_[at + i])];
    }
    for (const std::uint32_t r : covers_.covering(parts_)) {
      out.report(plan_.cluster->nodes[static_cast<std::size_t>(
                     plan_.reps[r].node)],
                 global_);
      ++reported;
    }
  }
  return reported;
}

InClusterCost in_cluster_list(const InClusterProblem& problem, Rng& rng,
                              ListingOutput& out) {
  const InClusterPlan plan = in_cluster_plan(problem, rng);
  InClusterCost cost = plan.cost;
  cost.cliques_reported =
      InClusterEnumerator(plan).run(0, plan.dag.node_count(), out);
  return cost;
}

}  // namespace dcl
