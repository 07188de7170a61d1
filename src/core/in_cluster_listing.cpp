#include "core/in_cluster_listing.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/math_util.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"

namespace dcl {

namespace {

/// Sizes a thread_local scratch map whose slots all hold `clear` between
/// uses: grows it to `needed`, and drops storage left over from a much
/// larger earlier base graph (a fresh buffer is equivalent).
template <class T>
void size_scratch(std::vector<T>& buf, std::size_t needed, T clear) {
  if (buf.size() < needed) {
    buf.resize(needed, clear);
  } else if (buf.size() > std::max<std::size_t>(4 * needed, 4096)) {
    std::vector<T>(needed, clear).swap(buf);
  }
}

}  // namespace

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

  // ---- Step 3 + 3.5: count, deduplicate and intern the held edges. ------
  //
  // Two thread_local maps over the base graph keep their storage across
  // cluster calls and stay private to each worker of the cluster-parallel
  // caller: `held` stamps the edge ids already seen (m bytes), and
  // `node_slot` counts each node's distinct held edges, then holds its
  // compact id (n ids). Their invariant is "all slots zero between uses";
  // the scope guard below restores it on every exit path (including the
  // out-of-range throw) by walking the distinct ids and their endpoints.
  // The compact id list itself lives in the returned plan — the plan owns
  // all the data the enumeration half reads, so enumeration may run on
  // other threads.
  static thread_local std::vector<std::uint8_t> held;
  static thread_local std::vector<NodeId> node_slot;
  const EdgeId base_edges = base.edge_count();
  size_scratch(held, static_cast<std::size_t>(base_edges), std::uint8_t{0});
  size_scratch(node_slot, static_cast<std::size_t>(base.node_count()),
               NodeId{0});
  std::vector<EdgeId> distinct;
  struct ScratchReset {
    const Graph& base;
    std::vector<std::uint8_t>& held;
    std::vector<NodeId>& node_slot;
    const std::vector<EdgeId>& edges;
    ~ScratchReset() {
      for (const EdgeId e : edges) {
        const Edge& ed = base.edge(e);
        held[static_cast<std::size_t>(e)] = 0;
        node_slot[static_cast<std::size_t>(ed.u)] = 0;
        node_slot[static_cast<std::size_t>(ed.v)] = 0;
      }
    }
  } scratch_reset{base, held, node_slot, distinct};

  // Every held copy counts against its unordered part pair, tracking exact
  // send loads (holder sends each edge to every covering node). The first
  // copy of each edge id joins the distinct list and counts toward its
  // endpoints' degrees and its part pair's distinct edges and goal edges,
  // for the roster below.
  std::size_t copies = 0;
  for (const auto& h : holders) copies += h.size();
  distinct.reserve(copies);
  std::vector<std::int64_t> held_per_pair(checked_mul64(q, q), 0);
  std::vector<std::int64_t> pair_edges(checked_mul64(q, q), 0);
  std::vector<std::int64_t> pair_goals(checked_mul64(q, q), 0);
  std::uint64_t goal_total = 0;
  std::size_t endpoints = 0;
  std::vector<std::int64_t> send_load(static_cast<std::size_t>(k), 0);
  for (NodeId holder = 0; holder < k; ++holder) {
    for (const EdgeId e : holders[static_cast<std::size_t>(holder)]) {
      if (e < 0 || e >= base_edges) {
        throw std::invalid_argument(
            "in_cluster_plan: held edge id out of range");
      }
      const Edge& ed = base.edge(e);
      const auto idx = static_cast<std::size_t>(
          pair_index(part[static_cast<std::size_t>(ed.u)],
                     part[static_cast<std::size_t>(ed.v)], q));
      ++held_per_pair[idx];
      send_load[static_cast<std::size_t>(holder)] += cover[idx];
      std::uint8_t& seen = held[static_cast<std::size_t>(e)];
      if (seen != 0) continue;
      seen = 1;
      distinct.push_back(e);
      endpoints += node_slot[static_cast<std::size_t>(ed.u)]++ == 0;
      endpoints += node_slot[static_cast<std::size_t>(ed.v)]++ == 0;
      const bool is_goal = (*problem.goal_edge)[e];
      ++pair_edges[idx];
      pair_goals[idx] += is_goal;
      goal_total += is_goal;
    }
  }
  const bool flag_goals = goal_total != distinct.size();

  // Compact ids in ascending global order, so the map preserves the order
  // of node ids, with CSR row offsets from the degrees. One scan of the
  // base nodes, which the partition draw above already costs per cluster.
  std::vector<std::uint64_t> off{0};
  off.reserve(endpoints + 1);
  plan.compact_to_global.reserve(endpoints);
  plan.part.reserve(endpoints);
  for (NodeId g = 0; g < base.node_count(); ++g) {
    NodeId& slot = node_slot[static_cast<std::size_t>(g)];
    if (slot == 0) continue;
    off.push_back(off.back() + static_cast<std::uint64_t>(slot));
    slot = to_node(plan.compact_to_global.size());
    plan.compact_to_global.push_back(g);
    plan.part.push_back(part[static_cast<std::size_t>(g)]);
  }
  const auto compact_n = to_node(plan.compact_to_global.size());

  // The cluster graph as one CSR over compact ids, with a goal flag per
  // entry when some edge is not a goal edge. Row v holds its lower
  // neighbors, then its higher ones, each part sorted, built by counting
  // scatters alone: the first puts each edge's lower endpoint into its
  // higher endpoint's lower part, in held order; reading the lower parts
  // in ascending row order fills every higher part in ascending order;
  // reading the higher parts in ascending row order refills every lower
  // part in ascending order.
  std::vector<NodeId> nbr(2 * distinct.size());
  std::vector<std::uint8_t> nbr_goal(flag_goals ? nbr.size() : 0);
  const auto move_entry = [&](std::uint64_t from, std::uint64_t to,
                              NodeId neighbor) {
    nbr[to] = neighbor;
    if (flag_goals) nbr_goal[to] = nbr_goal[from];
  };
  const auto compact = [&](NodeId g) {
    return node_slot[static_cast<std::size_t>(g)];
  };
  std::vector<std::uint64_t> at(off.begin(), off.end() - 1);
  for (const EdgeId e : distinct) {
    const Edge& ed = base.edge(e);
    const std::uint64_t i = at[static_cast<std::size_t>(compact(ed.v))]++;
    nbr[i] = compact(ed.u);
    if (flag_goals) nbr_goal[i] = (*problem.goal_edge)[e];
  }
  // Row v's higher part starts where its lower part ended; rows above v
  // have not written into row v yet when row v is read.
  std::vector<std::uint64_t> mid(static_cast<std::size_t>(compact_n));
  for (NodeId v = 0; v < compact_n; ++v) {
    const auto r = static_cast<std::size_t>(v);
    mid[r] = at[r];
    for (std::uint64_t i = off[r]; i < mid[r]; ++i) {
      move_entry(i, at[static_cast<std::size_t>(nbr[i])]++, v);
    }
  }
  std::copy(off.begin(), off.end() - 1, at.begin());
  for (NodeId v = 0; v < compact_n; ++v) {
    const auto r = static_cast<std::size_t>(v);
    for (std::uint64_t i = mid[r]; i < off[r + 1]; ++i) {
      move_entry(i, at[static_cast<std::size_t>(nbr[i])]++, v);
    }
  }

  // Orient once, so the kernel lists each clique of the cluster graph
  // exactly once.
  plan.dag = degeneracy_dag(off, nbr, nbr_goal);

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
      plan.est_work_total += root_est_work(plan.dag, v);
    }
  }

  for (const std::int64_t load : send_load) {
    plan.cost.max_send = std::max(plan.cost.max_send, load);
  }

  if (problem.charge_mode == InClusterChargeMode::worst_case) {
    // Oblivious schedule: every node budgets for all potential pairs of
    // its parts regardless of how many edges actually exist.
    const std::int64_t budget = oblivious_pair_budget(base.node_count(), q, p);
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
          plan.q, plan.p) {
  for (const InClusterPlan::Rep& rep : plan.reps) {
    rep_global_.push_back(
        plan.cluster->nodes[static_cast<std::size_t>(rep.node)]);
  }
}

std::uint64_t InClusterEnumerator::run(NodeId root_begin, NodeId root_end,
                                       ListingOutput& out) {
  if (plan_.reps.empty()) return 0;
  // Only cliques containing at least one goal edge of C are reported — the
  // task assigned to this cluster (others are other iterations' work); an
  // all-goal cluster graph carries no flags and skips the filter.
  flat_.clear();
  list_dag_cliques(dag_, plan_.p, scratch_, flat_, root_begin, root_end);
  // Rows go out in global ids, credited to their covering representatives.
  return covers_.report_rows(flat_, plan_.part, plan_.compact_to_global,
                             rep_global_, out);
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
