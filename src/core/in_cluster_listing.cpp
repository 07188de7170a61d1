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

  // Step 2: part multisets per cluster node, and the coverage table
  // cover[(a,b)] = number of cluster nodes whose multiset covers {a,b}.
  std::vector<std::vector<int>> tuple(static_cast<std::size_t>(k));
  for (NodeId j = 0; j < k; ++j) {
    tuple[static_cast<std::size_t>(j)] = part_multiset(j, q, p);
  }
  const std::vector<std::int64_t> cover = coverage_table(tuple, q);

  // Step 3: bucket every known edge by its unordered part pair, tracking
  // exact send loads (holder sends each edge to every covering node). The
  // goal flag is resolved here, once per held edge per cluster — each
  // representative reads it for free instead of re-deriving it with
  // base-graph edge_id binary searches (ROADMAP lever b).
  struct HeldEdge {
    KnownEdge e;
    bool goal = false;
  };
  std::vector<std::vector<HeldEdge>> bucket(checked_mul64(q, q));
  std::vector<std::int64_t> send_load(static_cast<std::size_t>(k), 0);
  for (NodeId holder = 0; holder < k; ++holder) {
    for (const KnownEdge& e : holders[static_cast<std::size_t>(holder)]) {
      const int a = part[static_cast<std::size_t>(e.tail)];
      const int b = part[static_cast<std::size_t>(e.head)];
      const int idx = pair_index(a, b, q);
      const auto eid = base.edge_id(e.tail, e.head);
      bucket[static_cast<std::size_t>(idx)].push_back(
          HeldEdge{e, eid.has_value() && (*problem.goal_edge)[*eid]});
      send_load[static_cast<std::size_t>(holder)] +=
          cover[static_cast<std::size_t>(idx)];
    }
  }

  // ---- Step 3.5: compile the buckets into interned fragments. ------------
  //
  // Compact interning over base ids. The dense base-id → compact-id map is
  // thread_local so its O(n) storage is NOT re-allocated per cluster call,
  // and safe under the cluster-parallel caller: each worker thread owns its
  // own buffer. The invariant is "all `global_to_compact` slots are -1
  // between uses"; the scope guard below restores it on every exit path
  // (including exceptions) by walking the ids interned so far. The compact
  // id list itself lives in the returned plan — the plan owns all the data
  // the enumeration half reads, so enumeration may run on other threads.
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

  // Collect the distinct endpoints of every bucket and order them by
  // (part, global id): each part's nodes then occupy one contiguous
  // compact range, so a node's part-b neighbors form one ascending id
  // block and a representative's adjacency rows come out fully sorted by
  // concatenating its covered fragments in ascending part order.
  for (const auto& bkt : bucket) {
    for (const HeldEdge& he : bkt) {
      for (const NodeId g : {he.e.tail, he.e.head}) {
        NodeId& slot = global_to_compact[static_cast<std::size_t>(g)];
        if (slot < 0) {
          slot = 0;  // seen; the real id is assigned after the sort
          plan.compact_to_global.push_back(g);
        }
      }
    }
  }
  std::sort(plan.compact_to_global.begin(), plan.compact_to_global.end(),
            [&](NodeId x, NodeId y) {
              const int px = part[static_cast<std::size_t>(x)];
              const int py = part[static_cast<std::size_t>(y)];
              return px != py ? px < py : x < y;
            });
  const auto compact_n = to_node(plan.compact_to_global.size());
  plan.compact_n = compact_n;
  for (NodeId c = 0; c < compact_n; ++c) {
    global_to_compact[static_cast<std::size_t>(
        plan.compact_to_global[static_cast<std::size_t>(c)])] = c;
  }
  plan.part_begin.assign(static_cast<std::size_t>(q) + 1, 0);
  for (NodeId c = 0; c < compact_n; ++c) {
    ++plan.part_begin[static_cast<std::size_t>(
        part[static_cast<std::size_t>(
            plan.compact_to_global[static_cast<std::size_t>(c)])]) + 1];
  }
  for (int a = 0; a < q; ++a) {
    plan.part_begin[static_cast<std::size_t>(a) + 1] +=
        plan.part_begin[static_cast<std::size_t>(a)];
  }

  // Compile each non-empty bucket once: sort its compact edge pairs, dedup
  // (goal flags merge by OR — the union of held copies), and lay the rows
  // out as a CSR over the lower part's compact range. This is the only
  // O(m log m) pass left; every representative reuses it. The lower-
  // endpoint CSR is a plan-time intermediate: its row lengths define the
  // representatives' work estimates, and walked part-major it lists the
  // cluster's deduplicated held-edge graph in sorted edge order.
  struct LowerCsr {
    std::vector<std::uint64_t> off;  ///< part-a range row offsets (+1)
    std::vector<NodeId> nbr;         ///< higher endpoints, ascending per row
    std::vector<std::uint8_t> goal;  ///< aligned with `nbr`
  };
  std::vector<LowerCsr> lower(checked_mul64(q, q));
  plan.fragments.resize(checked_mul64(q, q));
  std::uint64_t held_edges = 0;
  {
    struct CompactEdge {
      NodeId lo, hi;
      std::uint8_t goal;
    };
    std::vector<CompactEdge> scratch;
    for (int a = 0; a < q; ++a) {
      for (int b = a; b < q; ++b) {
        const auto idx = static_cast<std::size_t>(pair_index(a, b, q));
        const auto& bkt = bucket[idx];
        if (bkt.empty()) continue;
        scratch.clear();
        scratch.reserve(bkt.size());
        for (const HeldEdge& he : bkt) {
          NodeId cu = global_to_compact[static_cast<std::size_t>(he.e.tail)];
          NodeId cv = global_to_compact[static_cast<std::size_t>(he.e.head)];
          if (cu > cv) std::swap(cu, cv);
          scratch.push_back(
              CompactEdge{cu, cv, static_cast<std::uint8_t>(he.goal)});
        }
        std::sort(scratch.begin(), scratch.end(),
                  [](const CompactEdge& x, const CompactEdge& y) {
                    return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
                  });
        LowerCsr& l = lower[idx];
        InClusterPlan::Fragment& f = plan.fragments[idx];
        f.part_a = a;
        f.part_b = b;
        const NodeId lo_begin = plan.part_begin[static_cast<std::size_t>(a)];
        const NodeId lo_end = plan.part_begin[static_cast<std::size_t>(a) + 1];
        l.off.assign(static_cast<std::size_t>(lo_end - lo_begin) + 1, 0);
        l.nbr.reserve(scratch.size());
        l.goal.reserve(scratch.size());
        for (std::size_t i = 0; i < scratch.size(); ++i) {
          const CompactEdge& ce = scratch[i];
          if (i > 0 && scratch[i - 1].lo == ce.lo &&
              scratch[i - 1].hi == ce.hi) {
            // Duplicate held copy of the same edge: keep one, OR the goal.
            auto& g = l.goal.back();
            f.goal_count += static_cast<std::int64_t>(ce.goal & ~g);
            g |= ce.goal;
            continue;
          }
          l.nbr.push_back(ce.hi);
          l.goal.push_back(ce.goal);
          f.goal_count += ce.goal;
          ++l.off[static_cast<std::size_t>(ce.lo - lo_begin) + 1];
        }
        for (std::size_t r = 1; r < l.off.size(); ++r) {
          l.off[r] += l.off[r - 1];
        }
        held_edges += l.nbr.size();
      }
    }
  }

  // Orient once: peel the cluster's held-edge graph a single time and
  // direct every edge from its earlier to its later endpoint in that
  // degeneracy order. Each representative's local graph is a subgraph, so
  // the restriction stays acyclic with out-degree ≤ the cluster graph's
  // degeneracy, and the kernel lists each of its cliques exactly once.
  std::vector<NodeId> rank(static_cast<std::size_t>(compact_n));
  {
    std::vector<Edge> edges;
    edges.reserve(held_edges);
    for (int a = 0; a < q; ++a) {
      const NodeId lo_begin = plan.part_begin[static_cast<std::size_t>(a)];
      const NodeId lo_end = plan.part_begin[static_cast<std::size_t>(a) + 1];
      for (NodeId u = lo_begin; u < lo_end; ++u) {
        const auto row = static_cast<std::size_t>(u - lo_begin);
        for (int b = a; b < q; ++b) {
          const LowerCsr& l =
              lower[static_cast<std::size_t>(pair_index(a, b, q))];
          if (l.nbr.empty()) continue;
          for (std::uint64_t x = l.off[row]; x < l.off[row + 1]; ++x) {
            edges.push_back(Edge{u, l.nbr[x]});
          }
        }
      }
    }
    const DegeneracyResult dec = degeneracy_order(
        Graph::from_sorted_edges(compact_n, std::move(edges)));
    for (std::size_t i = 0; i < dec.order.size(); ++i) {
      rank[static_cast<std::size_t>(dec.order[i])] = to_node(i);
    }
  }
  for (std::size_t idx = 0; idx < lower.size(); ++idx) {
    const LowerCsr& l = lower[idx];
    if (l.nbr.empty()) continue;
    InClusterPlan::Fragment& f = plan.fragments[idx];
    const auto pa = static_cast<std::size_t>(f.part_a);
    const auto pb = static_cast<std::size_t>(f.part_b);
    const NodeId a_begin = plan.part_begin[pa];
    const NodeId a_end = plan.part_begin[pa + 1];
    const NodeId b_begin = plan.part_begin[pb];
    const NodeId b_end = plan.part_begin[pb + 1];
    const auto a_rows = static_cast<std::size_t>(a_end - a_begin);
    // Row space: part a's range, then part b's (a part-b node is never
    // below a_end when a < b; when a == b every endpoint is in part a).
    const auto row_of = [&](NodeId c) {
      return c < a_end ? static_cast<std::size_t>(c - a_begin)
                       : a_rows + static_cast<std::size_t>(c - b_begin);
    };
    const std::size_t b_rows =
        f.part_a == f.part_b ? 0 : static_cast<std::size_t>(b_end - b_begin);
    f.off.assign(a_rows + b_rows + 1, 0);
    // Two passes over the lower CSR (count, then scatter) in (lo, hi)
    // order: every out-row comes out in ascending compact order.
    const auto for_each_edge = [&](auto&& fn) {
      for (std::size_t r = 0; r + 1 < l.off.size(); ++r) {
        const NodeId u = a_begin + to_node(r);
        for (std::uint64_t x = l.off[r]; x < l.off[r + 1]; ++x) {
          const NodeId v = l.nbr[x];
          const bool forward = rank[static_cast<std::size_t>(u)] <
                               rank[static_cast<std::size_t>(v)];
          fn(forward ? u : v, forward ? v : u, l.goal[x]);
        }
      }
    };
    for_each_edge([&](NodeId src, NodeId, std::uint8_t) {
      ++f.off[row_of(src) + 1];
    });
    for (std::size_t r = 1; r < f.off.size(); ++r) f.off[r] += f.off[r - 1];
    std::vector<std::uint64_t> cursor(f.off.begin(), f.off.end() - 1);
    f.nbr.resize(l.nbr.size());
    f.goal.resize(l.nbr.size());
    for_each_edge([&](NodeId src, NodeId dst, std::uint8_t goal) {
      const std::uint64_t at = cursor[row_of(src)]++;
      f.nbr[at] = dst;
      f.goal[at] = goal;
    });
  }

  // Receive loads, then the representative roster. Nodes with identical
  // part multisets receive identical edge sets and would produce identical
  // outputs, so only the first representative of each multiset enumerates
  // (a pure simulation shortcut: loads are still accounted for every node,
  // and the *union* of outputs — the correctness contract — is unchanged).
  // The representative of a multiset is its minimum cluster index, read
  // from the sorted flat table. Representatives that cannot report anything
  // (too few edges for a Kp, or no goal edge received) are dropped HERE, at
  // plan time, so the enumeration half's work items are all real work.
  const std::vector<NodeId> rep = representative_table(tuple, q);
  std::vector<std::int64_t> recv_load(static_cast<std::size_t>(k), 0);
  std::vector<std::uint32_t> refs;  // current rep's covered fragments
  std::vector<std::uint64_t> deg;   // row-degree scratch, per part
  for (NodeId j = 0; j < k; ++j) {
    const auto& s = tuple[static_cast<std::size_t>(j)];
    const bool is_rep = rep[static_cast<std::size_t>(j)] == j;
    std::int64_t rep_edges = 0;
    std::int64_t rep_goals = 0;
    refs.clear();
    for (int a = 0; a < q; ++a) {
      for (int b = a; b < q; ++b) {
        if (!multiset_covers(s, a, b)) continue;
        const auto idx = static_cast<std::size_t>(pair_index(a, b, q));
        recv_load[static_cast<std::size_t>(j)] +=
            static_cast<std::int64_t>(bucket[idx].size());
        if (!is_rep) continue;
        const InClusterPlan::Fragment& f = plan.fragments[idx];
        if (f.edge_count() == 0) continue;
        refs.push_back(static_cast<std::uint32_t>(idx));
        rep_edges += f.edge_count();
        rep_goals += f.goal_count;
      }
    }
    if (!is_rep || rep_edges < p * (p - 1) / 2 || rep_goals == 0) {
      continue;
    }
    // Out-degree² work estimate: for each lower-endpoint source row, the
    // row degree is the sum of the covered fragments' lower-CSR row lengths
    // (refs with equal lower part are consecutive — the (a, b) walk above
    // ascends). Accumulated fragment-by-fragment into a per-part degree
    // scratch so each `off` array is read in one sequential pass. 64-bit
    // throughout: one hub row alone can push the square past 2^32.
    std::uint64_t est = 0;
    for (std::size_t i = 0; i < refs.size();) {
      const int a = plan.fragments[refs[i]].part_a;
      std::size_t fend = i;
      while (fend < refs.size() && plan.fragments[refs[fend]].part_a == a) {
        ++fend;
      }
      const NodeId lo_begin = plan.part_begin[static_cast<std::size_t>(a)];
      const NodeId lo_end = plan.part_begin[static_cast<std::size_t>(a) + 1];
      const auto rows = static_cast<std::size_t>(lo_end - lo_begin);
      deg.assign(rows, 0);
      for (std::size_t fi = i; fi < fend; ++fi) {
        const auto& off = lower[refs[fi]].off;
        for (std::size_t row = 0; row < rows; ++row) {
          deg[row] += off[row + 1] - off[row];
        }
      }
      for (std::size_t row = 0; row < rows; ++row) {
        const auto d = static_cast<std::uint64_t>(deg[row]);
        est += d * d;
      }
      i = fend;
    }
    InClusterPlan::Rep r;
    r.node = j;
    r.edges = rep_edges;
    r.all_goal = rep_goals == rep_edges;
    r.est_work = est;
    r.frag_begin = plan.frag_refs.size();
    plan.frag_refs.insert(plan.frag_refs.end(), refs.begin(), refs.end());
    r.frag_end = plan.frag_refs.size();
    plan.est_work_total += est;
    plan.reps.push_back(r);
  }

  for (NodeId j = 0; j < k; ++j) {
    plan.cost.max_send =
        std::max(plan.cost.max_send, send_load[static_cast<std::size_t>(j)]);
    plan.cost.max_recv =
        std::max(plan.cost.max_recv, recv_load[static_cast<std::size_t>(j)]);
    plan.cost.messages += static_cast<std::uint64_t>(
        recv_load[static_cast<std::size_t>(j)]);
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

std::uint64_t in_cluster_enumerate(const InClusterPlan& plan,
                                   std::size_t rep_begin, std::size_t rep_end,
                                   ListingOutput& out) {
  const int p = plan.p;
  const auto n = static_cast<std::size_t>(plan.compact_n);
  std::uint64_t reported = 0;
  // Workspace reused by every representative of the range: the DAG is
  // refilled in place and the kernel scratch warms up once.
  CliqueDag dag;
  dag.offsets.assign(n + 1, 0);
  CliqueScratch scratch;
  std::vector<NodeId> flat;
  std::vector<NodeId> global(static_cast<std::size_t>(p));
  // One covered fragment seen from one of its two parts: node u of `part`
  // reads the fragment's row `base + (u - part_begin[part])`.
  struct RowSource {
    int part;
    std::uint32_t frag;
    std::uint64_t base;
  };
  std::vector<RowSource> sources;
  for (std::size_t r = rep_begin; r < rep_end; ++r) {
    const InClusterPlan::Rep& rep = plan.reps[r];
    sources.clear();
    for (std::uint64_t i = rep.frag_begin; i < rep.frag_end; ++i) {
      const std::uint32_t idx = plan.frag_refs[i];
      const InClusterPlan::Fragment& f = plan.fragments[idx];
      sources.push_back(RowSource{f.part_a, idx, 0});
      if (f.part_b != f.part_a) {
        sources.push_back(RowSource{
            f.part_b, idx,
            static_cast<std::uint64_t>(
                plan.part_begin[static_cast<std::size_t>(f.part_a) + 1] -
                plan.part_begin[static_cast<std::size_t>(f.part_a)])});
      }
    }
    std::sort(sources.begin(), sources.end(),
              [](const RowSource& x, const RowSource& y) {
                return x.part != y.part ? x.part < y.part : x.frag < y.frag;
              });
    // The representative's DAG: node u's out-row is the concatenation of
    // its rows in every covered fragment touching u's part. Nodes outside
    // the covered parts keep empty rows.
    dag.adj.clear();
    dag.adj.reserve(static_cast<std::size_t>(rep.edges));
    dag.goal.clear();
    if (!rep.all_goal) dag.goal.reserve(static_cast<std::size_t>(rep.edges));
    NodeId u = 0;
    for (std::size_t s = 0; s < sources.size();) {
      const int part = sources[s].part;
      std::size_t send = s;
      while (send < sources.size() && sources[send].part == part) ++send;
      const NodeId begin = plan.part_begin[static_cast<std::size_t>(part)];
      const NodeId end = plan.part_begin[static_cast<std::size_t>(part) + 1];
      for (; u < begin; ++u) {
        dag.offsets[static_cast<std::size_t>(u) + 1] = dag.adj.size();
      }
      for (; u < end; ++u) {
        const auto row = static_cast<std::uint64_t>(u - begin);
        for (std::size_t t = s; t < send; ++t) {
          const InClusterPlan::Fragment& f = plan.fragments[sources[t].frag];
          const std::uint64_t at = sources[t].base + row;
          const auto rb = static_cast<std::ptrdiff_t>(f.off[at]);
          const auto re = static_cast<std::ptrdiff_t>(f.off[at + 1]);
          dag.adj.insert(dag.adj.end(), f.nbr.begin() + rb,
                         f.nbr.begin() + re);
          if (!rep.all_goal) {
            dag.goal.insert(dag.goal.end(), f.goal.begin() + rb,
                            f.goal.begin() + re);
          }
        }
        dag.offsets[static_cast<std::size_t>(u) + 1] = dag.adj.size();
      }
      s = send;
    }
    for (; static_cast<std::size_t>(u) < n; ++u) {
      dag.offsets[static_cast<std::size_t>(u) + 1] = dag.adj.size();
    }
    // Report only cliques containing at least one goal edge of C — the
    // task assigned to this cluster (others are other iterations' work);
    // all-goal representatives carry no flags and skip the filter.
    flat.clear();
    list_dag_cliques(dag, p, scratch, flat);
    const NodeId reporter =
        plan.cluster->nodes[static_cast<std::size_t>(rep.node)];
    for (std::size_t at = 0; at < flat.size(); at += global.size()) {
      for (std::size_t i = 0; i < global.size(); ++i) {
        global[i] =
            plan.compact_to_global[static_cast<std::size_t>(flat[at + i])];
      }
      out.report(reporter, global);
      ++reported;
    }
  }
  return reported;
}

InClusterCost in_cluster_list(const InClusterProblem& problem, Rng& rng,
                              ListingOutput& out) {
  const InClusterPlan plan = in_cluster_plan(problem, rng);
  InClusterCost cost = plan.cost;
  cost.cliques_reported = in_cluster_enumerate(plan, 0, plan.reps.size(), out);
  return cost;
}

}  // namespace dcl
