#include "core/in_cluster_listing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/parallel_for.h"
#include "core/kp_lister.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "graph/workloads.h"
#include "routing/cluster_router.h"

namespace dcl {
namespace {

/// Builds the canonical problem: cluster = all nodes of `g`, every edge
/// known and grouped at its responsibility holder by degeneracy tail.
struct Scenario {
  Graph g;
  Cluster cluster;
  std::vector<std::vector<EdgeId>> holders;
  EdgeMask goal;

  explicit Scenario(Graph graph) : g(std::move(graph)) {
    cluster.id = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) cluster.nodes.push_back(v);
    cluster.min_internal_degree = 1;
    const auto k = static_cast<NodeId>(cluster.nodes.size());
    holders.resize(static_cast<std::size_t>(k));
    const Orientation o = degeneracy_orientation(g);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const NodeId tail = edge_tail(g, o.away(), e);
      const NodeId idx = responsible_cluster_index(tail, g.node_count(), k);
      holders[static_cast<std::size_t>(idx)].push_back(e);
    }
    goal.assign(g.edge_count(), true);
  }

  InClusterProblem problem(int p, InClusterChargeMode mode =
                                      InClusterChargeMode::measured) const {
    InClusterProblem pr;
    pr.base = &g;
    pr.cluster = &cluster;
    pr.edges_by_holder = &holders;
    pr.goal_edge = &goal;
    pr.p = p;
    pr.charge_mode = mode;
    return pr;
  }
};

TEST(InClusterListing, ListsAllCliquesOfCompleteGraph) {
  Scenario s(complete_graph(8));
  for (const int p : {3, 4, 5}) {
    Rng rng(1);
    ListingOutput out(s.g.node_count());
    const auto cost = in_cluster_list(s.problem(p), rng, out);
    EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, p)))
        << "p=" << p;
    EXPECT_GT(cost.parts, 0);
  }
}

TEST(InClusterListing, ListsAllCliquesOfRandomGraph) {
  Rng gen(2);
  Scenario s(erdos_renyi_gnm(40, 350, gen));
  Rng rng(3);
  ListingOutput out(s.g.node_count());
  in_cluster_list(s.problem(4), rng, out);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, 4)));
}

TEST(InClusterListing, GoalEdgeFilterRestrictsOutput) {
  Scenario s(complete_graph(6));
  s.goal.fill(false);
  s.goal.set(*s.g.edge_id(0, 1));
  Rng rng(4);
  ListingOutput out(s.g.node_count());
  in_cluster_list(s.problem(3), rng, out);
  // Only triangles through {0,1}: the other C(4,1) = 4 completions.
  EXPECT_EQ(out.unique_count(), 4u);
  for (const auto& c : out.cliques().to_vector()) {
    EXPECT_EQ(c[0], 0);
    EXPECT_EQ(c[1], 1);
  }
}

TEST(InClusterListing, NoGoalEdgesNoOutput) {
  Scenario s(complete_graph(6));
  s.goal.fill(false);
  Rng rng(5);
  ListingOutput out(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(3), rng, out);
  EXPECT_EQ(out.unique_count(), 0u);
  // Edges still flowed (the cluster cannot know in advance they are all
  // non-goal): loads are positive.
  EXPECT_GT(cost.max_recv, 0);
}

TEST(InClusterListing, ExactOnRandomGraphs) {
  // Differential check on unstructured instances: with the whole graph as
  // one cluster and every edge a goal edge, in-cluster listing must
  // reproduce the oracle exactly (the §2.4 contract).
  for (const int seed : {1, 2, 3}) {
    Rng gen(static_cast<std::uint64_t>(seed) * 53 + 11);
    Scenario s(erdos_renyi_gnp(28, 0.3, gen));
    for (const int p : {3, 4}) {
      Rng rng(static_cast<std::uint64_t>(seed));
      ListingOutput out(s.g.node_count());
      const auto cost = in_cluster_list(s.problem(p), rng, out);
      EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, p)))
          << "seed=" << seed << " p=" << p;
      EXPECT_GE(cost.max_send, 0);
      EXPECT_GE(cost.max_recv, 0);
      EXPECT_GE(cost.parts, 1);
      EXPECT_GE(cost.cliques_reported, out.unique_count());
    }
  }
}

TEST(InClusterListing, WorstCaseChargeDominatesMeasured) {
  Rng gen(6);
  Scenario s(erdos_renyi_gnm(30, 120, gen));
  Rng rng_a(7), rng_b(7);
  ListingOutput out_a(s.g.node_count()), out_b(s.g.node_count());
  const auto measured = in_cluster_list(
      s.problem(3, InClusterChargeMode::measured), rng_a, out_a);
  const auto worst = in_cluster_list(
      s.problem(3, InClusterChargeMode::worst_case), rng_b, out_b);
  EXPECT_GE(worst.max_recv, measured.max_recv);
  EXPECT_GE(worst.max_send, measured.max_send);
  // The charge mode must not change what gets listed.
  EXPECT_TRUE(out_a.cliques() == out_b.cliques());
}

TEST(InClusterListing, SendLoadsReflectCoverCounts) {
  Scenario s(complete_graph(16));  // k=16, p=4 -> q=2
  Rng rng(8);
  ListingOutput out(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(4), rng, out);
  EXPECT_EQ(cost.parts, 2);
  // With q=2 every edge goes to many of the 16 nodes; send load is at
  // least the number of edges a holder owns.
  EXPECT_GT(cost.max_send, 0);
  EXPECT_GT(cost.messages, static_cast<std::uint64_t>(s.g.edge_count()));
}

TEST(InClusterListing, SingletonPartDegeneratesGracefully) {
  // k < 2^p forces q = 1: everything lands in one bucket, one
  // representative lists everything.
  Scenario s(complete_graph(5));
  Rng rng(9);
  ListingOutput out(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(4), rng, out);
  EXPECT_EQ(cost.parts, 1);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, 4)));
}

TEST(InClusterListing, ReportersAreClusterMembers) {
  Scenario s(complete_graph(9));
  Rng rng(10);
  ListingOutput out(s.g.node_count());
  in_cluster_list(s.problem(3), rng, out);
  std::uint64_t reporters = 0;
  for (NodeId v = 0; v < s.g.node_count(); ++v) {
    reporters += out.reports_of(v);
  }
  EXPECT_EQ(reporters, out.total_reports());
  EXPECT_GT(out.total_reports(), 0u);
}

TEST(InClusterListing, InternBuffersSurviveShrinkThenGrowAcrossGraphs) {
  // The interning buffers are function-static thread_local and sized to
  // the base graph: a large graph grows them, a much smaller one triggers
  // the shrink policy, and a large graph again must regrow them with the
  // all-slots-reset invariant intact. Any stale compact id or missed
  // reset surfaces as a wrong clique set here. All three calls run on
  // THIS thread (gtest runs the body single-threaded), so they hit the
  // same buffers in sequence.
  Rng big_gen(41);
  Scenario big(erdos_renyi_gnm(9000, 4000, big_gen));
  Rng small_gen(42);
  Scenario small(erdos_renyi_gnp(24, 0.4, small_gen));

  for (int round = 0; round < 2; ++round) {
    {
      Rng rng(100 + static_cast<std::uint64_t>(round));
      ListingOutput out(big.g.node_count());
      in_cluster_list(big.problem(3), rng, out);
      EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(big.g, 3)))
          << "big round " << round;
    }
    {
      // 9000-slot buffer vs max(4·24, 4096) threshold: this call shrinks.
      Rng rng(200 + static_cast<std::uint64_t>(round));
      ListingOutput out(small.g.node_count());
      in_cluster_list(small.problem(3), rng, out);
      EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(small.g, 3)))
          << "small round " << round;
    }
  }
}

TEST(InClusterListing, DuplicateHeldEdgesDoNotChangeTheListing) {
  // The plan dedups identical held edge ids; a cluster holding the same
  // edge twice (here: duplicated inside one holder's list before dedup
  // normally happens upstream) must list exactly the same cliques as the
  // clean problem.
  Rng gen(7);
  Scenario clean(erdos_renyi_gnp(20, 0.5, gen));
  Scenario doubled = clean;
  for (auto& h : doubled.holders) {
    const auto original = h;
    h.insert(h.end(), original.begin(), original.end());
  }
  Rng rng_a(31), rng_b(31);
  ListingOutput out_a(clean.g.node_count());
  ListingOutput out_b(doubled.g.node_count());
  in_cluster_list(clean.problem(4), rng_a, out_a);
  in_cluster_list(doubled.problem(4), rng_b, out_b);
  EXPECT_TRUE(out_a.cliques() == out_b.cliques());
  EXPECT_TRUE(out_a.cliques() == CliqueSet(list_k_cliques(clean.g, 4)));
}

TEST(InClusterPlanEnumerate, SplitRangesReproduceTheFullListing) {
  // The plan/enumerate contract: any partition of the DAG roots [0, n)
  // into ranges yields the same reports as the one-call wrapper — here a
  // two-way split through separate enumerators and a three-way split
  // through one enumerator reused across its ranges.
  Rng gen(12);
  Scenario s(erdos_renyi_gnm(64, 600, gen));
  Rng rng_a(13), rng_b(13);
  ListingOutput whole(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(4), rng_a, whole);

  const InClusterPlan plan = in_cluster_plan(s.problem(4), rng_b);
  EXPECT_EQ(plan.cost.max_send, cost.max_send);
  EXPECT_EQ(plan.cost.max_recv, cost.max_recv);
  EXPECT_EQ(plan.cost.messages, cost.messages);
  EXPECT_EQ(plan.cost.parts, cost.parts);
  ASSERT_GE(plan.reps.size(), 2u) << "scenario too small to split";
  const NodeId roots = plan.dag.node_count();
  ASSERT_GE(roots, 3);
  {
    ListingOutput split(s.g.node_count());
    std::uint64_t reported = 0;
    reported += InClusterEnumerator(plan).run(0, roots / 2, split);
    reported += InClusterEnumerator(plan).run(roots / 2, roots, split);
    EXPECT_EQ(reported, cost.cliques_reported);
    EXPECT_TRUE(split.cliques() == whole.cliques());
    EXPECT_EQ(split.total_reports(), whole.total_reports());
  }
  {
    ListingOutput split(s.g.node_count());
    InClusterEnumerator enumerator(plan);
    std::uint64_t reported = 0;
    reported += enumerator.run(2 * roots / 3, roots, split);
    reported += enumerator.run(0, roots / 3, split);
    reported += enumerator.run(roots / 3, 2 * roots / 3, split);
    EXPECT_EQ(reported, cost.cliques_reported);
    EXPECT_TRUE(split.cliques() == whole.cliques());
    EXPECT_EQ(split.total_reports(), whole.total_reports());
  }
}

TEST(InClusterPlanEnumerate, EstimatesAccumulateIn64Bits) {
  // A hand-built hub DAG: one root with 70 000 out-neighbors. Its
  // out-degree² estimate is 4.9e9, past anything a 32-bit accumulator can
  // hold; a wrapped estimate would show up here as != 70 000².
  constexpr NodeId kLeaves = 70000;
  CliqueDag dag;
  dag.offsets.assign(static_cast<std::size_t>(kLeaves) + 2, kLeaves);
  dag.offsets[0] = 0;
  for (NodeId v = 1; v <= kLeaves; ++v) dag.adj.push_back(v);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kLeaves) * static_cast<std::uint64_t>(kLeaves);
  EXPECT_EQ(root_est_work(dag, 0), expected);
  EXPECT_GT(root_est_work(dag, 0),
            std::uint64_t{std::numeric_limits<std::uint32_t>::max()});
  EXPECT_EQ(root_est_work(dag, kLeaves), 0u);
}

TEST(InClusterPlanEnumerate, RepsBelowThresholdsAreDroppedAtPlanTime) {
  // No goal edges → every representative is dropped: the enumeration half
  // has literally nothing to do.
  Scenario s(complete_graph(6));
  s.goal.fill(false);
  Rng rng(15);
  const InClusterPlan plan = in_cluster_plan(s.problem(3), rng);
  EXPECT_TRUE(plan.reps.empty());
  EXPECT_EQ(plan.est_work_total, 0u);
}

TEST(InClusterListing, HolderCountMismatchThrows) {
  Scenario s(complete_graph(4));
  s.holders.pop_back();
  Rng rng(11);
  ListingOutput out(s.g.node_count());
  EXPECT_THROW(in_cluster_list(s.problem(3), rng, out), std::invalid_argument);
}

TEST(InClusterListing, HeldEdgeIdOutOfRangeThrows) {
  // A held id must name a base edge. Both ends of the range throw, and a
  // clean plan afterwards on the same thread still lists exactly: the
  // throw left the thread_local dedup and interning maps clear.
  Scenario s(complete_graph(6));
  for (const EdgeId bad : {s.g.edge_count(), EdgeId{-1}}) {
    Scenario broken = s;
    broken.holders[1].push_back(bad);
    Rng rng(12);
    EXPECT_THROW(in_cluster_plan(broken.problem(3), rng),
                 std::invalid_argument)
        << "id " << bad;
  }
  Rng rng(12);
  ListingOutput out(s.g.node_count());
  in_cluster_list(s.problem(3), rng, out);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, 3)));
}

// ---- The orient-once kernel, differentially -------------------------------
//
// Every representative's reports must equal what a per-representative
// rebuild produces: a Graph over exactly the held edges its part multiset
// covers, listed with list_k_cliques and goal-filtered through
// Graph::edge_id. That reference lives only here. The cases span p ∈ {3..6}
// and q ∈ {1, 2, 3}, with randomly mixed goal flags and with part-aligned
// goal flags that produce all-goal, mixed and zero-goal representatives.
// The pipeline-level case pins ListingOutput counters and fingerprints
// across thread counts and shard orders.

/// Sparse random noise plus eight planted (p+2)-cliques on random nodes, so
/// every part combination sees some Kp.
Graph planted_graph(NodeId n, int p, Rng& rng) {
  const auto pairs = static_cast<std::int64_t>(n) * (n - 1) / 2;
  const auto noise_edges =
      static_cast<EdgeId>(std::min<std::int64_t>(4LL * n, pairs / 3));
  const Graph noise = erdos_renyi_gnm(n, noise_edges, rng);
  std::vector<Edge> edges(noise.edges().begin(), noise.edges().end());
  for (int c = 0; c < 8; ++c) {
    std::vector<NodeId> members;
    while (members.size() < static_cast<std::size_t>(p + 2)) {
      const auto v = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (std::find(members.begin(), members.end(), v) == members.end()) {
        members.push_back(v);
      }
    }
    for (std::size_t x = 0; x < members.size(); ++x) {
      for (std::size_t y = x + 1; y < members.size(); ++y) {
        edges.push_back(make_edge(members[x], members[y]));
      }
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

/// Part of every planned node, read off the plan's compact part map
/// (nodes without held edges stay -1).
std::vector<int> parts_of(const InClusterPlan& plan, NodeId n) {
  std::vector<int> part(static_cast<std::size_t>(n), -1);
  for (std::size_t c = 0; c < plan.compact_to_global.size(); ++c) {
    part[static_cast<std::size_t>(plan.compact_to_global[c])] = plan.part[c];
  }
  return part;
}

/// The sorted part tuple of a clique.
std::vector<int> clique_parts(const Clique& c, const std::vector<int>& part) {
  std::vector<int> parts;
  for (const NodeId v : c) parts.push_back(part[static_cast<std::size_t>(v)]);
  std::sort(parts.begin(), parts.end());
  return parts;
}

struct Reference {
  CliqueSet reports;
  EdgeId local_edges = 0;
  EdgeId local_goals = 0;
};

/// The rebuild lister for cluster node j: a Graph over every held edge j's
/// multiset covers, every Kp of it, kept iff one of its edges is a goal
/// edge (looked up by edge id).
Reference reference_reports(const Scenario& s, const std::vector<int>& part,
                            int q, int p, NodeId j) {
  const std::vector<int> mset = part_multiset(j, q, p);
  std::vector<Edge> edges;
  for (const auto& held : s.holders) {
    for (const EdgeId id : held) {
      const Edge& e = s.g.edge(id);
      if (multiset_covers(mset, part[static_cast<std::size_t>(e.u)],
                          part[static_cast<std::size_t>(e.v)])) {
        edges.push_back(e);
      }
    }
  }
  const Graph local = Graph::from_edges(s.g.node_count(), std::move(edges));
  Reference ref;
  ref.local_edges = local.edge_count();
  for (const Edge& e : local.edges()) {
    ref.local_goals += s.goal[*s.g.edge_id(e.u, e.v)] ? 1 : 0;
  }
  std::vector<Clique> reports;
  for (const Clique& c : list_k_cliques(local, p)) {
    bool has_goal = false;
    for (std::size_t x = 0; x < c.size(); ++x) {
      for (std::size_t y = x + 1; y < c.size(); ++y) {
        has_goal = has_goal || s.goal[*s.g.edge_id(c[x], c[y])];
      }
    }
    if (has_goal) reports.push_back(c);
  }
  ref.reports = CliqueSet(reports);
  return ref;
}

enum class GoalMode { all, random_mix, part_zero };

struct RosterShape {
  int all_goal = 0;
  int mixed = 0;
  int zero_goal_dropped = 0;
  std::uint64_t reported = 0;
};

/// Plans the scenario, lists the whole cluster once, hands every clique
/// to its covering representatives, and checks each representative's
/// clique set against the reference and every dropped representative for
/// an empty reference.
RosterShape check_against_reference(Scenario& s, int p, int expected_q,
                                    GoalMode mode, std::uint64_t seed) {
  RosterShape shape;
  const auto n = s.g.node_count();
  {
    // The partition depends on the RNG alone, so a first plan reveals it.
    Rng probe(seed);
    const InClusterPlan plan = in_cluster_plan(s.problem(p), probe);
    EXPECT_EQ(plan.q, expected_q) << "p=" << p;
    const std::vector<int> part = parts_of(plan, n);
    Rng flags(seed ^ 0xf1a95ULL);
    for (EdgeId e = 0; e < s.g.edge_count(); ++e) {
      const Edge& ed = s.g.edge(e);
      bool goal = true;
      if (mode == GoalMode::random_mix) goal = flags.next_bool(0.5);
      if (mode == GoalMode::part_zero) {
        goal = part[static_cast<std::size_t>(ed.u)] == 0 &&
               part[static_cast<std::size_t>(ed.v)] == 0;
      }
      s.goal.set(e, goal);
    }
  }
  Rng rng(seed);
  const InClusterPlan plan = in_cluster_plan(s.problem(p), rng);
  const int q = plan.q;
  const std::vector<int> part = parts_of(plan, n);

  // One whole-cluster listing; the cover dispatch rebuilds each
  // representative's clique set from it.
  ListingOutput out(n);
  shape.reported = InClusterEnumerator(plan).run(0, plan.dag.node_count(), out);
  EXPECT_EQ(out.total_reports(), shape.reported);
  std::vector<std::vector<Clique>> received(plan.reps.size());
  std::uint64_t dispatched = 0;
  for (const Clique& c : out.cliques().to_vector()) {
    const std::vector<int> tuple = clique_parts(c, part);
    for (std::size_t r = 0; r < plan.reps.size(); ++r) {
      if (!covers_part_tuple(plan.reps[r].parts, tuple)) continue;
      received[r].push_back(c);
      ++dispatched;
    }
  }
  EXPECT_EQ(dispatched, shape.reported) << "p=" << p;

  std::vector<bool> planned(static_cast<std::size_t>(n), false);
  for (std::size_t r = 0; r < plan.reps.size(); ++r) {
    const InClusterPlan::Rep& rep = plan.reps[r];
    planned[static_cast<std::size_t>(rep.node)] = true;
    EXPECT_EQ(rep.parts, part_multiset(rep.node, q, p));
    const Reference ref = reference_reports(s, part, q, p, rep.node);
    ++(ref.local_goals == ref.local_edges ? shape.all_goal : shape.mixed);
    EXPECT_EQ(rep.edges, ref.local_edges) << "p=" << p << " rep " << rep.node;
    // Each covered clique is reported once to its representative: the
    // representative's report count is the size of its reference set.
    EXPECT_EQ(out.reports_of(s.cluster.nodes[static_cast<std::size_t>(
                  rep.node)]),
              ref.reports.size())
        << "p=" << p << " rep " << rep.node;
    EXPECT_TRUE(CliqueSet(received[r]) == ref.reports)
        << "p=" << p << " q=" << q << " rep " << rep.node;
  }

  for (const NodeId j : part_multisets(n, q, p).rep) {
    if (planned[static_cast<std::size_t>(j)]) continue;
    const Reference ref = reference_reports(s, part, q, p, j);
    EXPECT_TRUE(ref.reports.empty()) << "dropped rep " << j << " p=" << p;
    if (ref.local_edges >= p * (p - 1) / 2) ++shape.zero_goal_dropped;
  }
  return shape;
}

/// Cluster sizes landing on q = floor(k^{1/p}) ∈ {1, 2, 3}.
NodeId cluster_size(int p, int q) {
  const auto pow = [p](NodeId base) {
    NodeId x = 1;
    for (int i = 0; i < p; ++i) x *= base;
    return x;
  };
  return q == 1 ? pow(2) - 1 : pow(q);
}

TEST(InClusterListing, PlanDependsOnlyOnTheHeldEdgeSet) {
  // Compact ids follow the global order and the DAG holds each distinct
  // held id once, so permuting the holders' lists or copying edges to
  // more holders moves only the loads, never the DAG or the roster.
  Rng gen(16);
  Scenario s(planted_graph(cluster_size(4, 2), 4, gen));
  Rng flags(17);
  for (EdgeId e = 0; e < s.g.edge_count(); ++e) {
    s.goal.set(e, flags.next_bool(0.5));
  }
  Rng rng_clean(18);
  const InClusterPlan clean = in_cluster_plan(s.problem(4), rng_clean);
  ASSERT_GE(clean.reps.size(), 2u);
  ASSERT_FALSE(clean.dag.goal.empty()) << "scenario needs mixed goal flags";
  EXPECT_EQ(std::adjacent_find(clean.compact_to_global.begin(),
                               clean.compact_to_global.end(),
                               [](NodeId a, NodeId b) { return a >= b; }),
            clean.compact_to_global.end())
      << "compact_to_global must be strictly ascending";
  EXPECT_EQ(clean.dag.adj.size(), static_cast<std::size_t>(s.g.edge_count()));

  Scenario permuted = s;
  Rng shuffle(19);
  for (auto& h : permuted.holders) {
    for (std::size_t i = h.size(); i > 1; --i) {
      std::swap(h[i - 1], h[shuffle.next_below(i)]);
    }
  }
  Scenario copied = permuted;
  const auto k = copied.holders.size();
  for (std::size_t i = 0; i < k; ++i) {
    const auto& from = s.holders[i];
    auto& to = copied.holders[(i + 1) % k];
    to.insert(to.begin(), from.begin(), from.begin() + from.size() / 2);
  }

  const auto expect_same_plan = [&](const InClusterPlan& other,
                                    const char* what) {
    EXPECT_EQ(other.compact_to_global, clean.compact_to_global) << what;
    EXPECT_EQ(other.part, clean.part) << what;
    EXPECT_EQ(other.dag.offsets, clean.dag.offsets) << what;
    EXPECT_EQ(other.dag.adj, clean.dag.adj) << what;
    EXPECT_EQ(other.dag.goal, clean.dag.goal) << what;
    EXPECT_EQ(other.est_work_total, clean.est_work_total) << what;
    ASSERT_EQ(other.reps.size(), clean.reps.size()) << what;
    for (std::size_t r = 0; r < clean.reps.size(); ++r) {
      EXPECT_EQ(other.reps[r].node, clean.reps[r].node) << what;
      EXPECT_EQ(other.reps[r].parts, clean.reps[r].parts) << what;
      EXPECT_EQ(other.reps[r].edges, clean.reps[r].edges) << what;
    }
  };
  Rng rng_permuted(18);
  const InClusterPlan p_plan = in_cluster_plan(permuted.problem(4),
                                               rng_permuted);
  expect_same_plan(p_plan, "permuted");
  EXPECT_EQ(p_plan.cost.max_send, clean.cost.max_send);
  EXPECT_EQ(p_plan.cost.max_recv, clean.cost.max_recv);
  EXPECT_EQ(p_plan.cost.messages, clean.cost.messages);

  Rng rng_copied(18);
  const InClusterPlan c_plan = in_cluster_plan(copied.problem(4), rng_copied);
  expect_same_plan(c_plan, "copied");
  EXPECT_GT(c_plan.cost.messages, clean.cost.messages);
  EXPECT_GT(c_plan.cost.max_recv, clean.cost.max_recv);
}

TEST(InClusterKernel, MatchesRebuildReferenceOnMixedGoals) {
  for (const int p : {3, 4, 5, 6}) {
    for (const int q : {1, 2, 3}) {
      Rng gen(static_cast<std::uint64_t>(100 * p + q));
      Scenario s(planted_graph(cluster_size(p, q), p, gen));
      const RosterShape shape = check_against_reference(
          s, p, q, GoalMode::random_mix, static_cast<std::uint64_t>(p + q));
      EXPECT_GT(shape.mixed, 0) << "p=" << p << " q=" << q;
      EXPECT_GT(shape.reported, 0u) << "p=" << p << " q=" << q;
    }
  }
}

TEST(InClusterKernel, MatchesRebuildReferenceOnAllGoalEdges) {
  for (const int p : {3, 4, 5, 6}) {
    for (const int q : {1, 2, 3}) {
      Rng gen(static_cast<std::uint64_t>(200 * p + q));
      Scenario s(planted_graph(cluster_size(p, q), p, gen));
      const RosterShape shape = check_against_reference(
          s, p, q, GoalMode::all, static_cast<std::uint64_t>(7 * p + q));
      EXPECT_GT(shape.all_goal, 0) << "p=" << p << " q=" << q;
      EXPECT_EQ(shape.mixed, 0);
      EXPECT_GT(shape.reported, 0u) << "p=" << p << " q=" << q;
    }
  }
}

TEST(InClusterKernel, PartAlignedGoalsGiveAllMixedAndZeroGoalReps) {
  // Goal edges exactly the part-0 internal edges: the all-zeros multiset
  // holds only goal edges, multisets mixing part 0 with others hold both,
  // and multisets without part 0 hold none — those are dropped at plan
  // time and their reference output must be empty.
  for (const int p : {3, 4, 5, 6}) {
    for (const int q : {2, 3}) {
      Rng gen(static_cast<std::uint64_t>(300 * p + q));
      Scenario s(planted_graph(cluster_size(p, q), p, gen));
      const RosterShape shape = check_against_reference(
          s, p, q, GoalMode::part_zero, static_cast<std::uint64_t>(11 * p + q));
      EXPECT_GT(shape.all_goal, 0) << "p=" << p << " q=" << q;
      EXPECT_GT(shape.mixed, 0) << "p=" << p << " q=" << q;
      EXPECT_GT(shape.zero_goal_dropped, 0) << "p=" << p << " q=" << q;
      EXPECT_GT(shape.reported, 0u) << "p=" << p << " q=" << q;
    }
  }
}

TEST(InClusterKernel, OrientedRowsStayWithinClusterDegeneracy) {
  // One degeneracy order per plan: the oriented cluster graph holds every
  // held edge once, and no root's out-row exceeds the cluster graph's
  // degeneracy.
  Rng gen(9);
  Scenario s(planted_graph(cluster_size(4, 3), 4, gen));
  Rng rng(10);
  const InClusterPlan plan = in_cluster_plan(s.problem(4), rng);
  const NodeId degeneracy = degeneracy_order(s.g).degeneracy;
  EXPECT_EQ(plan.dag.adj.size(), static_cast<std::size_t>(s.g.edge_count()));
  for (NodeId v = 0; v < plan.dag.node_count(); ++v) {
    const auto r = static_cast<std::size_t>(v);
    EXPECT_LE(plan.dag.offsets[r + 1] - plan.dag.offsets[r],
              static_cast<std::uint64_t>(degeneracy));
  }
}

TEST(InClusterKernel, SamePartVerticesNeedTheirPartTwice) {
  // The multiset_covers a == b rule, end to end: a clique with two or more
  // vertices in part a reaches only representatives holding a at least
  // twice. Three K4s with part tuples {0,0,0,1}, {0,0,1,1} and {1,1,1,1}
  // on a q = 2, p = 4 cluster; each representative receives exactly the
  // K4s whose every part pair its multiset covers.
  constexpr NodeId kNodes = 40;  // floor(40^{1/4}) = 2 parts
  std::vector<int> part;
  {
    std::vector<Edge> ring;
    for (NodeId v = 0; v < kNodes; ++v) {
      ring.push_back(make_edge(v, (v + 1) % kNodes));
    }
    Scenario probe(Graph::from_edges(kNodes, std::move(ring)));
    Rng rng(21);
    part = parts_of(in_cluster_plan(probe.problem(4), rng), kNodes);
  }
  std::vector<NodeId> pool[2];
  for (NodeId v = 0; v < kNodes; ++v) {
    pool[part[static_cast<std::size_t>(v)]].push_back(v);
  }
  ASSERT_GE(pool[0].size(), 5u);
  ASSERT_GE(pool[1].size(), 7u);
  const std::vector<std::vector<NodeId>> k4s = {
      {pool[0][0], pool[0][1], pool[0][2], pool[1][0]},
      {pool[0][3], pool[0][4], pool[1][1], pool[1][2]},
      {pool[1][3], pool[1][4], pool[1][5], pool[1][6]}};
  std::vector<Edge> edges;
  for (const auto& k4 : k4s) {
    for (std::size_t x = 0; x < k4.size(); ++x) {
      for (std::size_t y = x + 1; y < k4.size(); ++y) {
        edges.push_back(make_edge(k4[x], k4[y]));
      }
    }
  }
  Scenario s(Graph::from_edges(kNodes, std::move(edges)));
  Rng rng(21);
  const InClusterPlan plan = in_cluster_plan(s.problem(4), rng);
  ASSERT_EQ(plan.q, 2);
  ListingOutput out(kNodes);
  InClusterEnumerator(plan).run(0, plan.dag.node_count(), out);
  EXPECT_EQ(out.unique_count(), 3u);

  // covers_part_tuple agrees with multiset_covers over every pair of parts.
  std::vector<std::vector<int>> tuples;
  for (const auto& k4 : k4s) {
    Clique c(k4.begin(), k4.end());
    tuples.push_back(clique_parts(c, part));
    for (std::size_t r = 0; r < plan.reps.size(); ++r) {
      bool covers = true;
      for (std::size_t x = 0; x < c.size(); ++x) {
        for (std::size_t y = x + 1; y < c.size(); ++y) {
          covers = covers && multiset_covers(plan.reps[r].parts,
                                             tuples.back()[x],
                                             tuples.back()[y]);
        }
      }
      EXPECT_EQ(covers_part_tuple(plan.reps[r].parts, tuples.back()), covers)
          << "rep " << r;
    }
  }
  EXPECT_EQ(tuples[0], (std::vector<int>{0, 0, 0, 1}));
  EXPECT_EQ(tuples[1], (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(tuples[2], (std::vector<int>{1, 1, 1, 1}));

  // Reports per representative multiset. {0,1,1,1} holds part 0 once: it
  // gets neither K4 with two or more part-0 vertices. {0,0,0,1} holds
  // part 1 once: it gets only the K4 with one part-1 vertex.
  const auto reports_of_multiset = [&](const std::vector<int>& mset) {
    for (const InClusterPlan::Rep& rep : plan.reps) {
      if (rep.parts == mset) {
        return out.reports_of(
            s.cluster.nodes[static_cast<std::size_t>(rep.node)]);
      }
    }
    return std::uint64_t{0};  // dropped at plan time: reports nothing
  };
  EXPECT_EQ(reports_of_multiset({0, 0, 0, 0}), 0u);
  EXPECT_EQ(reports_of_multiset({0, 0, 0, 1}), 1u);
  EXPECT_EQ(reports_of_multiset({0, 0, 1, 1}), 3u);
  EXPECT_EQ(reports_of_multiset({0, 1, 1, 1}), 1u);
  EXPECT_EQ(reports_of_multiset({1, 1, 1, 1}), 1u);
  EXPECT_EQ(out.total_reports(), 6u);
}

/// ListingOutput state that must not depend on threads or shard order.
struct OutputCounters {
  std::uint64_t total_reports;
  std::uint64_t unique;
  std::uint64_t max_per_node;
  std::uint64_t fingerprint;
  double rounds;
  friend bool operator==(const OutputCounters&,
                         const OutputCounters&) = default;
};

OutputCounters run_pipeline(const Graph& g, const KpConfig& cfg, int threads,
                            ShardAudit audit) {
  const int previous = shard_threads();
  set_shard_threads(threads);
  set_shard_audit(audit);
  ListingOutput out(g.node_count());
  const KpListResult res = list_kp_collect(g, cfg, out);
  set_shard_audit(ShardAudit::off);
  set_shard_threads(previous);
  EXPECT_FALSE(res.arb_traces.empty()) << "ARB-LIST never ran";
  EXPECT_EQ(out.unique_count(), count_k_cliques(g, cfg.p));
  return OutputCounters{out.total_reports(), out.unique_count(),
                        out.max_reports_per_node(),
                        out.cliques().fingerprint(), res.total_rounds()};
}

TEST(InClusterKernel, PipelineOutputIdenticalAcrossThreadsAndShardOrder) {
  Rng gen_er(14);
  const Graph er = erdos_renyi_gnm(700, 10000, gen_er);
  Rng gen_ring(13);
  const Graph ring = ring_of_cliques_workload(240, gen_ring, 8);
  struct Input {
    const Graph* g;
    int p;
    double stop_scale;
  };
  for (const Input& in : {Input{&er, 4, 0.01}, Input{&ring, 4, 0.1},
                          Input{&ring, 5, 0.1}}) {
    KpConfig cfg;
    cfg.p = in.p;
    cfg.seed = 3;
    cfg.stop_scale = in.stop_scale;
    const OutputCounters t1 = run_pipeline(*in.g, cfg, 1, ShardAudit::off);
    EXPECT_GT(t1.total_reports, 0u);
    EXPECT_EQ(run_pipeline(*in.g, cfg, 4, ShardAudit::off), t1);
    EXPECT_EQ(run_pipeline(*in.g, cfg, 4, ShardAudit::reverse), t1);
  }
}

}  // namespace
}  // namespace dcl
