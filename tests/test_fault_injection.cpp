// Chaos differential suite for the fault-injection plane.
//
// Two layers, matching the degradation contracts of docs/ROBUSTNESS.md:
//  * accounting-level pipelines (list_kp / sparse_cc): any drop/dup/delay
//    sweep leaves the clique fingerprint bit-identical to the fault-free
//    run — the degradation is charged cost, never output;
//  * crashes: the survivor contract — every Kp of G[alive] is listed and
//    everything listed is a Kp of G.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "congest/fault_plan.h"
#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/workloads.h"
#include "test_util.h"

namespace dcl {
namespace {

class ScopedShardThreads {
 public:
  explicit ScopedShardThreads(int threads) : previous_(shard_threads()) {
    set_shard_threads(threads);
  }
  ~ScopedShardThreads() { set_shard_threads(previous_); }

 private:
  int previous_;
};

// ---- Accounting level: the listing pipelines -----------------------------

struct ChaosFixture {
  const char* name;
  Graph graph;
};

std::vector<ChaosFixture> chaos_fixtures() {
  std::vector<ChaosFixture> fixtures;
  Rng er_rng(7);
  fixtures.push_back({"er", erdos_renyi_gnm(48, 300, er_rng)});
  Rng ring_rng(9);
  fixtures.push_back({"ring", ring_of_cliques_workload(48, ring_rng)});
  return fixtures;
}

TEST(PipelineChaos, RecoverableSweepsKeepFingerprintsBitIdentical) {
  const char* sweeps[] = {
      "drop=0.08,retries=4,seed=3",
      "dup=0.15,seed=5",
      "delay=0.1:3,seed=7",
      "drop=0.05,dup=0.05,delay=0.05:2,retries=5,seed=11",
      // A starved retry budget: losses escalate to charged resends, the
      // output still must not change (accounting-level contract).
      "drop=0.3,retries=0,seed=13",
  };
  for (auto& fixture : chaos_fixtures()) {
    for (const int p : {3, 4, 5}) {
      KpConfig base_cfg;
      base_cfg.p = p;
      base_cfg.seed = 2;
      ListingOutput base_out(fixture.graph.node_count());
      const auto base = list_kp_collect(fixture.graph, base_cfg, base_out);
      for (const char* spec : sweeps) {
        SCOPED_TRACE(std::string(fixture.name) + " p=" + std::to_string(p) +
                     " faults=" + spec);
        FaultPlan plan(FaultSpec::parse(spec));
        KpConfig cfg = base_cfg;
        cfg.faults = &plan;
        ListingOutput out(fixture.graph.node_count());
        const auto result = list_kp_collect(fixture.graph, cfg, out);
        expect_result_valid(result, out);
        EXPECT_EQ(out.cliques().fingerprint(), base_out.cliques().fingerprint());
        EXPECT_EQ(out.unique_count(), base_out.unique_count());
        EXPECT_GE(result.total_rounds(), base.total_rounds())
            << "faults can only add cost";
        EXPECT_TRUE(result.crashed_nodes.empty());
      }
    }
  }
}

TEST(PipelineChaos, FingerprintMatchesTheFaultFreeRunExactly) {
  // The sharper form of the sweep above: collect both outputs and compare
  // the order-independent fingerprints directly.
  for (auto& fixture : chaos_fixtures()) {
    for (const int p : {3, 4, 5}) {
      SCOPED_TRACE(std::string(fixture.name) + " p=" + std::to_string(p));
      KpConfig cfg;
      cfg.p = p;
      cfg.seed = 2;
      ListingOutput clean(fixture.graph.node_count());
      list_kp_collect(fixture.graph, cfg, clean);

      FaultPlan plan(FaultSpec::parse(
          "drop=0.1,dup=0.05,delay=0.05:2,retries=4,seed=17"));
      KpConfig chaotic = cfg;
      chaotic.faults = &plan;
      ListingOutput out(fixture.graph.node_count());
      const auto result = list_kp_collect(fixture.graph, chaotic, out);
      EXPECT_EQ(out.cliques().fingerprint(), clean.cliques().fingerprint());
      EXPECT_EQ(out.unique_count(), clean.unique_count());
      // The retry cost the sweep paid is visible in the ledger counters.
      EXPECT_GT(result.ledger.retransmitted_messages(), 0u);
    }
  }
}

TEST(PipelineChaos, FingerprintsAreThreadCountInvariantUnderFaults) {
  Rng rng(3);
  const Graph g = clustered_workload(64, rng);
  const char* spec = "drop=0.1,dup=0.05,delay=0.05:2,retries=4,seed=23";
  auto run = [&](int threads) {
    ScopedShardThreads guard(threads);
    FaultPlan plan(FaultSpec::parse(spec));
    KpConfig cfg;
    cfg.p = 4;
    cfg.seed = 5;
    cfg.faults = &plan;
    ListingOutput out(g.node_count());
    const auto result = list_kp_collect(g, cfg, out);
    return std::tuple(out.cliques().fingerprint(), result.total_rounds(),
                      result.ledger.retransmitted_messages());
  };
  const auto [fp1, rounds1, retx1] = run(1);
  const auto [fp4, rounds4, retx4] = run(4);
  EXPECT_EQ(fp1, fp4);
  EXPECT_DOUBLE_EQ(rounds1, rounds4);
  EXPECT_EQ(retx1, retx4) << "the fault history must not depend on threads";
}

/// Asserts two ledgers hold the same entries, in order.
void expect_same_ledger(const RoundLedger& a, const RoundLedger& b) {
  ASSERT_EQ(a.entries().size(), b.entries().size());
  for (std::size_t i = 0; i < b.entries().size(); ++i) {
    EXPECT_EQ(a.entries()[i].label, b.entries()[i].label);
    EXPECT_DOUBLE_EQ(a.entries()[i].rounds, b.entries()[i].rounds);
    EXPECT_EQ(a.entries()[i].messages, b.entries()[i].messages);
  }
}

TEST(PipelineChaos, DisabledPlanAttachedCostsExactlyNothing) {
  // cfg.faults pointing at an inert plan must be indistinguishable from
  // cfg.faults == nullptr: same fingerprint, same ledger entry-for-entry,
  // in both pipelines that hold a fault session.
  Rng rng(6);
  const Graph g = clustered_workload(48, rng);
  FaultPlan inert;
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 9;
  ListingOutput base_out(g.node_count());
  const auto base = list_kp_collect(g, cfg, base_out);

  KpConfig with_plan = cfg;
  with_plan.faults = &inert;
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, with_plan, out);

  EXPECT_EQ(out.cliques().fingerprint(), base_out.cliques().fingerprint());
  expect_same_ledger(result.ledger, base.ledger);
  EXPECT_DOUBLE_EQ(result.ledger.retry_rounds(), 0.0);
  EXPECT_EQ(result.lost_messages, 0u);
  EXPECT_FALSE(result.crash_degraded);
  EXPECT_TRUE(result.crashed_nodes.empty());

  SparseCcConfig cc_cfg;
  cc_cfg.p = 4;
  cc_cfg.seed = 9;
  ListingOutput cc_base_out(g.node_count());
  const auto cc_base = sparse_cc_list(g, cc_cfg, cc_base_out);
  SparseCcConfig cc_with_plan = cc_cfg;
  cc_with_plan.faults = &inert;
  ListingOutput cc_out(g.node_count());
  const auto cc_result = sparse_cc_list(g, cc_with_plan, cc_out);

  EXPECT_EQ(cc_out.cliques().fingerprint(),
            cc_base_out.cliques().fingerprint());
  expect_same_ledger(cc_result.ledger, cc_base.ledger);
  EXPECT_DOUBLE_EQ(cc_result.ledger.retry_rounds(), 0.0);
  EXPECT_EQ(cc_result.lost_messages, 0u);
}

TEST(PipelineChaos, ReplaySchedulesReproduceChaosRunsExactly) {
  Rng rng(8);
  const Graph g = clustered_workload(48, rng);
  FaultPlan plan(FaultSpec::parse("drop=0.15,dup=0.1,retries=3,seed=29"));
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 3;
  cfg.faults = &plan;
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);

  std::stringstream schedule;
  plan.serialize(schedule);
  FaultPlan replay = FaultPlan::deserialize(schedule);
  KpConfig replay_cfg = cfg;
  replay_cfg.faults = &replay;
  ListingOutput replay_out(g.node_count());
  const auto replayed = list_kp_collect(g, replay_cfg, replay_out);

  EXPECT_EQ(replay_out.cliques().fingerprint(), out.cliques().fingerprint());
  EXPECT_DOUBLE_EQ(replayed.total_rounds(), result.total_rounds());
  EXPECT_EQ(replayed.ledger.retransmitted_messages(),
            result.ledger.retransmitted_messages());
  EXPECT_EQ(replayed.lost_messages, result.lost_messages);
}

TEST(PipelineChaos, SparseCcKeepsExactOutputUnderFaults) {
  Rng rng(12);
  const Graph g = erdos_renyi_gnm(40, 220, rng);
  SparseCcConfig cfg;
  cfg.p = 3;
  cfg.seed = 4;
  ListingOutput clean(g.node_count());
  const auto base = sparse_cc_list(g, cfg, clean);

  FaultPlan plan(FaultSpec::parse("drop=0.2,retries=1,seed=31"));
  SparseCcConfig chaotic = cfg;
  chaotic.faults = &plan;
  ListingOutput out(g.node_count());
  const auto result = sparse_cc_list(g, chaotic, out);
  expect_ledger_valid(result.ledger);
  EXPECT_EQ(out.cliques().fingerprint(), clean.cliques().fingerprint());
  EXPECT_EQ(out.unique_count(), clean.unique_count());
  EXPECT_GE(result.total_rounds(), base.total_rounds());
  EXPECT_GT(result.ledger.retransmitted_messages(), 0u);
}

// ---- Crashes: the survivor contract --------------------------------------

void expect_survivor_contract(const Graph& g, int p,
                              const KpListResult& result,
                              const ListingOutput& out) {
  ASSERT_FALSE(result.crashed_nodes.empty());
  std::vector<char> dead(static_cast<std::size_t>(g.node_count()), 0);
  for (const NodeId v : result.crashed_nodes) {
    dead[static_cast<std::size_t>(v)] = 1;
  }
  // Completeness over G[alive]: every clique of the survivor-induced
  // subgraph is listed.
  std::vector<Edge> alive_edges;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (!dead[static_cast<std::size_t>(ed.u)] &&
        !dead[static_cast<std::size_t>(ed.v)]) {
      alive_edges.push_back(ed);
    }
  }
  const Graph alive = Graph::from_edges(g.node_count(),
                                        std::move(alive_edges));
  for (const auto& clique : list_k_cliques(alive, p)) {
    EXPECT_TRUE(out.cliques().contains(clique))
        << "alive clique missing from the degraded output";
  }
  // Soundness w.r.t. G: everything listed is a real Kp (cliques touching a
  // crashed node may appear — they were listed before the crash).
  for (const auto& clique : out.cliques().to_vector()) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(g.has_edge(clique[i], clique[j]))
            << "listed a non-clique";
      }
    }
  }
}

TEST(PipelineChaos, EntryCrashesSatisfyTheSurvivorContract) {
  for (auto& fixture : chaos_fixtures()) {
    for (const int p : {3, 4}) {
      SCOPED_TRACE(std::string(fixture.name) + " p=" + std::to_string(p));
      FaultPlan plan(FaultSpec::parse("crash=3@0,crash=17@0,seed=2"));
      KpConfig cfg;
      cfg.p = p;
      cfg.seed = 2;
      cfg.faults = &plan;
      ListingOutput out(fixture.graph.node_count());
      const auto result = list_kp_collect(fixture.graph, cfg, out);
      expect_result_valid(result, out);
      ASSERT_EQ(result.crashed_nodes.size(), 2u);
      EXPECT_EQ(result.crashed_nodes[0], 3);
      EXPECT_EQ(result.crashed_nodes[1], 17);
      expect_survivor_contract(fixture.graph, p, result, out);
    }
  }
}

TEST(PipelineChaos, MidRunCrashesWithMessageFaultsStaySound) {
  // Crashes at later clock ticks land mid-pipeline (after phases have run),
  // combined with recoverable message faults — the hardest regime.
  Rng rng(10);
  const Graph g = clustered_workload(64, rng);
  for (const char* spec :
       {"crash=5@2,seed=3", "drop=0.1,retries=3,crash=5@1,crash=29@4,seed=7"}) {
    SCOPED_TRACE(spec);
    FaultPlan plan(FaultSpec::parse(spec));
    KpConfig cfg;
    cfg.p = 4;
    cfg.seed = 6;
    cfg.faults = &plan;
    ListingOutput out(g.node_count());
    const auto result = list_kp_collect(g, cfg, out);
    expect_result_valid(result, out);
    if (!result.crashed_nodes.empty()) {
      expect_survivor_contract(g, 4, result, out);
    }
  }
}

TEST(PipelineChaos, CrashRunsChargeDetectionTimeouts) {
  Rng rng(14);
  const Graph g = erdos_renyi_gnm(40, 260, rng);
  FaultPlan plan(FaultSpec::parse("crash=1@0,seed=2"));
  KpConfig cfg;
  cfg.p = 3;
  cfg.seed = 2;
  cfg.faults = &plan;
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);
  bool saw_timeout = false;
  for (const auto& entry : result.ledger.entries()) {
    saw_timeout |= entry.label == "crash-detect-timeout";
  }
  EXPECT_TRUE(saw_timeout) << "crash detection must be charged";
}

}  // namespace
}  // namespace dcl
