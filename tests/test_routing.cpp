#include "routing/cluster_router.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.h"
#include "test_util.h"

namespace dcl {
namespace {

TEST(RoutingPolylog, GrowsLogarithmically) {
  EXPECT_DOUBLE_EQ(routing_polylog(2), 1.0);
  EXPECT_DOUBLE_EQ(routing_polylog(1024), 10.0);
  EXPECT_DOUBLE_EQ(routing_polylog(1025), 11.0);
  EXPECT_GE(routing_polylog(0), 1.0);
}

TEST(ClusterRoutingRounds, LoadBandwidthFormula) {
  // load 100, bandwidth 10, n=1024 -> ceil(100/10)*10 = 100.
  EXPECT_DOUBLE_EQ(cluster_routing_rounds(100, 10, 1024), 100.0);
  // Partial chunk rounds up.
  EXPECT_DOUBLE_EQ(cluster_routing_rounds(101, 10, 1024), 110.0);
  // Zero load is free.
  EXPECT_DOUBLE_EQ(cluster_routing_rounds(0, 10, 1024), 0.0);
  // Bandwidth never below 1.
  EXPECT_DOUBLE_EQ(cluster_routing_rounds(5, 0, 2), 5.0);
}

// `lenzen_rounds` charges a batch on the n-node CONGESTED CLIQUE network:
// at n = 11 the bandwidth is n-1 = 10 messages per node per round, plus 2
// protocol rounds whenever anything is sent.

TEST(CliqueNetwork, LenzenModeUsesAggregateLoads) {
  // Node 0 sends 30 messages spread over all 10 peers: max load 30 ->
  // ceil(30/10) + 2 = 5 rounds.
  EXPECT_EQ(lenzen_rounds(30, 11), 5);
}

TEST(CliqueNetwork, LenzenModeReceiveBound) {
  // All 10 peers send 4 messages each to node 0: receive load 40 ->
  // ceil(40/10) + 2 = 6 rounds.
  EXPECT_EQ(lenzen_rounds(40, 11), 6);
}

TEST(CliqueNetwork, EmptyPhaseCostsNothing) {
  EXPECT_EQ(lenzen_rounds(0, 5), 0);
  EXPECT_EQ(lenzen_rounds(0, 11), 0);
}

TEST(CliqueNetwork, RequiresTwoNodes) {
  EXPECT_THROW(lenzen_rounds(1, 1), std::invalid_argument);
  // An empty batch needs no bandwidth, so it is free at any n.
  EXPECT_EQ(lenzen_rounds(0, 1), 0);
}

TEST(CliqueNetwork, LenzenExactBandwidthMultiple) {
  // max load exactly 2·(n-1): ceil(20/10) = 2 full-bandwidth rounds + 2
  // protocol rounds — the ceil must not round 2.0 up to 3.
  EXPECT_EQ(lenzen_rounds(20, 11), 4);
}

TEST(CliqueNetwork, LenzenSingleMessagePhase) {
  // One message: ceil(1/(n-1)) = 1 round + 2 protocol rounds. The +O(1)
  // overhead is charged whenever anything is sent at all, but never for
  // an empty batch (EmptyPhaseCostsNothing).
  EXPECT_EQ(lenzen_rounds(1, 11), 3);
}

TEST(ParallelRoutingCharge, TakesMaxOverClusters) {
  ParallelRoutingCharge charge;
  charge.add_cluster(/*max_load=*/100, /*bandwidth=*/10, /*messages=*/500);
  charge.add_cluster(/*max_load=*/40, /*bandwidth=*/2, /*messages=*/100);
  RoundLedger ledger;
  const double rounds = charge.commit(ledger, "test", 1024);
  // Cluster 2 dominates: ceil(40/2)=20 > ceil(100/10)=10; ×log2(1024)=10.
  EXPECT_DOUBLE_EQ(rounds, 200.0);
  EXPECT_DOUBLE_EQ(ledger.total_rounds(), 200.0);
  EXPECT_EQ(ledger.total_messages(), 600u);
  EXPECT_EQ(charge.worst_load(), 100);
  EXPECT_DOUBLE_EQ(ledger.rounds_of_kind(CostKind::routing), 200.0);
  expect_ledger_valid(ledger);
}

TEST(ParallelRoutingCharge, EmptyCommitsNothing) {
  ParallelRoutingCharge charge;
  RoundLedger ledger;
  EXPECT_DOUBLE_EQ(charge.commit(ledger, "none", 64), 0.0);
  EXPECT_TRUE(ledger.entries().empty());
}

TEST(AssignClusterIds, DenseIdsPerCluster) {
  Cluster a;
  a.id = 0;
  a.nodes = {3, 7, 9};
  Cluster b;
  b.id = 1;
  b.nodes = {1, 4};
  RoundLedger ledger;
  const auto ids = assign_cluster_ids({a, b}, 12, ledger);
  EXPECT_EQ(ids[3], 0);
  EXPECT_EQ(ids[7], 1);
  EXPECT_EQ(ids[9], 2);
  EXPECT_EQ(ids[1], 0);
  EXPECT_EQ(ids[4], 1);
  EXPECT_EQ(ids[0], -1);
  EXPECT_EQ(ids[11], -1);
  // Lemma 2.5 polylog charge, once for all clusters in parallel.
  EXPECT_GT(ledger.total_rounds(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.rounds_of_kind(CostKind::analytic),
                   ledger.total_rounds());
}

TEST(AssignClusterIds, NoClustersNoCharge) {
  RoundLedger ledger;
  const auto ids = assign_cluster_ids({}, 5, ledger);
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_DOUBLE_EQ(ledger.total_rounds(), 0.0);
}

TEST(ResponsibleClusterIndex, CoversEveryNodeExactlyOnce) {
  // Section 2.4.3: node i ∈ [k] handles original ids in
  // [floor(i·n/k), floor((i+1)·n/k)). Every original node must map to
  // exactly one valid index, and ranges must be balanced.
  const NodeId n = 103, k = 7;
  std::vector<std::int64_t> count(static_cast<std::size_t>(k), 0);
  for (NodeId w = 0; w < n; ++w) {
    const NodeId i = responsible_cluster_index(w, n, k);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, k);
    ++count[static_cast<std::size_t>(i)];
  }
  std::int64_t total = 0;
  for (const auto c : count) {
    total += c;
    EXPECT_LE(c, (n + k - 1) / k + 1);
    EXPECT_GE(c, n / k - 1);
  }
  EXPECT_EQ(total, n);
}

TEST(ResponsibleClusterIndex, MonotoneInNode) {
  const NodeId n = 64, k = 5;
  NodeId prev = 0;
  for (NodeId w = 0; w < n; ++w) {
    const NodeId i = responsible_cluster_index(w, n, k);
    EXPECT_GE(i, prev);
    prev = i;
  }
  EXPECT_EQ(prev, k - 1);  // last range used
}

TEST(ResponsibleClusterIndex, SingleNodeCluster) {
  for (NodeId w = 0; w < 10; ++w) {
    EXPECT_EQ(responsible_cluster_index(w, 10, 1), 0);
  }
  EXPECT_THROW(responsible_cluster_index(0, 10, 0), std::invalid_argument);
}

TEST(ResponsibleClusterIndex, ClusterLargerThanGraphRanges) {
  // k > n: every node still maps into [0, k).
  for (NodeId w = 0; w < 5; ++w) {
    const NodeId i = responsible_cluster_index(w, 5, 8);
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 8);
  }
}

}  // namespace
}  // namespace dcl
