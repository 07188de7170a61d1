// The q=1 one-huge-cluster regime (ISSUE 6 tentpole): ER inputs dense
// enough to enter the iterated pipeline decompose into a SINGLE expander
// cluster, so the PR 5 cluster-level sharding had nothing to split — the
// entire step-5 tail ran on one thread. The two-level scheduler flattens
// the in-cluster representative ranges into weighted work items instead.
//
// Wall-clock speedup depends on the host's core count, so the parallelism
// evidence here is structural: the trace must show the tail splitting into
// ≥ 4 near-balanced shards while every fingerprint stays bit-identical to
// the single-threaded execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/parallel_for.h"
#include "core/kp_lister.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

namespace dcl {
namespace {

/// Restores the global shard count on scope exit so suites stay isolated.
class ScopedShardThreads {
 public:
  explicit ScopedShardThreads(int threads) : previous_(shard_threads()) {
    set_shard_threads(threads);
  }
  ~ScopedShardThreads() { set_shard_threads(previous_); }

 private:
  int previous_;
};

/// The one iterated-pipeline configuration of the bench harness: a small
/// stop_scale drives list_kp through ARB-LIST instead of the final
/// broadcast shortcut.
KpConfig iterated_config(int p) {
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = 7;
  cfg.stop_scale = 0.01;
  return cfg;
}

struct RegimeExpectations {
  NodeId n;
  std::int64_t m;
  int p;
};

void check_single_cluster_regime(const RegimeExpectations& e) {
  Rng gen(5);
  const Graph g = erdos_renyi_gnm(e.n, e.m, gen);
  const KpConfig cfg = iterated_config(e.p);

  ListingOutput out_seq(g.node_count());
  KpListResult seq;
  {
    ScopedShardThreads guard(1);
    seq = list_kp_collect(g, cfg, out_seq);
  }
  ListingOutput out_par(g.node_count());
  KpListResult par;
  {
    ScopedShardThreads guard(4);
    par = list_kp_collect(g, cfg, out_par);
  }

  // The regime itself: the pipeline entered ARB-LIST and the decomposition
  // produced exactly one cluster — the input where cluster-level sharding
  // degenerates.
  ASSERT_FALSE(par.arb_traces.size() == 0u);
  for (const auto& t : par.arb_traces) {
    EXPECT_EQ(t.clusters, 1) << "not the q=1 regime";
  }

  // Structural parallelism evidence at 4 threads: the tail split into at
  // least 4 representative-range shards whose estimated work is balanced
  // to max/mean ≤ 1.5; the shard estimates add up to the total.
  const auto& t4 = par.arb_traces.front();
  EXPECT_GE(t4.tail_work_items, 4);
  ASSERT_GE(t4.tail_shards, 4);
  ASSERT_EQ(t4.tail_shard_work.size(),
            static_cast<std::size_t>(t4.tail_shards));
  std::uint64_t total = 0;
  std::uint64_t max_work = 0;
  for (const std::uint64_t w : t4.tail_shard_work) {
    total += w;
    max_work = std::max(max_work, w);
  }
  EXPECT_EQ(total, t4.tail_est_work_total);
  const double mean = static_cast<double>(total) /
                      static_cast<double>(t4.tail_shards);
  EXPECT_LE(static_cast<double>(max_work), 1.5 * mean)
      << "max " << max_work << " vs mean " << mean;

  // The single-threaded execution runs the same sharded call with one
  // shard, which carries all the estimated work.
  const auto& t1 = seq.arb_traces.front();
  EXPECT_EQ(t1.tail_shards, 1);
  ASSERT_EQ(t1.tail_shard_work.size(), 1u);
  EXPECT_EQ(t1.tail_shard_work[0], t1.tail_est_work_total);
  EXPECT_EQ(t1.tail_est_work_total, t4.tail_est_work_total)
      << "the work estimate must not depend on the thread count";
  EXPECT_EQ(t1.tail_work_items, t4.tail_work_items)
      << "the item list must not depend on the thread count";

  // DCL_THREADS is a pure speed knob: bit-identical ledger and output.
  EXPECT_EQ(seq.total_rounds(), par.total_rounds());  // bit-exact doubles
  EXPECT_EQ(out_seq.unique_count(), out_par.unique_count());
  EXPECT_EQ(seq.total_reports, par.total_reports);
  EXPECT_EQ(out_seq.max_reports_per_node(), out_par.max_reports_per_node());
  EXPECT_EQ(out_seq.cliques().fingerprint(), out_par.cliques().fingerprint());
  EXPECT_TRUE(out_seq.cliques() == out_par.cliques());

  // And the union of outputs is still exactly the oracle's Kp set.
  EXPECT_TRUE(out_par.cliques() == CliqueSet(list_k_cliques(g, e.p)));
}

TEST(SingleClusterSharding, K4FingerprintsAndBalanceOnOneHugeCluster) {
  check_single_cluster_regime({2000, 30000, 4});
}

TEST(SingleClusterSharding, K5FingerprintsAndBalanceOnOneHugeCluster) {
  check_single_cluster_regime({800, 30000, 5});
}

}  // namespace
}  // namespace dcl
