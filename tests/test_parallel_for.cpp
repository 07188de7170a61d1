// Sharded per-node execution: the decomposition contract of
// common/parallel_for.h, and the end-to-end guarantee the ISSUE of record
// cares about — DCL_THREADS=k must leave ledger fingerprints and clique
// outputs bit-identical to the single-threaded reference execution.
#include "common/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/kp_lister.h"
#include "core/sparse_cc.h"
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

TEST(ParallelForShards, SingleShardRunsInline) {
  ScopedShardThreads guard(1);
  std::vector<std::int64_t> seen;
  parallel_for_shards(10, [&](int shard, std::int64_t lo, std::int64_t hi) {
    EXPECT_EQ(shard, 0);
    for (std::int64_t i = lo; i < hi; ++i) seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 10u);
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(ParallelForShards, ShardsAreContiguousOrderedAndCoverTheRange) {
  ScopedShardThreads guard(4);
  for (const std::int64_t n : {0, 1, 3, 4, 5, 17, 100}) {
    std::mutex mu;
    std::vector<std::array<std::int64_t, 3>> ranges;
    parallel_for_shards(n, [&](int shard, std::int64_t lo, std::int64_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      ranges.push_back({shard, lo, hi});
    });
    std::sort(ranges.begin(), ranges.end());
    const auto shards = static_cast<std::int64_t>(ranges.size());
    EXPECT_EQ(shards, std::min<std::int64_t>(4, n)) << "n=" << n;
    std::int64_t next = 0;
    for (const auto& [shard, lo, hi] : ranges) {
      EXPECT_EQ(lo, next) << "n=" << n;   // contiguous, in shard order
      EXPECT_LT(lo, hi) << "n=" << n;     // no empty shards
      next = hi;
    }
    EXPECT_EQ(next, n) << "n=" << n;      // full coverage
  }
}

TEST(ParallelForShards, ShardBoundariesAreBalanced) {
  ScopedShardThreads guard(3);
  // 10 = 3·3 + 1: the remainder goes to the leading shards.
  std::mutex mu;
  std::vector<std::int64_t> sizes(3, 0);
  parallel_for_shards(10, [&](int shard, std::int64_t lo, std::int64_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    sizes[static_cast<std::size_t>(shard)] = hi - lo;
  });
  EXPECT_EQ(sizes[0], 4);
  EXPECT_EQ(sizes[1], 3);
  EXPECT_EQ(sizes[2], 3);
}

TEST(ParallelForShards, DisjointSlotWritesNeedNoLocking) {
  ScopedShardThreads guard(4);
  const std::int64_t n = 10000;
  std::vector<std::int64_t> out(static_cast<std::size_t>(n), 0);
  parallel_for_shards(n, [&](int, std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      out[static_cast<std::size_t>(i)] = 3 * i + 1;
    }
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], 3 * i + 1);
  }
}

TEST(ParallelForShards, FirstExceptionPropagates) {
  ScopedShardThreads guard(4);
  std::atomic<int> completed{0};
  try {
    parallel_for_shards(4, [&](int shard, std::int64_t, std::int64_t) {
      if (shard == 2) throw std::runtime_error("shard failure");
      completed.fetch_add(1);
    });
    FAIL() << "expected the shard exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard failure");
  }
  // The pool must stay usable after an exception.
  std::atomic<std::int64_t> sum{0};
  parallel_for_shards(100, [&](int, std::int64_t lo, std::int64_t hi) {
    std::int64_t local = 0;
    for (std::int64_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 4950);
}

// ---- Shard-order audit ----------------------------------------------------
//
// DCL_SHARD_AUDIT turns the "order-independent merge" comment into an
// executable check: multi-shard regions run sequentially in a permuted
// order, so any body that observes another shard's writes diverges from
// the shard-order result deterministically.

/// Restores the audit mode on scope exit so suites stay isolated.
class ScopedShardAudit {
 public:
  explicit ScopedShardAudit(ShardAudit mode) : previous_(shard_audit()) {
    set_shard_audit(mode);
  }
  ~ScopedShardAudit() { set_shard_audit(previous_); }

 private:
  ShardAudit previous_;
};

TEST(ShardAudit, ReverseModeRunsShardsSequentiallyInReverse) {
  ScopedShardThreads guard(4);
  ScopedShardAudit audit(ShardAudit::reverse);
  std::vector<int> order;  // no mutex needed: audit mode is sequential
  parallel_for_shards(8, [&](int shard, std::int64_t, std::int64_t) {
    order.push_back(shard);
  });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(ShardAudit, RandomModePermutesButCoversEveryShardExactlyOnce) {
  ScopedShardThreads guard(8);
  ScopedShardAudit audit(ShardAudit::random);
  // Across several regions the seeded permutations cannot all be the
  // identity (probability (1/8!)^4 for a uniform stream; the stream is
  // deterministic, so this either always passes or always fails).
  bool saw_non_identity = false;
  for (int region = 0; region < 4; ++region) {
    std::vector<int> order;
    parallel_for_shards(64, [&](int shard, std::int64_t, std::int64_t) {
      order.push_back(shard);
    });
    ASSERT_EQ(order.size(), 8u);
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    if (!std::is_sorted(order.begin(), order.end())) saw_non_identity = true;
  }
  EXPECT_TRUE(saw_non_identity);
}

TEST(ShardAudit, ContractCompliantBodiesAreAuditInvariant) {
  // Per-shard buffers merged in shard order: the audit permutation must be
  // unobservable in the merged result.
  ScopedShardThreads guard(4);
  const std::int64_t n = 1000;
  const auto run = [&] {
    std::vector<std::vector<std::int64_t>> per_shard(4);
    parallel_for_shards(n, [&](int shard, std::int64_t lo, std::int64_t hi) {
      for (std::int64_t i = lo; i < hi; ++i) {
        per_shard[static_cast<std::size_t>(shard)].push_back(i * i);
      }
    });
    std::vector<std::int64_t> merged;
    for (const auto& buf : per_shard) {
      merged.insert(merged.end(), buf.begin(), buf.end());
    }
    return merged;
  };
  const std::vector<std::int64_t> reference = run();
  for (const ShardAudit mode : {ShardAudit::random, ShardAudit::reverse}) {
    ScopedShardAudit audit(mode);
    EXPECT_EQ(run(), reference);
  }
}

TEST(ShardAudit, OrderDependentBodyIsCaughtByReverseExecution) {
  // The violation class the audit exists for: a body that folds into
  // shared state non-commutatively observes the execution order. Under
  // reverse audit the folded value must differ from the shard-order
  // value, which is exactly how the suites' fingerprint assertions would
  // catch a real contract breach.
  ScopedShardThreads guard(4);
  const auto fold = [&] {
    std::int64_t acc = 0;
    std::mutex mu;
    parallel_for_shards(4, [&](int shard, std::int64_t, std::int64_t) {
      std::lock_guard<std::mutex> lock(mu);
      acc = acc * 10 + shard;  // order-dependent on purpose
    });
    return acc;
  };
  ScopedShardAudit audit(ShardAudit::reverse);
  const std::int64_t reversed = fold();
  EXPECT_EQ(reversed, 3210);  // shards folded 3,2,1,0
  EXPECT_NE(reversed, 123);   // != the shard-order fold 0,1,2,3
}

TEST(ShardAudit, WeightedShardsHonorAuditMode) {
  ScopedShardThreads guard(4);
  ScopedShardAudit audit(ShardAudit::reverse);
  std::vector<std::uint64_t> weights(32, 1);
  std::vector<int> order;
  parallel_for_weighted_shards(
      weights, [&](int shard, std::int64_t, std::int64_t) {
        order.push_back(shard);
      });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
}

TEST(ShardAudit, ExceptionsStillPropagateUnderAudit) {
  ScopedShardThreads guard(4);
  ScopedShardAudit audit(ShardAudit::random);
  EXPECT_THROW(
      parallel_for_shards(4,
                          [&](int shard, std::int64_t, std::int64_t) {
                            if (shard == 1) {
                              throw std::runtime_error("audit failure");
                            }
                          }),
      std::runtime_error);
}

// ---- Determinism under threads -------------------------------------------
//
// The whole point of the sharded helper: the round ledger carries the
// paper's Õ(n^{p/(p+2)}) claims, so DCL_THREADS=k must be a pure speed
// knob. Run the two pipelines that use sharded loops end to end with 1 and
// 4 shards and require bit-identical ledgers and clique sets.

TEST(DeterminismUnderThreads, ListKpFingerprintsAreBitIdentical) {
  Rng rng(12);
  const Graph g = erdos_renyi_gnm(90, 1400, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 7;
  cfg.stop_scale = 0.1;  // exercise the iterated arb_list pipeline

  set_shard_threads(1);
  ListingOutput out_seq(g.node_count());
  const KpListResult seq = list_kp_collect(g, cfg, out_seq);

  // Shard counts off, at, and past the cluster counts the decomposition
  // produces: the cluster-parallel ARB-LIST tail must merge its per-shard
  // listing buffers and routing charges onto the sequential fingerprints
  // at every width (including shards > clusters, where trailing shards
  // stay empty).
  for (const int threads : {2, 3, 4, 8}) {
    ListingOutput out_par(g.node_count());
    KpListResult par;
    {
      ScopedShardThreads guard(threads);
      par = list_kp_collect(g, cfg, out_par);
    }
    EXPECT_EQ(seq.total_rounds(), par.total_rounds())
        << "threads " << threads;  // bit-exact doubles
    EXPECT_EQ(out_seq.unique_count(), out_par.unique_count())
        << "threads " << threads;
    EXPECT_EQ(seq.total_reports, par.total_reports) << "threads " << threads;
    EXPECT_EQ(out_seq.max_reports_per_node(), out_par.max_reports_per_node())
        << "threads " << threads;
    EXPECT_TRUE(out_seq.cliques() == out_par.cliques())
        << "threads " << threads;
  }
}

TEST(DeterminismUnderThreads, SparseCcFingerprintsAreBitIdentical) {
  // Unpadded p = 3, and p = 4 with 2 573 fake edges that add load but
  // must never be listed. Every node's report count, not only the totals,
  // must match between 1 and 4 shards.
  struct Case {
    NodeId n;
    std::int64_t m;
    int p;
    double pad_factor;
  };
  for (const Case& c : {Case{160, 2600, 3, 0.0}, Case{120, 2400, 4, 2.0}}) {
    Rng rng(13);
    const Graph g = erdos_renyi_gnm(c.n, c.m, rng);
    SparseCcConfig cfg;
    cfg.p = c.p;
    cfg.seed = 5;
    cfg.pad_factor = c.pad_factor;

    set_shard_threads(1);
    ListingOutput out_seq(g.node_count());
    const SparseCcResult seq = sparse_cc_list(g, cfg, out_seq);

    ListingOutput out_par(g.node_count());
    SparseCcResult par;
    {
      ScopedShardThreads guard(4);
      par = sparse_cc_list(g, cfg, out_par);
    }

    EXPECT_EQ(seq.fake_edges, par.fake_edges);
    EXPECT_EQ(seq.fake_edges, c.pad_factor > 0 ? 2573 : 0) << "p=" << c.p;
    EXPECT_EQ(seq.total_rounds(), par.total_rounds());
    EXPECT_EQ(seq.ledger.total_messages(), par.ledger.total_messages());
    EXPECT_EQ(out_seq.unique_count(), out_par.unique_count());
    EXPECT_GT(out_seq.unique_count(), 0u) << "p=" << c.p;
    EXPECT_EQ(seq.total_reports, par.total_reports);
    EXPECT_EQ(seq.max_recv_load, par.max_recv_load);
    EXPECT_EQ(seq.max_pair_bucket, par.max_pair_bucket);
    EXPECT_EQ(out_seq.max_reports_per_node(), out_par.max_reports_per_node());
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ASSERT_EQ(out_seq.reports_of(v), out_par.reports_of(v))
          << "p=" << c.p << " node " << v;
    }
    EXPECT_TRUE(out_seq.cliques() == out_par.cliques());
    EXPECT_EQ(out_seq.cliques().fingerprint(), out_par.cliques().fingerprint());
  }
}

// ---- Weighted-item sharding -------------------------------------------------

TEST(WeightedShards, BoundsAreContiguousCoverEveryItemAndAreDeterministic) {
  const std::vector<std::uint64_t> weights = {5, 1, 1, 1, 8, 2, 2, 4};
  const auto bounds = weighted_shard_bounds(weights, 3);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds.front(), 0);
  EXPECT_EQ(bounds.back(), static_cast<std::int64_t>(weights.size()));
  for (std::size_t s = 1; s < bounds.size(); ++s) {
    EXPECT_LE(bounds[s - 1], bounds[s]);
  }
  // Pure function of (weights, shards): a second call is identical.
  EXPECT_EQ(weighted_shard_bounds(weights, 3), bounds);
}

TEST(WeightedShards, FloorThenTopUpQuotasBalanceSkewedWeights) {
  // One dominant item plus a tail of small ones: the allocator must not
  // hand the dominant shard any of the tail beyond its quota.
  std::vector<std::uint64_t> weights = {100};
  for (int i = 0; i < 100; ++i) weights.push_back(1);
  const int shards = 4;
  const auto bounds = weighted_shard_bounds(weights, shards);
  const std::uint64_t total = weighted_total(weights);  // 200
  double max_work = 0;
  for (int s = 0; s < shards; ++s) {
    std::uint64_t w = 0;
    for (std::int64_t i = bounds[static_cast<std::size_t>(s)];
         i < bounds[static_cast<std::size_t>(s) + 1]; ++i) {
      w += weights[static_cast<std::size_t>(i)];
    }
    max_work = std::max(max_work, static_cast<double>(w));
  }
  const double mean = static_cast<double>(total) / shards;
  // The indivisible 100-unit item caps achievable balance at 2x mean; the
  // tail must split at quota boundaries, keeping every other shard ≤ mean+1.
  EXPECT_LE(max_work, 2.0 * mean + 1.0);
}

TEST(WeightedShards, WeightArithmeticIs64BitEndToEnd) {
  // Four items of 2^31 each: a 32-bit accumulator would wrap to 0 total
  // and collapse every boundary. 64-bit sums split them two-and-two.
  const std::uint64_t big = std::uint64_t{1} << 31;
  const std::vector<std::uint64_t> weights = {big, big, big, big};
  EXPECT_EQ(weighted_total(weights), std::uint64_t{1} << 33);
  const auto bounds = weighted_shard_bounds(weights, 2);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[1], 2);
  EXPECT_EQ(bounds[2], 4);
}

TEST(WeightedShards, MinGrainForcesSequentialFastPath) {
  ScopedShardThreads guard(4);
  // Total estimated work (10) below the grain: exactly one inline body
  // invocation covering every item, shard index 0.
  const std::vector<std::uint64_t> weights = {4, 3, 2, 1};
  int invocations = 0;
  parallel_for_weighted_shards(
      weights,
      [&](int shard, std::int64_t lo, std::int64_t hi) {
        ++invocations;
        EXPECT_EQ(shard, 0);
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 4);
      },
      /*min_grain_weight=*/1000);
  EXPECT_EQ(invocations, 1);
  EXPECT_EQ(weighted_shard_count(10, 4, 1000), 1);
}

TEST(WeightedShards, EveryItemRunsExactlyOnceUnderParallelExecution) {
  ScopedShardThreads guard(4);
  std::vector<std::uint64_t> weights(64);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1 + (i * 7) % 13;
  }
  std::vector<std::atomic<int>> hits(weights.size());
  parallel_for_weighted_shards(
      weights, [&](int, std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          hits[static_cast<std::size_t>(i)].fetch_add(1);
        }
      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace dcl
