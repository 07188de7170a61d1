#include "core/listing_types.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace dcl {
namespace {

TEST(ListingOutput, CountsAndDeduplicates) {
  ListingOutput out(5);
  const NodeId c1[] = {0, 1, 2};
  const NodeId c1_scrambled[] = {2, 0, 1};
  const NodeId c2[] = {1, 2, 3};
  out.report(0, c1);
  out.report(4, c1_scrambled);  // same clique from another node
  out.report(1, c2);
  EXPECT_EQ(out.unique_count(), 2u);
  EXPECT_EQ(out.total_reports(), 3u);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 1.5);
  EXPECT_EQ(out.reports_of(0), 1u);
  EXPECT_EQ(out.reports_of(4), 1u);
  EXPECT_EQ(out.reports_of(2), 0u);
  EXPECT_EQ(out.max_reports_per_node(), 1u);
}

TEST(ListingOutput, EmptyHasZeroDuplication) {
  ListingOutput out(3);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 0.0);
  EXPECT_EQ(out.unique_count(), 0u);
  EXPECT_EQ(out.max_reports_per_node(), 0u);
}

TEST(ListingOutput, CliquesAccessible) {
  ListingOutput out(4);
  const NodeId c[] = {3, 1, 0};
  out.report(2, c);
  EXPECT_TRUE(out.cliques().contains({0, 1, 3}));
  EXPECT_FALSE(out.cliques().contains({0, 1, 2}));
}

TEST(ListingOutput, UnionSemanticsUnderMaximalDuplication) {
  // The Section 1 guarantee is about the union of node outputs: if every
  // node reports the same clique, the collector must still count one
  // unique instance, with duplication factor n.
  const NodeId n = 7;
  ListingOutput out(n);
  const NodeId clique[] = {0, 2, 5};
  for (NodeId v = 0; v < n; ++v) out.report(v, clique);
  EXPECT_EQ(out.unique_count(), 1u);
  EXPECT_EQ(out.total_reports(), static_cast<std::uint64_t>(n));
  EXPECT_DOUBLE_EQ(out.duplication_factor(), static_cast<double>(n));
  EXPECT_EQ(out.max_reports_per_node(), 1u);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(out.reports_of(v), 1u);
}

TEST(ListingOutput, MaxReportsTracksRunningMaximum) {
  // max_reports_per_node is maintained at report time, not rescanned;
  // interleave reporters so the maximum moves between nodes.
  ListingOutput out(3);
  const NodeId a[] = {0, 1, 2};
  const NodeId b[] = {1, 2, 3};
  const NodeId c[] = {0, 2, 3};
  out.report(1, a);
  EXPECT_EQ(out.max_reports_per_node(), 1u);
  out.report(2, a);
  out.report(2, b);
  EXPECT_EQ(out.max_reports_per_node(), 2u);
  out.report(0, a);
  out.report(0, b);
  out.report(0, c);
  EXPECT_EQ(out.max_reports_per_node(), 3u);
  EXPECT_EQ(out.unique_count(), 3u);
  EXPECT_EQ(out.total_reports(), 6u);
}

TEST(ListingOutput, MergeFromReproducesSequentialCounters) {
  // The cluster-parallel ARB-LIST contract: splitting a report stream
  // across shard buffers and merging them in shard order must land on the
  // exact counters and clique set of the sequential execution — including
  // cross-shard duplicates and the running per-node maximum.
  const NodeId n = 6;
  const NodeId cliques[][3] = {{0, 1, 2}, {1, 2, 3}, {2, 3, 4},
                               {0, 1, 2}, {3, 4, 5}, {1, 2, 3}};
  const NodeId reporters[] = {0, 1, 1, 2, 5, 5};

  ListingOutput sequential(n);
  for (std::size_t i = 0; i < 6; ++i) {
    sequential.report(reporters[i], cliques[i]);
  }

  ListingOutput merged(n);
  ListingOutput shard_a(n), shard_b(n);
  for (std::size_t i = 0; i < 3; ++i) shard_a.report(reporters[i], cliques[i]);
  for (std::size_t i = 3; i < 6; ++i) shard_b.report(reporters[i], cliques[i]);
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);

  EXPECT_EQ(merged.unique_count(), sequential.unique_count());
  EXPECT_EQ(merged.total_reports(), sequential.total_reports());
  EXPECT_EQ(merged.max_reports_per_node(), sequential.max_reports_per_node());
  EXPECT_DOUBLE_EQ(merged.duplication_factor(),
                   sequential.duplication_factor());
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(merged.reports_of(v), sequential.reports_of(v)) << "v " << v;
  }
  EXPECT_TRUE(merged.cliques() == sequential.cliques());

  // Merging into a collector that already holds reports (the global out
  // between ARB-LIST iterations) accumulates rather than replaces.
  ListingOutput global(n);
  const NodeId pre[] = {0, 4, 5};
  global.report(3, pre);
  global.merge_from(shard_a);
  EXPECT_EQ(global.total_reports(), 4u);
  EXPECT_EQ(global.unique_count(), 4u);
  EXPECT_EQ(global.reports_of(3), 1u);
  EXPECT_EQ(global.reports_of(1), 2u);
}

TEST(ListingOutput, BatchReportMatchesPerReporterReports) {
  // report_rows moves every per-node count, the total and the running
  // maximum as one report() per (reporter, row) would, inserts each row
  // once, and skips rows without a reporter. Rows repeat cliques (also
  // permuted), and reporters repeat across rows.
  const NodeId n = 8;
  const std::vector<NodeId> rows = {0, 1, 2, 3,  //
                                    4, 5, 6, 7,  //
                                    3, 2, 1, 0,  //
                                    1, 2, 3, 4,  //
                                    2, 3, 4, 5,  //
                                    0, 1, 2, 3};
  const std::vector<std::size_t> ends = {2, 2, 5, 6, 6, 8};
  const std::vector<NodeId> reporters = {0, 7, 7, 0, 3, 7, 7, 1};

  ListingOutput per_reporter(n);
  for (std::size_t r = 0; r < ends.size(); ++r) {
    const std::span<const NodeId> row(rows.data() + 4 * r, 4);
    for (std::size_t i = r == 0 ? 0 : ends[r - 1]; i < ends[r]; ++i) {
      per_reporter.report(reporters[i], row);
    }
  }
  ListingOutput batch(n);
  batch.report_rows(rows, 4, ends, reporters);

  const auto expect_same = [&](const ListingOutput& a,
                               const ListingOutput& b) {
    EXPECT_EQ(a.total_reports(), b.total_reports());
    EXPECT_EQ(a.max_reports_per_node(), b.max_reports_per_node());
    EXPECT_EQ(a.unique_count(), b.unique_count());
    EXPECT_EQ(a.cliques().fingerprint(), b.cliques().fingerprint());
    EXPECT_TRUE(a.cliques() == b.cliques());
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(a.reports_of(v), b.reports_of(v)) << "v " << v;
    }
  };
  expect_same(batch, per_reporter);
  EXPECT_EQ(batch.total_reports(), 8u);
  EXPECT_EQ(batch.unique_count(), 2u);  // {4,5,6,7} and {2,3,4,5} unreported
  EXPECT_EQ(batch.max_reports_per_node(), 4u);

  // Shards built by report_rows merge to the sequential result.
  ListingOutput shard_a(n), shard_b(n), merged(n);
  const std::span<const NodeId> all(rows);
  shard_a.report_rows(all.first(12), 4, std::span(ends).first(3),
                      std::span(reporters).first(5));
  const std::vector<std::size_t> ends_b = {1, 1, 3};
  shard_b.report_rows(all.subspan(12), 4, ends_b,
                      std::span(reporters).subspan(5));
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);
  expect_same(merged, per_reporter);
}

TEST(KpConfigDefaults, MatchPaperStructure) {
  const KpConfig cfg;
  EXPECT_EQ(cfg.p, 4);
  EXPECT_FALSE(cfg.k4_fast);
  EXPECT_TRUE(cfg.enable_bad_edges);
  EXPECT_EQ(cfg.in_cluster_charge, InClusterChargeMode::measured);
  EXPECT_LT(cfg.stop_exponent_override, 0.0);  // derive from p by default
}

}  // namespace
}  // namespace dcl
