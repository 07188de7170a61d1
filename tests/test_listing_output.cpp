#include "core/listing_types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "baselines/baselines.h"
#include "common/rng.h"
#include "core/kp_lister.h"
#include "core/part_tables.h"
#include "core/sparse_cc.h"
#include "graph/generators.h"
#include "graph/workloads.h"
#include "test_util.h"

namespace dcl {
namespace {

/// The collector's unique count, view and fingerprint against a
/// `std::set` oracle and a set built from the reported cliques.
void expect_matches(const ListingOutput& out,
                    const std::vector<Clique>& reported) {
  std::set<Clique> oracle;
  for (Clique c : reported) {
    std::sort(c.begin(), c.end());
    oracle.insert(std::move(c));
  }
  const CliqueSet expected(reported);
  EXPECT_EQ(out.unique_count(), oracle.size());
  EXPECT_TRUE(out.cliques() == expected);
  EXPECT_EQ(out.cliques().fingerprint(), expected.fingerprint());
  auto listed = out.cliques().to_vector();
  std::sort(listed.begin(), listed.end());
  EXPECT_TRUE(std::equal(listed.begin(), listed.end(), oracle.begin(),
                         oracle.end()));
}

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
  EXPECT_TRUE(out.cliques().contains(Clique{0, 1, 3}));
  EXPECT_FALSE(out.cliques().contains(Clique{0, 1, 2}));
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

/// Every report counter of two collectors, and their clique sets, agree.
/// (Row counts differ by design: a batch appends a row once, however many
/// reporters it has.)
void expect_same(const ListingOutput& a, const ListingOutput& b, NodeId n) {
  EXPECT_EQ(a.total_reports(), b.total_reports());
  EXPECT_EQ(a.max_reports_per_node(), b.max_reports_per_node());
  EXPECT_EQ(a.unique_count(), b.unique_count());
  EXPECT_EQ(a.cliques().fingerprint(), b.cliques().fingerprint());
  EXPECT_TRUE(a.cliques() == b.cliques());
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(a.reports_of(v), b.reports_of(v)) << "v " << v;
  }
}

TEST(ListingOutput, BatchReportMatchesPerReporterReports) {
  // report_rows appends each row once and moves every per-node count, the
  // total and the running maximum as one report() per credited report
  // would. Rows repeat cliques (also permuted), and a reporter may hold
  // several credits of one batch.
  const NodeId n = 8;
  const std::vector<NodeId> rows = {0, 1, 2, 3,  //
                                    3, 2, 1, 0,  //
                                    1, 2, 3, 4,  //
                                    0, 1, 2, 3};
  // Row 0 by {0, 7}, row 1 by {7, 0, 3}, row 2 by {7}, row 3 by {7, 1}.
  const std::vector<ListingOutput::Credit> credits = {
      {0, 2}, {7, 3}, {3, 1}, {7, 1}, {1, 1}};

  ListingOutput per_reporter(n);
  const std::vector<std::vector<NodeId>> reporters_of = {
      {0, 7}, {7, 0, 3}, {7}, {7, 1}};
  for (std::size_t r = 0; r < reporters_of.size(); ++r) {
    const std::span<const NodeId> row(rows.data() + 4 * r, 4);
    for (const NodeId v : reporters_of[r]) per_reporter.report(v, row);
  }
  ListingOutput batch(n);
  batch.report_rows(rows, 4, credits);

  expect_same(batch, per_reporter, n);
  EXPECT_EQ(batch.total_reports(), 8u);
  EXPECT_EQ(batch.row_count(), 4u);
  EXPECT_EQ(batch.unique_count(), 2u);
  EXPECT_EQ(batch.max_reports_per_node(), 4u);

  // Shards built by report_rows merge to the sequential result.
  ListingOutput shard_a(n), shard_b(n), merged(n);
  const std::span<const NodeId> all(rows);
  shard_a.report_rows(all.first(8), 4, std::span(credits).first(3));
  shard_b.report_rows(all.subspan(8), 4, std::span(credits).subspan(3));
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);
  expect_same(merged, per_reporter, n);
  EXPECT_EQ(merged.row_count(), 4u);

  // A batch with rows and no credits appends; one with credits and no rows
  // only counts.
  ListingOutput split(n);
  split.report_rows(rows, 4, {});
  split.report_rows({}, 4, credits);
  expect_same(split, per_reporter, n);
  EXPECT_EQ(split.row_count(), 4u);
}

TEST(ListingOutput, PartTupleCreditsMatchPerReporterReports) {
  // PartTupleCovers::report_rows credits each covering representative once
  // per part tuple. That must leave the collector exactly where one
  // report() per (covering representative, row) leaves it, with rows
  // rewritten through the compact-to-global map and rows no multiset
  // covers dropped. The roster leaves out every multiset holding part 0
  // twice, so tuples with 0 three times have no cover.
  Rng rng(41);
  for (const auto& [q, p] : std::vector<std::pair<int, int>>{
           {3, 3}, {3, 4}, {2, 5}, {4, 4}, {2, 6}}) {
    SCOPED_TRACE(testing::Message() << "q=" << q << " p=" << p);
    const NodeId k = 90;  // compact ids
    const NodeId n = 300;  // global ids and reporters
    std::vector<int> part(static_cast<std::size_t>(k));
    for (auto& a : part) {
      a = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q)));
    }
    std::vector<NodeId> to_global(static_cast<std::size_t>(k));
    for (NodeId c = 0; c < k; ++c) {
      to_global[static_cast<std::size_t>(c)] = 3 * c + 1;
    }
    std::vector<std::vector<int>> roster;
    std::vector<NodeId> reporter;
    const PartMultisets m = part_multisets(to_node(ipow(q, p)), q, p);
    for (std::size_t i = 0; i < m.parts.size(); ++i) {
      if (std::count(m.parts[i].begin(), m.parts[i].end(), 0) >= 2) continue;
      roster.push_back(m.parts[i]);
      reporter.push_back(to_node(rng.next_below(static_cast<std::uint64_t>(n))));
    }
    std::vector<NodeId> flat;
    for (int r = 0; r < 600; ++r) {
      const Clique c = random_clique(rng, static_cast<std::size_t>(p), k);
      flat.insert(flat.end(), c.begin(), c.end());
    }

    // Reference: one report() per (covering representative, row).
    ListingOutput reference(n);
    std::uint64_t covered_rows = 0;
    std::size_t dropped = 0;
    const auto report_each = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t at = lo; at < hi; at += static_cast<std::size_t>(p)) {
        std::vector<int> tuple;
        Clique global;
        for (std::size_t i = 0; i < static_cast<std::size_t>(p); ++i) {
          const auto c = static_cast<std::size_t>(flat[at + i]);
          tuple.push_back(part[c]);
          global.push_back(to_global[c]);
        }
        std::sort(tuple.begin(), tuple.end());
        bool covered = false;
        for (std::size_t r = 0; r < roster.size(); ++r) {
          if (!covers_part_tuple(roster[r], tuple)) continue;
          reference.report(reporter[r], global);
          covered = true;
        }
        covered_rows += covered ? 1 : 0;
        dropped += covered ? 0 : 1;
      }
    };
    report_each(0, flat.size());
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(reference.row_count(), 0u);

    // One batch.
    PartTupleCovers covers(roster, q, p);
    ListingOutput batch(n);
    std::vector<NodeId> rows = flat;
    EXPECT_EQ(covers.report_rows(rows, part, to_global, reporter, batch),
              reference.total_reports());
    expect_same(batch, reference, n);
    EXPECT_EQ(batch.row_count(), covered_rows);

    // Two shards, one memo: the second run starts from clean hit counts.
    const std::size_t half = flat.size() / 2 / static_cast<std::size_t>(p) *
                             static_cast<std::size_t>(p);
    ListingOutput shard_a(n), shard_b(n), merged(n);
    std::vector<NodeId> rows_a(flat.begin(), flat.begin() + half);
    std::vector<NodeId> rows_b(flat.begin() + half, flat.end());
    covers.report_rows(rows_a, part, to_global, reporter, shard_a);
    covers.report_rows(rows_b, part, to_global, reporter, shard_b);
    merged.merge_from(shard_a);
    merged.merge_from(shard_b);
    expect_same(merged, reference, n);
    EXPECT_EQ(merged.row_count(), covered_rows);

    // An empty `to_global` keeps the ids.
    ListingOutput same_ids(n);
    ListingOutput same_ids_reference(n);
    std::vector<NodeId> identity(to_global.size());
    for (NodeId c = 0; c < k; ++c) identity[static_cast<std::size_t>(c)] = c;
    rows = flat;
    PartTupleCovers(roster, q, p).report_rows(rows, part, identity, reporter,
                                              same_ids_reference);
    rows = flat;
    covers.report_rows(rows, part, {}, reporter, same_ids);
    expect_same(same_ids, same_ids_reference, n);
    EXPECT_EQ(same_ids.row_count(), covered_rows);
  }
}

TEST(ListingOutput, ArenaMatchesPerCliqueInserts) {
  // The arena and its view must hold exactly the set of the kept rows.
  // Widths 1-8 hash as one fixed-width key and 9 does not; a small
  // universe repeats cliques across batches, and
  // every fifth row repeats the row three back, permuted, inside the same
  // batch. Every seventh row is left out of its batch.
  Rng rng(29);
  const NodeId n = 40;
  for (std::size_t width = 1; width <= 9; ++width) {
    const std::size_t rows = 3000 + 17 * width;
    std::vector<NodeId> flat;
    for (std::size_t r = 0; r < rows; ++r) {
      Clique c = r % 5 == 4 ? Clique(flat.end() - 3 * width,
                                     flat.end() - 2 * width)
                            : random_clique(rng, width, n);
      rng.shuffle(c);
      flat.insert(flat.end(), c.begin(), c.end());
    }
    const auto row = [&](std::size_t r) {
      return std::span<const NodeId>(flat).subspan(r * width, width);
    };
    const auto kept = [](std::size_t r) { return r % 7 != 3; };
    // Reports the kept rows of [lo, hi) as one report_rows batch; a kept
    // row is reported by node r mod n and, every other row, by one more
    // node.
    const auto report_batch = [&](ListingOutput& out, std::size_t lo,
                                  std::size_t hi) {
      std::vector<NodeId> kept_rows;
      std::vector<ListingOutput::Credit> credits;
      for (std::size_t r = lo; r < hi; ++r) {
        if (!kept(r)) continue;
        kept_rows.insert(kept_rows.end(), row(r).begin(), row(r).end());
        credits.push_back({static_cast<NodeId>(r % n), 1});
        if (r % 2 == 0) credits.push_back({static_cast<NodeId>(r * 7 % n), 1});
      }
      out.report_rows(kept_rows, width, credits);
    };
    const auto per_clique = [&](std::size_t lo, std::size_t hi,
                                std::vector<Clique>& reported) {
      for (std::size_t r = lo; r < hi; ++r) {
        if (kept(r)) reported.emplace_back(row(r).begin(), row(r).end());
      }
    };

    ListingOutput batched(n);
    for (std::size_t lo = 0; lo < rows; lo += 500) {
      report_batch(batched, lo, std::min(rows, lo + 500));
    }
    std::vector<Clique> expected;
    per_clique(0, rows, expected);
    SCOPED_TRACE(testing::Message() << "width " << width);
    expect_matches(batched, expected);
    EXPECT_GT(batched.row_count(), batched.unique_count());

    // Shards whose row ranges overlap, merged into a collector that
    // already holds every third row.
    ListingOutput merged(n);
    std::vector<Clique> union_expected;
    for (std::size_t r = 0; r < rows; r += 3) {
      merged.report(static_cast<NodeId>(r % n), row(r));
      union_expected.emplace_back(row(r).begin(), row(r).end());
    }
    ListingOutput shard_a(n), shard_b(n);
    report_batch(shard_a, 0, 2 * rows / 3);
    report_batch(shard_b, rows / 3, rows);
    merged.merge_from(shard_a);
    merged.merge_from(shard_b);
    per_clique(0, rows, union_expected);
    expect_matches(merged, union_expected);
    EXPECT_EQ(merged.row_count(),
              (rows + 2) / 3 + shard_a.row_count() + shard_b.row_count());
    EXPECT_EQ(merged.total_reports(), (rows + 2) / 3 +
                                          shard_a.total_reports() +
                                          shard_b.total_reports());
  }
}

TEST(ListingOutput, MixedWidthsStayExact) {
  // Rows of several widths share one arena and stay exact, in a collector
  // and across a merge.
  ListingOutput out(6);
  const NodeId tri[] = {2, 0, 1};
  const NodeId k4[] = {3, 1, 0, 2};
  const NodeId tri_again[] = {1, 2, 0};
  out.report(0, tri);
  out.report(1, k4);
  out.report(2, tri_again);
  out.report(3, k4);
  ListingOutput shard(6);
  const NodeId k4_other[] = {5, 4, 3, 2};
  shard.report(4, k4_other);
  shard.report(5, k4);
  out.merge_from(shard);
  expect_matches(out, {Clique(std::begin(tri), std::end(tri)),
                       Clique(std::begin(k4), std::end(k4)),
                       Clique(std::begin(k4_other), std::end(k4_other))});
  EXPECT_EQ(out.row_count(), 6u);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 2.0);
}

TEST(ListingOutput, ListersHandEachCliqueOverOnce) {
  // General-mode ARB-LIST (clusters are vertex-disjoint, each covered
  // clique goes to the output once per cluster, goal edges leave after
  // their iteration) and the CONGESTED-CLIQUE lister never append one
  // clique twice, so their row count is their unique count.
  Rng gen(3);
  std::vector<Graph> inputs;
  inputs.push_back(erdos_renyi_gnm(120, 2400, gen));
  inputs.push_back(ring_of_cliques_workload(96, gen, 4));
  inputs.push_back(planted_clique(100, 12, 0.12, gen).graph);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Graph& g = inputs[i];
    for (const int p : {3, 4, 5, 6}) {
      for (const double stop_scale : {1.0, 0.1}) {
        KpConfig cfg;
        cfg.p = p;
        cfg.stop_scale = stop_scale;
        ListingOutput out(g.node_count());
        list_kp_collect(g, cfg, out);
        SCOPED_TRACE(testing::Message() << "input " << i << " p=" << p
                                        << " stop_scale " << stop_scale);
        EXPECT_EQ(out.row_count(), out.unique_count());
        EXPECT_EQ(out.unique_count(), count_k_cliques(g, p));
      }
    }
    for (const int p : {3, 4}) {
      SparseCcConfig cfg;
      cfg.p = p;
      ListingOutput out(g.node_count());
      sparse_cc_list(g, cfg, out);
      EXPECT_EQ(out.row_count(), out.unique_count()) << "sparse_cc p=" << p;
      EXPECT_EQ(out.unique_count(), count_k_cliques(g, p));
    }
  }
}

TEST(ListingOutput, DuplicatingBaselineTakesTheExactPath) {
  // In the oblivious CONGESTED-CLIQUE baseline every node owning a part
  // tuple that covers a clique reports it, so reports repeat; the one
  // listing still appends each clique once, and the view matches the
  // oracle.
  Rng gen(5);
  const Graph g = erdos_renyi_gnm(60, 500, gen);
  ListingOutput out(g.node_count());
  oblivious_cc_list(g, 4, out);
  EXPECT_EQ(out.row_count(), out.unique_count());
  EXPECT_LT(out.unique_count(), out.total_reports());
  expect_matches(out, list_k_cliques(g, 4));
}

TEST(KpConfigDefaults, MatchPaperStructure) {
  const KpConfig cfg;
  EXPECT_EQ(cfg.p, 4);
  EXPECT_FALSE(cfg.k4_fast);
  EXPECT_TRUE(cfg.enable_bad_edges);
  EXPECT_EQ(cfg.in_cluster_charge, InClusterChargeMode::measured);
}

}  // namespace
}  // namespace dcl
