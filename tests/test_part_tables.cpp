#include "core/part_tables.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/math_util.h"

namespace dcl {
namespace {

/// Every sorted tuple of `len` parts below q, in lexicographic order.
std::vector<std::vector<int>> sorted_tuples(int q, int len) {
  std::vector<std::vector<int>> all;
  std::vector<int> t(static_cast<std::size_t>(len), 0);
  while (true) {
    all.push_back(t);
    int i = len - 1;
    while (i >= 0 && t[static_cast<std::size_t>(i)] == q - 1) --i;
    if (i < 0) return all;
    const int next = t[static_cast<std::size_t>(i)] + 1;
    for (int j = i; j < len; ++j) t[static_cast<std::size_t>(j)] = next;
  }
}

/// The pairwise definition: `held` covers every pair {t[x], t[y]}, x < y.
bool covers_every_pair(const std::vector<int>& held,
                       const std::vector<int>& t) {
  for (std::size_t x = 0; x < t.size(); ++x) {
    for (std::size_t y = x + 1; y < t.size(); ++y) {
      if (!multiset_covers(held, t[x], t[y])) return false;
    }
  }
  return true;
}

TEST(PartTables, CoverLemmaMatchesPairwiseCoverage) {
  // The fact the one-listing dispatch rests on: a clique lies in a node's
  // local graph (the edges of every part pair its multiset covers) iff the
  // multiset covers every pair of the clique's part tuple, and
  // covers_part_tuple decides exactly that.
  for (int q = 2; q <= 5; ++q) {
    for (int p = 3; p <= 6; ++p) {
      const auto multisets = sorted_tuples(q, p);
      ASSERT_EQ(multisets.size(),
                binomial(static_cast<std::uint64_t>(q + p - 1),
                         static_cast<std::uint64_t>(p)));
      std::uint64_t covered = 0;
      for (const auto& held : multisets) {
        for (const auto& t : multisets) {
          const bool pairwise = covers_every_pair(held, t);
          ASSERT_EQ(covers_part_tuple(held, t), pairwise)
              << "q=" << q << " p=" << p;
          covered += pairwise ? 1 : 0;
        }
      }
      // Every multiset covers its own tuple, so coverage is never empty.
      EXPECT_GE(covered, multisets.size()) << "q=" << q << " p=" << p;
    }
  }
}

TEST(PartTables, CoverMemoMatchesTheDirectRule) {
  for (int q = 2; q <= 4; ++q) {
    for (int p = 3; p <= 6; ++p) {
      const auto multisets = sorted_tuples(q, p);
      PartTupleCovers covers(multisets, q, p);
      // Two passes: the first computes each tuple's list, the second reads
      // the memo; both must match the direct rule. Tuples are handed over
      // reversed, since callers pass parts in clique (unsorted) order.
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& t : multisets) {
          std::vector<std::uint32_t> expected;
          for (std::size_t r = 0; r < multisets.size(); ++r) {
            if (covers_every_pair(multisets[r], t)) {
              expected.push_back(static_cast<std::uint32_t>(r));
            }
          }
          std::vector<int> parts(t.rbegin(), t.rend());
          const auto got = covers.covering(covers.slot(parts));
          EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                    expected)
              << "q=" << q << " p=" << p << " pass " << pass;
          EXPECT_EQ(parts, t);  // sorted in place
        }
      }
    }
  }
}

TEST(PartTables, MultisetRosterMatchesPerNodeTables) {
  // part_multisets decodes at most q^p ids and weights each by its
  // congruent ids; the coverage table and per-multiset sums built from it
  // must equal the per-node definitions.
  for (const auto& [k, q, p] : std::vector<std::tuple<NodeId, int, int>>{
           {1000, 5, 4}, {81, 3, 4}, {50, 3, 4}, {200, 5, 3}, {7, 1, 3},
           {700, 2, 6}}) {
    const PartMultisets m = part_multisets(k, q, p);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < m.parts.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(m.rep[i - 1], m.rep[i]);
      }
      EXPECT_EQ(m.parts[i], part_multiset(m.rep[i], q, p));
      total += m.nodes[i];
    }
    EXPECT_EQ(total, k);

    std::vector<std::int64_t> cover(static_cast<std::size_t>(q * q), 0);
    std::vector<std::int64_t> table(static_cast<std::size_t>(q * q), 0);
    for (std::size_t idx = 0; idx < table.size(); ++idx) {
      table[idx] = static_cast<std::int64_t>(idx) * 7 + 1;
    }
    std::vector<std::int64_t> holders(m.parts.size(), 0);
    for (NodeId j = 0; j < k; ++j) {
      const std::vector<int> s = part_multiset(j, q, p);
      std::size_t at = 0;
      while (m.parts[at] != s) ++at;
      ++holders[at];
      EXPECT_LE(m.rep[at], j);  // the representative is the minimum id
      std::int64_t sum = 0;
      for (int a = 0; a < q; ++a) {
        for (int b = a; b < q; ++b) {
          if (!multiset_covers(s, a, b)) continue;
          ++cover[static_cast<std::size_t>(pair_index(a, b, q))];
          sum += table[static_cast<std::size_t>(pair_index(a, b, q))];
        }
      }
      EXPECT_EQ(covered_sum(s, table, q), sum);
    }
    EXPECT_EQ(holders, m.nodes) << "k=" << k;
    EXPECT_EQ(coverage_table(m, q), cover) << "k=" << k;
  }
}

}  // namespace
}  // namespace dcl
