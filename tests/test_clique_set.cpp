// Packed CliqueSet vs a std::set<vector> oracle under duplicate and
// permuted-order inserts, across widths that cross the packed/overflow
// boundary (kPackedMax = 8) and table growth.
#include "enumeration/clique_enumeration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/rng.h"
#include "test_util.h"

namespace dcl {
namespace {

Clique shuffled(Clique c, Rng& rng) {
  for (std::size_t i = c.size(); i > 1; --i) {
    std::swap(c[i - 1], c[static_cast<std::size_t>(rng.next_below(i))]);
  }
  return c;
}

TEST(CliqueSetPacked, RandomizedAgainstSetOracle) {
  Rng rng(1);
  CliqueSet set;
  std::set<Clique> oracle;
  for (int op = 0; op < 5000; ++op) {
    // Sizes 1..10 cross the packed/overflow boundary; a small universe
    // forces frequent duplicates.
    const std::size_t size = 1 + rng.next_below(10);
    Clique c = random_clique(rng, size, 24);
    const Clique permuted = shuffled(c, rng);
    const bool fresh_expected = oracle.insert(c).second;
    EXPECT_EQ(set.insert(permuted), fresh_expected) << "op " << op;
    EXPECT_EQ(set.size(), oracle.size());
  }
  // Every oracle element is found (again under permutation), and
  // to_vector() round-trips the exact same set.
  for (const Clique& c : oracle) {
    EXPECT_TRUE(set.contains(shuffled(c, rng)));
  }
  auto listed = set.to_vector();
  std::sort(listed.begin(), listed.end());
  EXPECT_TRUE(std::equal(listed.begin(), listed.end(), oracle.begin(),
                         oracle.end()));
}

TEST(CliqueSetPacked, GrowthKeepsAllElements) {
  // Push well past several doublings of the initial table.
  CliqueSet set;
  constexpr NodeId kCount = 20000;
  for (NodeId i = 0; i < kCount; ++i) {
    EXPECT_TRUE(set.insert({i, i + 100000, i + 200000}));
  }
  EXPECT_EQ(set.size(), static_cast<std::size_t>(kCount));
  for (NodeId i = 0; i < kCount; ++i) {
    // Membership probes in reversed vertex order.
    EXPECT_TRUE(set.contains({i + 200000, i + 100000, i}));
  }
  EXPECT_FALSE(set.contains({kCount, kCount + 100000, kCount + 200000}));
}

TEST(CliqueSetPacked, FingerprintIsOrderIndependent) {
  Rng rng(4);
  std::vector<Clique> cliques;
  for (int i = 0; i < 300; ++i) {
    cliques.push_back(random_clique(rng, 1 + rng.next_below(9), 64));
  }
  CliqueSet forward, backward;
  for (const auto& c : cliques) forward.insert(c);
  for (auto it = cliques.rbegin(); it != cliques.rend(); ++it) {
    backward.insert(shuffled(*it, rng));
  }
  EXPECT_EQ(forward.fingerprint(), backward.fingerprint());

  // The empty set's fingerprint is 0 (the value ListingOutput and the
  // fingerprint_fold32 pins start from), and one extra clique moves it.
  EXPECT_EQ(CliqueSet{}.fingerprint(), 0u);
  const std::uint64_t fp = forward.fingerprint();
  forward.insert({901, 902, 903});
  EXPECT_NE(forward.fingerprint(), fp);
}

TEST(CliqueSetPacked, ReservePreservesContentsAndAbsorbsInserts) {
  CliqueSet set;
  for (NodeId i = 0; i < 100; ++i) set.insert({i, i + 1000});
  const std::uint64_t fp = set.fingerprint();
  set.reserve(50000);
  EXPECT_EQ(set.size(), 100u);
  EXPECT_EQ(set.fingerprint(), fp);
  for (NodeId i = 0; i < 100; ++i) {
    EXPECT_TRUE(set.contains({i, i + 1000}));
  }
  for (NodeId i = 100; i < 40000; ++i) set.insert({i, i + 1000});
  EXPECT_EQ(set.size(), 40000u);
  EXPECT_TRUE(set.contains({39999, 40999}));
}

TEST(CliqueSetPacked, DifferenceAndEqualityAcrossRepresentations) {
  // Same logical set built in different insert orders (and with
  // duplicates) must compare equal; difference must be exact.
  Rng rng(2);
  std::vector<Clique> cliques;
  for (int i = 0; i < 200; ++i) {
    cliques.push_back(random_clique(rng, 1 + rng.next_below(9), 64));
  }
  CliqueSet forward, backward;
  for (const auto& c : cliques) forward.insert(shuffled(c, rng));
  for (auto it = cliques.rbegin(); it != cliques.rend(); ++it) {
    backward.insert(*it);
    backward.insert(shuffled(*it, rng));  // duplicate, permuted
  }
  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward.difference(backward).empty());

  backward.insert({1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008});
  EXPECT_FALSE(forward == backward);
  const auto extra = backward.difference(forward);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0].size(), 9u);
  EXPECT_TRUE(forward.difference(backward).empty());
}

TEST(CliqueSetPacked, RobinHoodBoundsDisplacementUnderBulkInserts) {
  // Robin-hood placement bounds probe distances no matter the insert
  // order. Plain linear probing degenerates under hash-ordered inserts
  // (exactly what shard-buffer merges produce: for_each_span walks the
  // source table in slot ≈ hash order — the measured 60x trap); with the
  // displacement-bounded insert the maximum probe distance at the 0.7 load
  // ceiling stays small. 24 is loose for robin hood at this load (expected
  // max displacement is O(log n)) yet far below the hundreds-long chains
  // the trap produced.
  Rng rng(23);
  CliqueSet random_order;
  std::vector<Clique> cliques;
  for (int i = 0; i < 40000; ++i) {
    cliques.push_back(random_clique(rng, 4, 1 << 20));
  }
  for (const Clique& c : cliques) random_order.insert(c);
  EXPECT_LE(random_order.max_displacement(), 24u);

  // Adversarial order: replay the same cliques sorted by the slot they
  // occupy in the finished table (= hash order), the merge-path pattern.
  std::vector<Clique> slot_order;
  slot_order.reserve(cliques.size());
  random_order.for_each_span([&](std::span<const NodeId> c) {
    slot_order.emplace_back(c.begin(), c.end());
  });
  CliqueSet merged;
  merged.reserve(slot_order.size());
  for (const Clique& c : slot_order) merged.insert(c);
  EXPECT_EQ(merged.size(), random_order.size());
  EXPECT_EQ(merged.fingerprint(), random_order.fingerprint());
  EXPECT_LE(merged.max_displacement(), 24u);

  // And hash-ordered inserts into a GROWING table (no reserve) — the
  // original trap's exact shape.
  CliqueSet growing;
  for (const Clique& c : slot_order) growing.insert(c);
  EXPECT_EQ(growing.fingerprint(), random_order.fingerprint());
  EXPECT_LE(growing.max_displacement(), 24u);
}

}  // namespace
}  // namespace dcl
