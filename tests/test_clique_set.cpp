// Packed CliqueSet vs an unordered_set<vector> oracle under duplicate and
// permuted-order inserts, across widths that cross the packed/overflow
// boundary (kPackedMax = 8) and table growth.
#include "enumeration/clique_enumeration.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace dcl {
namespace {

Clique random_clique(Rng& rng, std::size_t size, NodeId universe) {
  std::set<NodeId> s;
  while (s.size() < size) {
    s.insert(static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(universe))));
  }
  return {s.begin(), s.end()};
}

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

TEST(CliqueSetPacked, EraseRandomizedAgainstSetOracle) {
  // Mixed insert/erase workload (permuted vertex orders, widths crossing
  // the packed/overflow boundary): size, membership, and fingerprint must
  // track the oracle through arbitrary churn — the backward-shift erase
  // must never strand or lose a key.
  Rng rng(3);
  CliqueSet set;
  std::set<Clique> oracle;
  for (int op = 0; op < 8000; ++op) {
    const std::size_t size = 1 + rng.next_below(10);
    Clique c = random_clique(rng, size, 20);
    const Clique permuted = shuffled(c, rng);
    if (rng.next_bool(0.45)) {
      EXPECT_EQ(set.erase(permuted), oracle.erase(c) > 0) << "op " << op;
    } else {
      EXPECT_EQ(set.insert(permuted), oracle.insert(c).second) << "op " << op;
    }
    ASSERT_EQ(set.size(), oracle.size());
    if (op % 500 == 499) {
      // Full membership audit plus fingerprint equality with a rebuilt
      // set: the incremental fingerprint is order-independent and must
      // land exactly where a fresh build lands.
      CliqueSet rebuilt;
      for (const Clique& x : oracle) rebuilt.insert(x);
      EXPECT_EQ(set.fingerprint(), rebuilt.fingerprint());
      for (const Clique& x : oracle) {
        EXPECT_TRUE(set.contains(x));
      }
    }
  }
}

TEST(CliqueSetPacked, FingerprintIsOrderIndependentAndCancels) {
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

  // Inserting then erasing extra cliques returns to the exact value;
  // erasing everything returns to zero (the empty-set fingerprint).
  const std::uint64_t fp = forward.fingerprint();
  forward.insert({901, 902, 903});
  EXPECT_NE(forward.fingerprint(), fp);
  forward.erase({903, 901, 902});
  EXPECT_EQ(forward.fingerprint(), fp);
  for (const auto& c : cliques) forward.erase(c);
  EXPECT_EQ(forward.fingerprint(), 0u);
  EXPECT_TRUE(forward.empty());
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

// ---- Backward-shift erase across the table boundary -----------------------
//
// The backward-shift displacement rule compares *cyclic* probe distances
// (`((j - ideal) & mask) >= ((j - hole) & mask)`); a sign slip there only
// shows on probe clusters that wrap from the last slot back to slot 0 —
// randomized churn rarely parks a full cluster exactly on the boundary, so
// this pins it deterministically. The test replicates the packed key hash
// (pack → 4 splitmix-mixed 64-bit lanes) to *construct* cliques whose
// ideal slot is at the table end; the replica is asserted against the
// public fingerprint of a singleton set, so if the production hash ever
// changes this test fails loudly at the assert rather than silently
// testing nothing.

std::uint64_t test_splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t test_hash_clique(Clique c) {
  std::sort(c.begin(), c.end());
  std::array<NodeId, 8> key;
  key.fill(-1);
  std::copy(c.begin(), c.end(), key.begin());
  const auto lanes = std::bit_cast<std::array<std::uint64_t, 4>>(key);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t lane : lanes) h = test_splitmix64(h ^ lane);
  return h;
}

TEST(CliqueSetPacked, BackwardShiftEraseAcrossWrappingProbeCluster) {
  // The replica must agree with production: a singleton set's fingerprint
  // is exactly the member's key hash.
  {
    CliqueSet probe;
    probe.insert({1, 2, 3});
    ASSERT_EQ(probe.fingerprint(), test_hash_clique({1, 2, 3}))
        << "hash replica out of sync with CliqueSet::hash_key — "
           "update test_hash_clique";
  }

  // Mine cliques by ideal slot in the fresh table's 32 slots: three whose
  // probe starts at slot 31 and one at slot 30 (fewer than 22 keys keeps
  // the table at 32 slots, so ideal slots are stable for the whole test).
  constexpr std::size_t kSlots = 32;
  std::vector<Clique> at31, at30;
  for (NodeId x = 0; at31.size() < 3 || at30.size() < 1; ++x) {
    ASSERT_LT(x, 100000) << "slot mining failed";
    const Clique c{x, x + 100000, x + 200000};
    const std::size_t slot =
        static_cast<std::size_t>(test_hash_clique(c)) & (kSlots - 1);
    if (slot == 31 && at31.size() < 3) at31.push_back(c);
    if (slot == 30 && at30.empty()) at30.push_back(c);
  }

  // Layout after these inserts: d at 30; a at 31; b, c displaced past the
  // boundary into 0 and 1 — one probe cluster spanning 30,31,0,1.
  CliqueSet set;
  const Clique& d = at30[0];
  const Clique& a = at31[0];
  const Clique& b = at31[1];
  const Clique& c = at31[2];
  EXPECT_TRUE(set.insert(d));
  EXPECT_TRUE(set.insert(a));
  EXPECT_TRUE(set.insert(b));
  EXPECT_TRUE(set.insert(c));
  ASSERT_EQ(set.size(), 4u);

  // Erasing the key AT the boundary slot must pull both wrapped followers
  // back across it (b: 0 → 31, c: 1 → 0); membership of everything else
  // must survive.
  EXPECT_TRUE(set.erase(a));
  EXPECT_FALSE(set.contains(a));
  EXPECT_TRUE(set.contains(b));
  EXPECT_TRUE(set.contains(c));
  EXPECT_TRUE(set.contains(d));

  // Re-insert and instead erase from the middle of the wrapped segment.
  EXPECT_TRUE(set.insert(a));
  EXPECT_TRUE(set.erase(b));
  EXPECT_TRUE(set.contains(a));
  EXPECT_FALSE(set.contains(b));
  EXPECT_TRUE(set.contains(c));
  EXPECT_TRUE(set.contains(d));

  // Erase d (slot 30, the head of the cluster) with the wrap still live.
  EXPECT_TRUE(set.erase(d));
  EXPECT_TRUE(set.contains(a));
  EXPECT_TRUE(set.contains(c));

  // Drain completely: the incremental fingerprint must round-trip to the
  // empty-set value 0.
  EXPECT_TRUE(set.erase(a));
  EXPECT_TRUE(set.erase(c));
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.fingerprint(), 0u);
}

TEST(CliqueSetPacked, ChurnDifferentialAgainstUnorderedSetOracle) {
  // Randomized insert/erase churn against an unordered_set oracle (hash
  // iteration order ≠ tree order — a genuinely independent second
  // opinion), with periodic audits and a full drain at the end: emptying
  // the set through erase alone must round-trip fingerprint() to 0.
  struct OracleHash {
    std::size_t operator()(const Clique& c) const {
      std::uint64_t h = 0x2545f4914f6cdd1dULL;
      for (const NodeId v : c) {
        h = test_splitmix64(h ^ static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(v)));
      }
      return static_cast<std::size_t>(h);
    }
  };
  Rng rng(17);
  CliqueSet set;
  std::unordered_set<Clique, OracleHash> oracle;
  for (int op = 0; op < 6000; ++op) {
    const std::size_t size = 1 + rng.next_below(9);
    Clique c = random_clique(rng, size, 18);  // tiny universe: heavy churn
    const Clique permuted = shuffled(c, rng);
    if (rng.next_bool(0.5)) {
      EXPECT_EQ(set.erase(permuted), oracle.erase(c) > 0) << "op " << op;
    } else {
      EXPECT_EQ(set.insert(permuted), oracle.insert(c).second) << "op " << op;
    }
    ASSERT_EQ(set.size(), oracle.size());
    if (op % 1000 == 999) {
      for (const Clique& x : oracle) {
        EXPECT_TRUE(set.contains(shuffled(x, rng)));
      }
    }
  }
  // Drain in the oracle's (arbitrary) iteration order.
  for (const Clique& x : oracle) {
    EXPECT_TRUE(set.erase(shuffled(x, rng)));
  }
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.fingerprint(), 0u);
  EXPECT_TRUE(set.to_vector().empty());
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

TEST(CliqueSetPacked, BlockedInsertMatchesPerCliqueInsert) {
  // insert_rows packs, hashes and places rows in blocks and grows once per
  // block; insert_all feeds another table's keys through the same path.
  // Both must build exactly the set a per-clique insert loop builds.
  // Widths 1-8 are packed and 9 spills; a small universe repeats cliques
  // across blocks, and every fifth row repeats the row three back — inside
  // the same block, permuted. Starting empty, the blocks cross several
  // growth thresholds of the per-clique path mid-block. The row count
  // moves with the width, so the last block ranges from full (width 8)
  // to a single row (width 7).
  Rng rng(29);
  for (std::size_t width = 1; width <= 9; ++width) {
    const std::size_t rows = 3000 + 17 * width;
    std::vector<NodeId> flat;
    for (std::size_t r = 0; r < rows; ++r) {
      const Clique c = r % 5 == 4
                           ? shuffled(Clique(flat.end() - 3 * width,
                                             flat.end() - 2 * width),
                                      rng)
                           : shuffled(random_clique(rng, width, 40), rng);
      flat.insert(flat.end(), c.begin(), c.end());
    }
    const auto keep = [](std::size_t r) { return r % 7 != 3; };
    CliqueSet blocked;
    blocked.insert_rows(flat, width, keep);
    CliqueSet per_clique;
    for (std::size_t r = 0; r < rows; ++r) {
      if (!keep(r)) continue;
      per_clique.insert(
          std::span<const NodeId>(flat.data() + r * width, width));
    }
    EXPECT_EQ(blocked.size(), per_clique.size()) << "width " << width;
    EXPECT_EQ(blocked.fingerprint(), per_clique.fingerprint());
    for (std::size_t r = 0; r < rows; ++r) {
      const std::span<const NodeId> row(flat.data() + r * width, width);
      EXPECT_EQ(blocked.contains(row), per_clique.contains(row));
    }
    auto listed = blocked.to_vector();
    auto expected = per_clique.to_vector();
    std::sort(listed.begin(), listed.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(listed, expected);
    EXPECT_LE(blocked.max_displacement(), 24u);

    // The union path, into a table that already holds part of the set.
    CliqueSet unioned;
    for (std::size_t r = 0; r < rows; r += 2) {
      unioned.insert(std::span<const NodeId>(flat.data() + r * width, width));
    }
    CliqueSet union_per_clique = unioned;
    unioned.insert_all(blocked);
    blocked.for_each_span(
        [&](std::span<const NodeId> c) { union_per_clique.insert(c); });
    EXPECT_EQ(unioned.size(), union_per_clique.size());
    EXPECT_EQ(unioned.fingerprint(), union_per_clique.fingerprint());
    EXPECT_TRUE(unioned == union_per_clique);
    EXPECT_LE(unioned.max_displacement(), 24u);
  }
}

}  // namespace
}  // namespace dcl
