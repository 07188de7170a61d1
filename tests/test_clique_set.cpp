// CliqueSet vs a std::set<vector> oracle on inputs with duplicates and
// permuted vertex orders, across widths that cross the width-8 boundary
// between the two per-clique hashes, plus the pinned fingerprints.
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

TEST(CliqueSet, FingerprintIsPinnedAcrossWidths) {
  // Fixed seeded cliques of every width 1-10, each given twice in two
  // vertex orders. The literals pin the per-clique hash on both sides of
  // the width-8 boundary between `hash_key` and `overflow_hash`;
  // BENCH_core.json pins only widths 3-5.
  struct Pin {
    std::size_t size;
    std::uint64_t fingerprint;
  };
  constexpr Pin kPins[] = {
      {19, 0x33442cd031e7284aULL}, {24, 0xab498d9e1893704bULL},
      {24, 0xeae86d87215c8ecbULL}, {24, 0x89699d048c019086ULL},
      {24, 0x804fce27832cc718ULL}, {24, 0x8c6b01d25225e3b6ULL},
      {24, 0x0da942372f2cebc1ULL}, {24, 0x5af04e914698f974ULL},
      {24, 0x02210f03874f39daULL}, {24, 0x1948aa9c2f9950a8ULL},
  };
  Rng rng(2020);
  std::vector<Clique> all;
  for (std::size_t width = 1; width <= 10; ++width) {
    std::vector<Clique> input;
    for (int i = 0; i < 24; ++i) {
      const Clique c = random_clique(rng, width, 32);
      input.push_back(shuffled(c, rng));
      input.push_back(shuffled(c, rng));
    }
    const CliqueSet set(input);
    EXPECT_EQ(set.size(), kPins[width - 1].size) << "width " << width;
    EXPECT_EQ(set.fingerprint(), kPins[width - 1].fingerprint)
        << "width " << width;
    all.insert(all.end(), input.begin(), input.end());
  }
  const CliqueSet set(all);
  EXPECT_EQ(set.size(), 235u);
  EXPECT_EQ(set.fingerprint(), 0xe39ddf5bf9d9d26bULL);
}

TEST(CliqueSetPacked, RandomizedAgainstSetOracle) {
  Rng rng(1);
  std::vector<Clique> input;
  std::set<Clique> oracle;
  for (int op = 1; op <= 5000; ++op) {
    // Sizes 1..10 cross the width-8 hash boundary; a small universe
    // forces frequent duplicates.
    const std::size_t size = 1 + rng.next_below(10);
    Clique c = random_clique(rng, size, 24);
    input.push_back(shuffled(c, rng));
    oracle.insert(c);
    if (op % 500 == 0) {
      EXPECT_EQ(CliqueSet(input).size(), oracle.size()) << "op " << op;
    }
  }
  const CliqueSet set(input);
  // Every oracle element is found (again under permutation), fresh
  // cliques are not, and to_vector() round-trips the exact same set.
  for (const Clique& c : oracle) {
    EXPECT_TRUE(set.contains(shuffled(c, rng)));
  }
  for (int i = 0; i < 500; ++i) {
    const Clique c = random_clique(rng, 1 + rng.next_below(10), 24);
    EXPECT_EQ(set.contains(shuffled(c, rng)), oracle.contains(c));
  }
  auto listed = set.to_vector();
  std::sort(listed.begin(), listed.end());
  EXPECT_TRUE(std::equal(listed.begin(), listed.end(), oracle.begin(),
                         oracle.end()));
}

TEST(CliqueSetPacked, GrowthKeepsAllElements) {
  // Enough members to fill every bucket of the build's counting pass.
  constexpr NodeId kCount = 20000;
  std::vector<Clique> input;
  for (NodeId i = 0; i < kCount; ++i) {
    input.push_back({i, i + 100000, i + 200000});
  }
  const CliqueSet set(input);
  EXPECT_EQ(set.size(), static_cast<std::size_t>(kCount));
  for (NodeId i = 0; i < kCount; ++i) {
    // Membership probes in reversed vertex order.
    EXPECT_TRUE(set.contains(Clique{i + 200000, i + 100000, i}));
  }
  EXPECT_FALSE(set.contains(Clique{kCount, kCount + 100000, kCount + 200000}));
}

TEST(CliqueSetPacked, FingerprintIsOrderIndependent) {
  Rng rng(4);
  std::vector<Clique> cliques;
  for (int i = 0; i < 300; ++i) {
    cliques.push_back(random_clique(rng, 1 + rng.next_below(9), 64));
  }
  std::vector<Clique> reversed;
  for (auto it = cliques.rbegin(); it != cliques.rend(); ++it) {
    reversed.push_back(shuffled(*it, rng));
  }
  const CliqueSet forward(cliques);
  EXPECT_EQ(forward.fingerprint(), CliqueSet(reversed).fingerprint());

  // The empty set's fingerprint is 0 (the value ListingOutput and the
  // fingerprint_fold32 pins start from), and one extra clique moves it.
  EXPECT_EQ(CliqueSet{}.fingerprint(), 0u);
  cliques.push_back({901, 902, 903});
  EXPECT_NE(CliqueSet(cliques).fingerprint(), forward.fingerprint());
}

TEST(CliqueSetPacked, DifferenceAndEqualityAcrossRepresentations) {
  // Same logical set built from different input orders (and with
  // duplicates) must compare equal; difference must be exact.
  Rng rng(2);
  std::vector<Clique> cliques;
  for (int i = 0; i < 200; ++i) {
    cliques.push_back(random_clique(rng, 1 + rng.next_below(9), 64));
  }
  std::vector<Clique> forward_input;
  for (const auto& c : cliques) forward_input.push_back(shuffled(c, rng));
  std::vector<Clique> backward_input;
  for (auto it = cliques.rbegin(); it != cliques.rend(); ++it) {
    backward_input.push_back(*it);
    backward_input.push_back(shuffled(*it, rng));  // duplicate, permuted
  }
  const CliqueSet forward(forward_input);
  const CliqueSet backward(backward_input);
  EXPECT_TRUE(forward == backward);
  EXPECT_TRUE(forward.difference(backward).empty());
  // Equal sets visit their members in the same order.
  const auto visits = [](const CliqueSet& set) {
    std::vector<Clique> order;
    set.for_each_span([&](std::span<const NodeId> c) {
      order.emplace_back(c.begin(), c.end());
    });
    return order;
  };
  EXPECT_EQ(visits(forward), visits(backward));

  backward_input.push_back(
      {1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008});
  const CliqueSet wider(backward_input);
  EXPECT_FALSE(forward == wider);
  const auto extra = wider.difference(forward);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0].size(), 9u);
  EXPECT_TRUE(forward.difference(wider).empty());
}

}  // namespace
}  // namespace dcl
