// Partition-multiset tables for the CONGESTED-CLIQUE listers.
//
// Both the sparse-case clique lister (core/sparse_cc.cpp) and the
// in-cluster lister (core/in_cluster_listing.cpp) assign node i the sorted
// multiset of the p base-q digits of i mod q^p. Node i learns exactly the
// edges whose part pair its multiset covers, so both listers ask the same
// questions, answered here once:
//  * which distinct multisets occur, how many nodes hold each, and which
//    node (the minimum id) represents it? (`part_multisets`; ids i and
//    i mod q^p share a multiset, so at most q^p ids are decoded);
//  * how many nodes cover each part pair, and how many edges does one
//    multiset receive? (`coverage_table`, `covered_sum`: per multiset,
//    weighted by its node count, O(#multisets * q^2));
//  * which multisets receive a given clique? A clique lies in a node's
//    local graph iff the multiset covers every pair of the clique's parts,
//    i.e. holds each part a at least min(c_a, 2) times, where c_a counts
//    the clique's vertices in part a (`covers_part_tuple`, memoised per
//    packed part tuple by `PartTupleCovers`, which also reports a listing
//    run: rows appended once, each covering representative credited once
//    per part tuple).
// A sparsity-oblivious schedule cannot ask these questions; it budgets for
// every potential pair instead (`oblivious_pair_budget`).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/intersect.h"
#include "common/math_util.h"
#include "common/small_sort.h"
#include "core/listing_types.h"
#include "graph/graph.h"
#include "graph/ids.h"

namespace dcl {

/// The p base-q digits of id (mod q^p), as a sorted multiset.
inline std::vector<int> part_multiset(NodeId id, int q, int p) {
  const std::int64_t space = ipow(q, p);
  auto digits = radix_digits(static_cast<std::int64_t>(id) % space, q, p);
  std::sort(digits.begin(), digits.end());
  return digits;
}

/// Whether the sorted multiset `s` contains part `a` and part `b`
/// (with multiplicity two when a == b).
inline bool multiset_covers(const std::vector<int>& s, int a, int b) {
  if (a > b) std::swap(a, b);
  if (a == b) {
    const auto lo = std::lower_bound(s.begin(), s.end(), a);
    return lo != s.end() && *lo == a && (lo + 1) != s.end() && *(lo + 1) == a;
  }
  return sorted_contains(s, a) && sorted_contains(s, b);
}

/// The per-node message budget of an oblivious schedule over q parts of an
/// n-vertex graph: a node holding p parts reserves a slot for every
/// potential pair between them, p²·ceil(n/q)²/2, however few edges exist.
/// The oblivious CONGESTED-CLIQUE baseline and the worst-case in-cluster
/// charge both use it.
inline std::int64_t oblivious_pair_budget(std::int64_t n, int q, int p) {
  const std::int64_t part_size = ceil_div(n, q);
  return static_cast<std::int64_t>(p) * p * part_size * part_size / 2;
}

/// Unordered part pair {a, b} -> dense index into a q*q table.
inline int pair_index(int a, int b, int q) {
  if (a > b) std::swap(a, b);
  return a * q + b;
}

/// The distinct part multisets of the nodes [0, k), in ascending order of
/// their representatives.
struct PartMultisets {
  std::vector<std::vector<int>> parts;  ///< sorted multiset (p parts)
  std::vector<NodeId> rep;              ///< minimum id holding it
  std::vector<std::int64_t> nodes;      ///< number of ids in [0, k) holding it
};

/// Groups the ids [0, k) by part multiset. Id i holds the multiset of
/// i mod q^p, so only the first min(k, q^p) ids are decoded, each weighted
/// by the ids congruent to it; the first id of a multiset is its minimum.
inline PartMultisets part_multisets(NodeId k, int q, int p) {
  PartMultisets m;
  const std::int64_t space = ipow(q, p);
  const std::int64_t ids = std::min<std::int64_t>(k, space);
  std::vector<std::int64_t> slot(static_cast<std::size_t>(space), -1);
  for (std::int64_t j = 0; j < ids; ++j) {
    std::vector<int> s = part_multiset(static_cast<NodeId>(j), q, p);
    std::int64_t key = 0;
    for (const int digit : s) key = key * q + digit;
    std::int64_t& at = slot[static_cast<std::size_t>(key)];
    if (at < 0) {
      at = static_cast<std::int64_t>(m.parts.size());
      m.parts.push_back(std::move(s));
      m.rep.push_back(static_cast<NodeId>(j));
      m.nodes.push_back(0);
    }
    m.nodes[static_cast<std::size_t>(at)] += (k - 1 - j) / space + 1;
  }
  return m;
}

/// Σ table[pair_index(a, b, q)] over the part pairs {a, b} that the sorted
/// multiset `s` covers: the edges a node holding `s` receives, given the
/// per-pair edge counts.
inline std::int64_t covered_sum(const std::vector<int>& s,
                                const std::vector<std::int64_t>& table,
                                int q) {
  std::int64_t sum = 0;
  for (int a = 0; a < q; ++a) {
    for (int b = a; b < q; ++b) {
      if (multiset_covers(s, a, b)) {
        sum += table[static_cast<std::size_t>(pair_index(a, b, q))];
      }
    }
  }
  return sum;
}

/// cover[(a,b)] = number of nodes whose multiset covers the unordered part
/// pair {a,b}; a q*q table indexed by pair_index.
inline std::vector<std::int64_t> coverage_table(const PartMultisets& m,
                                                int q) {
  std::vector<std::int64_t> cover(checked_mul64(q, q), 0);
  for (std::size_t i = 0; i < m.parts.size(); ++i) {
    for (int a = 0; a < q; ++a) {
      for (int b = a; b < q; ++b) {
        if (multiset_covers(m.parts[i], a, b)) {
          cover[static_cast<std::size_t>(pair_index(a, b, q))] += m.nodes[i];
        }
      }
    }
  }
  return cover;
}

/// Whether the sorted multiset `held` covers every part pair of the sorted
/// part tuple `tuple` (one entry per clique vertex): it holds each part a
/// at least min(c_a, 2) times, c_a being a's count in `tuple`.
inline bool covers_part_tuple(std::span<const int> held,
                              std::span<const int> tuple) {
  for (std::size_t i = 0; i < tuple.size();) {
    const int a = tuple[i];
    std::size_t c = 0;
    for (; i < tuple.size() && tuple[i] == a; ++i) ++c;
    const auto [lo, hi] = std::equal_range(held.begin(), held.end(), a);
    if (static_cast<std::size_t>(hi - lo) < std::min<std::size_t>(c, 2)) {
      return false;
    }
  }
  return true;
}

/// Which of a fixed list of part multisets receive a clique, memoised per
/// clique part tuple: a sorted tuple of p parts packs into a base-q key
/// below q^p, and each distinct tuple gets a memo slot holding its cover
/// list, computed once.
class PartTupleCovers {
 public:
  PartTupleCovers(std::vector<std::vector<int>> multisets, int q, int p)
      : multisets_(std::move(multisets)),
        q_(static_cast<std::size_t>(q)),
        slot_of_(static_cast<std::size_t>(ipow(q, p)), 0),
        parts_(static_cast<std::size_t>(p)) {}

  /// The memo slot of the clique whose p vertices lie in `parts` (any
  /// order; sorted in place). Equal tuples share a slot.
  std::uint32_t slot(std::span<int> parts) {
    sort_small(parts);
    std::size_t key = 0;
    for (const int a : parts) key = key * q_ + static_cast<std::size_t>(a);
    std::uint32_t& at = slot_of_[key];
    if (at == 0) {
      for (std::size_t r = 0; r < multisets_.size(); ++r) {
        if (covers_part_tuple(multisets_[r], parts)) {
          lists_.push_back(static_cast<std::uint32_t>(r));
        }
      }
      list_ends_.push_back(lists_.size());
      hits_.push_back(0);
      at = static_cast<std::uint32_t>(list_ends_.size() - 1);
    }
    return at - 1;
  }

  /// Ascending indices of the multisets covering the tuple of `slot`.
  std::span<const std::uint32_t> covering(std::uint32_t slot) const {
    const std::size_t begin = list_ends_[slot];
    return {lists_.data() + begin, list_ends_[slot + 1] - begin};
  }

  /// Reports one listing run into `out`. Each `width`-id row of `rows` is a
  /// clique, vertex v in part `part[v]`, reported once by every multiset
  /// covering it, under the id `reporter[m]` of multiset m's
  /// representative. Rows no multiset covers are dropped; the rest are
  /// rewritten in place through `to_global` (ids kept when it is empty)
  /// and appended to `out` once each. Reports are credited per slot, not
  /// per row: a run counts its kept rows per part tuple, then credits each
  /// covering representative that count once. Returns the reports made.
  std::uint64_t report_rows(std::span<NodeId> rows,
                            std::span<const int> part,
                            std::span<const NodeId> to_global,
                            std::span<const NodeId> reporter,
                            ListingOutput& out) {
    const std::size_t width = parts_.size();
    std::size_t kept = 0;
    for (std::size_t at = 0; at < rows.size(); at += width) {
      NodeId* const row = rows.data() + at;
      for (std::size_t i = 0; i < width; ++i) {
        parts_[i] = part[static_cast<std::size_t>(row[i])];
      }
      const std::uint32_t s = slot(parts_);
      if (list_ends_[s] == list_ends_[s + 1]) continue;
      if (hits_[s]++ == 0) touched_.push_back(s);
      NodeId* const dst = rows.data() + kept;
      for (std::size_t i = 0; i < width; ++i) {
        dst[i] = to_global.empty()
                     ? row[i]
                     : to_global[static_cast<std::size_t>(row[i])];
      }
      kept += width;
    }
    credits_.clear();
    std::uint64_t reports = 0;
    for (const std::uint32_t s : touched_) {
      for (const std::uint32_t m : covering(s)) {
        // dcl-lint: allow(reserve-hint): member scratch, kept across runs
        credits_.push_back({reporter[m], hits_[s]});
        reports += hits_[s];
      }
      hits_[s] = 0;
    }
    touched_.clear();
    out.report_rows(rows.first(kept), width, credits_);
    return reports;
  }

 private:
  std::vector<std::vector<int>> multisets_;
  std::size_t q_;
  /// Per packed tuple: its slot + 1; 0 = not yet computed.
  std::vector<std::uint32_t> slot_of_;
  /// Slot s's cover list is lists_[list_ends_[s], list_ends_[s + 1]).
  std::vector<std::size_t> list_ends_{0};
  std::vector<std::uint32_t> lists_;
  // `report_rows` scratch: kept rows per slot (all zero between runs), the
  // slots a run touched, its credits, and one row's parts.
  std::vector<std::uint64_t> hits_;
  std::vector<std::uint32_t> touched_;
  std::vector<ListingOutput::Credit> credits_;
  std::vector<int> parts_;
};

}  // namespace dcl
