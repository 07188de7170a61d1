#include "enumeration/clique_enumeration.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/intersect.h"
#include "graph/orientation.h"

namespace dcl {

// ---------------------------------------------------------------------------
// CliqueSet — open-addressing flat table over packed keys.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hints a cache-line load of `p`. The label-scan loops prefetch the next
/// candidate's CSR segment behind the current scan; the blocked clique
/// inserts prefetch every ideal slot of a block before probing any.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

}  // namespace

CliqueSet::PackedKey CliqueSet::pack(std::span<const NodeId> clique) {
  PackedKey key;
  key.fill(kUnused);
  std::copy(clique.begin(), clique.end(), key.begin());
  // Insertion sort: the keys are at most 8 wide, and report order is
  // usually already sorted or nearly so.
  for (std::size_t i = 1; i < clique.size(); ++i) {
    const NodeId x = key[i];
    std::size_t j = i;
    for (; j > 0 && key[j - 1] > x; --j) key[j] = key[j - 1];
    key[j] = x;
  }
  return key;
}

std::uint64_t CliqueSet::hash_key(const PackedKey& key) {
  static_assert(sizeof(PackedKey) == 4 * sizeof(std::uint64_t));
  const auto lanes = std::bit_cast<std::array<std::uint64_t, 4>>(key);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t lane : lanes) h = splitmix64(h ^ lane);
  return h;
}

void CliqueSet::place_robin_hood(std::vector<PackedKey>& slots,
                                 PackedKey key) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_key(key)) & mask;
  std::size_t dist = 0;
  while (slots[i][0] != kUnused) {
    const std::size_t their =
        (i - (static_cast<std::size_t>(hash_key(slots[i])) & mask)) & mask;
    if (their < dist) {
      std::swap(slots[i], key);
      dist = their;
    }
    i = (i + 1) & mask;
    ++dist;
  }
  slots[i] = key;
}

bool CliqueSet::insert_packed(const PackedKey& key) {
  if (slots_.empty()) {
    PackedKey empty;
    empty.fill(kUnused);
    slots_.assign(32, empty);
  } else if ((packed_count_ + 1) * 10 > slots_.size() * 7) {
    grow();
  }
  return insert_hashed(key, hash_key(key));
}

bool CliqueSet::insert_hashed(const PackedKey& key, std::uint64_t hash) {
  // Robin-hood probe: along a probe chain residents appear in
  // non-decreasing ideal-slot order, so an equal key — same ideal slot —
  // must occur before the first resident strictly closer to its own ideal
  // than we are to ours; the duplicate scan is complete the moment a steal
  // happens, and from there the displaced residents just carry forward.
  // Displacement stays bounded regardless of insert order — the
  // hash-ordered-insert trap (slot-order bulk merges into a growing
  // table, measured 60x over pre-reserved) is killed at the root instead
  // of per call site.
  const std::size_t mask = slots_.size() - 1;
  PackedKey cur = key;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  std::size_t dist = 0;
  bool scanning = true;  // `cur` is still the probe key, not a displacee
  while (slots_[i][0] != kUnused) {
    if (scanning && slots_[i] == cur) return false;
    const std::size_t their =
        (i - (static_cast<std::size_t>(hash_key(slots_[i])) & mask)) & mask;
    if (their < dist) {
      std::swap(slots_[i], cur);
      dist = their;
      scanning = false;
    }
    i = (i + 1) & mask;
    ++dist;
  }
  slots_[i] = cur;
  ++packed_count_;
  fingerprint_ += hash;
  return true;
}

void CliqueSet::insert_block(Block& block) {
  if (block.size == 0) return;
  // Grow once for the whole block, as if every key were new: the table
  // may grow up to one block earlier than per-key inserts would grow it.
  if (slots_.empty()) reserve(block.size);
  while ((packed_count_ + block.size) * 10 > slots_.size() * 7) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t b = 0; b < block.size; ++b) {
    prefetch(&slots_[static_cast<std::size_t>(block.hashes[b]) & mask]);
  }
  for (std::size_t b = 0; b < block.size; ++b) {
    insert_hashed(block.keys[b], block.hashes[b]);
  }
  block.size = 0;
}

void CliqueSet::insert_all(const CliqueSet& other) {
  Block block;
  for (const PackedKey& key : other.slots_) {
    if (key[0] == kUnused) continue;
    block.push(key);
    if (block.size == kBlock) insert_block(block);
  }
  insert_block(block);
  for (const Clique& c : other.overflow_) insert(c);
}

bool CliqueSet::contains_packed(const PackedKey& key) const {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_key(key)) & mask;
  while (slots_[i][0] != kUnused) {
    if (slots_[i] == key) return true;
    i = (i + 1) & mask;
  }
  return false;
}

void CliqueSet::rehash(std::size_t new_slots) {
  std::vector<PackedKey> old = std::move(slots_);
  PackedKey empty;
  empty.fill(kUnused);
  slots_.assign(new_slots, empty);
  // Rehash feeds keys in old-slot (≈ hash) order — exactly the adversarial
  // order for plain linear probing; robin-hood placement keeps the rebuilt
  // table displacement-bounded too.
  for (const PackedKey& key : old) {
    if (key[0] == kUnused) continue;
    place_robin_hood(slots_, key);
  }
}

std::size_t CliqueSet::max_displacement() const {
  if (slots_.empty()) return 0;
  const std::size_t mask = slots_.size() - 1;
  std::size_t worst = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i][0] == kUnused) continue;
    const std::size_t ideal =
        static_cast<std::size_t>(hash_key(slots_[i])) & mask;
    worst = std::max(worst, (i - ideal) & mask);
  }
  return worst;
}

void CliqueSet::grow() {
  // Quadruple small tables so the climb to a large set pays half the
  // rehash passes (each pass rewrites every key — the ~14% grow() churn
  // of the PR 3 profile); double once a step is big enough that the 4x
  // memory overshoot would dominate.
  constexpr std::size_t kQuadrupleBelow = std::size_t{1} << 16;
  rehash(slots_.size() < kQuadrupleBelow ? slots_.size() * 4
                                         : slots_.size() * 2);
}

void CliqueSet::reserve(std::size_t expected) {
  std::size_t target = 32;
  // Smallest power of two keeping `expected` keys at or under 0.7 load.
  while (target * 7 < expected * 10) target *= 2;
  if (target > slots_.size()) rehash(target);
}

std::uint64_t CliqueSet::overflow_hash(const Clique& sorted) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const NodeId v : sorted) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  return h;
}

bool CliqueSet::insert(std::span<const NodeId> clique) {
  if (clique.empty() || clique.size() > kPackedMax) {
    Clique c(clique.begin(), clique.end());
    std::sort(c.begin(), c.end());
    const std::uint64_t h = overflow_hash(c);
    const bool fresh = overflow_.insert(std::move(c)).second;
    if (fresh) fingerprint_ += h;
    return fresh;
  }
  return insert_packed(pack(clique));
}

bool CliqueSet::insert(const Clique& clique) {
  return insert(std::span<const NodeId>(clique));
}

bool CliqueSet::contains(std::span<const NodeId> clique) const {
  if (clique.empty() || clique.size() > kPackedMax) {
    Clique c(clique.begin(), clique.end());
    std::sort(c.begin(), c.end());
    return overflow_.contains(c);
  }
  return contains_packed(pack(clique));
}

bool CliqueSet::contains(const Clique& clique) const {
  return contains(std::span<const NodeId>(clique));
}

template <typename F>
void CliqueSet::for_each(F&& fn) const {
  Clique scratch;
  for (const PackedKey& key : slots_) {
    if (key[0] == kUnused) continue;
    scratch.clear();
    for (const NodeId v : key) {
      if (v == kUnused) break;
      scratch.push_back(v);
    }
    fn(scratch);
  }
  for (const Clique& c : overflow_) fn(c);
}

std::vector<Clique> CliqueSet::difference(const CliqueSet& other) const {
  std::vector<Clique> out;
  for_each([&](const Clique& c) {
    if (!other.contains(std::span<const NodeId>(c))) out.push_back(c);
  });
  return out;
}

bool CliqueSet::operator==(const CliqueSet& other) const {
  if (size() != other.size()) return false;
  bool equal = true;
  for_each([&](const Clique& c) {
    equal = equal && other.contains(std::span<const NodeId>(c));
  });
  return equal;
}

std::vector<Clique> CliqueSet::to_vector() const {
  std::vector<Clique> out;
  out.reserve(size());
  for_each([&](const Clique& c) { out.push_back(c); });
  return out;
}

// ---------------------------------------------------------------------------
// The DAG-input clique kernel.
// ---------------------------------------------------------------------------

namespace {

/// Per-node recursion level marks. The candidate set at level l is exactly
/// {w : label[w] == l}, so "candidates ∩ out(u)" is a scan of out(u) with
/// one indexed compare per element — no sorted merge, no branches that
/// depend on the interleaving of two lists. This is the candidate-
/// propagation scheme of sequential k-clique engines (kClist / DIST); the
/// sorted-merge kernels of common/intersect.h remain the tool for call
/// sites that have no label context. One byte per node: the recursion
/// depth is ≤ p, and the gathers dominate the kernel, so the smaller
/// footprint matters more than the width.
using Labels = std::vector<std::uint8_t>;

/// The degeneracy DAG of `g`: out-neighbors strictly later in the
/// degeneracy order, sorted by id. Two branchless passes over the (sorted)
/// CSR adjacency — count, then compact the rank-ascending neighbors of each
/// segment — with sequential reads and one rank gather per visit.
CliqueDag degeneracy_dag(const Graph& g) {
  const auto dec = degeneracy_order(g);
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<NodeId> rank(n);
  for (std::size_t i = 0; i < dec.order.size(); ++i) {
    rank[static_cast<std::size_t>(dec.order[i])] = static_cast<NodeId>(i);
  }
  CliqueDag dag;
  dag.offsets.assign(n + 1, 0);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    std::uint64_t c = 0;
    for (const NodeId w : g.neighbors(v)) {
      c += static_cast<std::uint64_t>(rank[static_cast<std::size_t>(w)] > rv);
    }
    dag.offsets[static_cast<std::size_t>(v) + 1] = c;
  }
  for (std::size_t v = 0; v < n; ++v) dag.offsets[v + 1] += dag.offsets[v];
  // One pad slot: the compacting write below touches position c even for a
  // skipped neighbor, and for the last node that can be one past its
  // segment (strays inside earlier segments are overwritten by the next
  // node's fill; the counts guarantee every kept slot is written last).
  dag.adj.resize(static_cast<std::size_t>(g.edge_count()) + 1);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    std::uint64_t c = dag.offsets[static_cast<std::size_t>(v)];
    for (const NodeId w : g.neighbors(v)) {
      dag.adj[c] = w;
      c += static_cast<std::uint64_t>(rank[static_cast<std::size_t>(w)] > rv);
    }
  }
  dag.adj.resize(static_cast<std::size_t>(g.edge_count()));
  return dag;
}

/// Mutable view of a CliqueDag for the kClist-style trimming kernel: at
/// recursion level l, the first `deg[x]` entries of x's row are exactly
/// the out-neighbors of x that survive at that level. Descending one level
/// partitions each surviving candidate's prefix in place (swap survivors to
/// the front, goal flags riding along) and shrinks `deg`; returning
/// restores `deg` from the per-level scratch — the permutation itself never
/// needs undoing, because every deeper survivor set is a subset of the
/// prefix it was carved from. Consequences: the next candidate set is a
/// free span (no filtered copy), inner scans touch induced degrees instead
/// of full degrees, and the last level is a plain degree sum with no scan.
struct TrimView {
  const std::uint64_t* off;
  NodeId* adj;
  std::uint8_t* goal;  ///< aligned with `adj`; null when unfiltered
  NodeId* deg;

  NodeId* row(NodeId v) const {
    return adj + off[static_cast<std::size_t>(v)];
  }
  const std::uint8_t* row_goal(NodeId v) const {
    return goal + off[static_cast<std::size_t>(v)];
  }
  std::span<const NodeId> out(NodeId v) const {
    return {row(v), static_cast<std::size_t>(deg[static_cast<std::size_t>(v)])};
  }
};

/// Trims the row prefix of every x in `cands` (all labeled `mark`) down to
/// the neighbors also labeled `mark`, recording the previous degrees in
/// `saved` for restore. With kGoal the goal flags are permuted in step.
// dcl-hot
template <bool kGoal>
void trim_prefixes(TrimView& sub, std::span<const NodeId> cands,
                   const Labels& labels, std::uint8_t mark,
                   std::vector<NodeId>& saved) {
  saved.clear();
  saved.reserve(cands.size());  // exactly one entry per candidate
  // Raw locals: the goal-flag byte stores may alias anything, so reading
  // the arrays through the view or the vector would reload them per entry.
  const std::uint64_t* const off = sub.off;
  NodeId* const adj = sub.adj;
  std::uint8_t* const goal = sub.goal;
  NodeId* const deg = sub.deg;
  const std::uint8_t* const label = labels.data();
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const auto x = static_cast<std::size_t>(cands[i]);
    if (i + 1 < cands.size()) {
      prefetch(adj + off[static_cast<std::size_t>(cands[i + 1])]);
    }
    const NodeId d0 = deg[x];
    saved.push_back(d0);
    NodeId* const seg = adj + off[x];
    std::uint8_t* const gseg = kGoal ? goal + off[x] : nullptr;
    NodeId k = 0;
    for (NodeId j = 0; j < d0; ++j) {
      // Branchless conditional swap: the survive test flips a
      // data-dependent fraction of the time, so a branch here mispredicts
      // its way through the hottest loop of the kernel.
      const NodeId w = seg[j];
      const NodeId a = seg[k];
      const bool take = label[static_cast<std::size_t>(w)] == mark;
      seg[j] = take ? a : w;
      seg[k] = take ? w : a;
      if constexpr (kGoal) {
        const std::uint8_t gw = gseg[j];
        const std::uint8_t ga = gseg[k];
        gseg[j] = take ? ga : gw;
        gseg[k] = take ? gw : ga;
      }
      k += static_cast<NodeId>(take);
    }
    deg[x] = k;
  }
}

/// One kernel run over a CliqueDag. kEmit appends cliques to `flat`
/// (otherwise only counts); kGoal restricts emission to cliques holding at
/// least one flagged edge. Goal bookkeeping: `goal_in[x]` counts the
/// flagged edges from the current prefix into candidate x — each prefix
/// member adds its (trimmed, flag-aligned) row when pushed — so a clique
/// prefix + {x, w} holds a goal edge iff the prefix already does, or
/// goal_in[x] or goal_in[w] is non-zero, or the (x, w) entry is flagged.
/// Once a prefix holds one, its whole subtree emits unfiltered and the
/// counts are left alone.
template <bool kGoal, bool kEmit>
class CliqueWalk {
 public:
  CliqueWalk(CliqueDag& dag, CliqueScratch& ws, std::vector<NodeId>* flat)
      : ws_(ws), flat_(flat) {
    const auto n = static_cast<std::size_t>(dag.node_count());
    // Labels and goal counts are all-zero between runs; only growth needs
    // initializing.
    if (ws.label.size() < n) ws.label.resize(n, 0);
    if (kGoal && ws.goal_in.size() < n) ws.goal_in.resize(n, 0);
    if (ws.deg.size() < n) ws.deg.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      ws.deg[v] = to_node(dag.offsets[v + 1] - dag.offsets[v]);
    }
    sub_ = TrimView{dag.offsets.data(), dag.adj.data(),
                    kGoal ? dag.goal.data() : nullptr, ws.deg.data()};
  }

  /// Lists the cliques whose DAG source lies in [root_begin, root_end).
  std::uint64_t run(int p, NodeId root_begin, NodeId root_end) {
    if (p < 1) throw std::invalid_argument("k-clique enumeration: p < 1");
    if (p == 1) {
      if constexpr (kEmit && !kGoal) {
        for (NodeId v = root_begin; v < root_end; ++v) flat_->push_back(v);
      }
      return static_cast<std::uint64_t>(root_end - root_begin);
    }
    if (ws_.saved.size() < static_cast<std::size_t>(p)) {
      ws_.saved.resize(static_cast<std::size_t>(p));
    }
    ws_.prefix.clear();
    ws_.prefix.reserve(static_cast<std::size_t>(p));
    // p ≤ 3 runs on plain label scans (the merged last levels are optimal
    // there and trimming would only add partition writes); p ≥ 4 trims.
    const bool trim = p >= 4;
    std::vector<NodeId>& saved = ws_.saved[0];
    std::uint64_t total = 0;
    for (NodeId v = root_begin; v < root_end; ++v) {
      const auto cands = sub_.out(v);
      if (static_cast<int>(cands.size()) < p - 1) continue;
      for (const NodeId w : cands) ws_.label[static_cast<std::size_t>(w)] = 1;
      if (trim) trim_prefixes<kGoal>(sub_, cands, ws_.label, 1, saved);
      shift_goal_in(v, cands, 1);
      if constexpr (kEmit) ws_.prefix.assign(1, v);
      total += trim ? trim_level(cands, 1, p - 1, false)
                    : label_level(cands, p - 1);
      shift_goal_in(v, cands, -1);
      for (std::size_t i = 0; i < cands.size(); ++i) {
        ws_.label[static_cast<std::size_t>(cands[i])] = 0;
        if (trim) ws_.deg[static_cast<std::size_t>(cands[i])] = saved[i];
      }
    }
    return total;
  }

 private:
  /// Adds `delta` times u's flagged entries to the goal counts of its
  /// current (trimmed) out-row `next`.
  void shift_goal_in([[maybe_unused]] NodeId u,
                     [[maybe_unused]] std::span<const NodeId> next,
                     [[maybe_unused]] int delta) {
    if constexpr (kGoal) {
      const std::uint8_t* g = sub_.row_goal(u);
      std::uint8_t* goal_in = ws_.goal_in.data();
      for (std::size_t i = 0; i < next.size(); ++i) {
        auto& c = goal_in[static_cast<std::size_t>(next[i])];
        c = static_cast<std::uint8_t>(c + delta * g[i]);
      }
    }
  }

  bool completes_goal(bool prefix_goal, NodeId x, NodeId w,
                      std::uint8_t flag) const {
    return !kGoal || prefix_goal || flag != 0 ||
           ws_.goal_in[static_cast<std::size_t>(x)] != 0 ||
           ws_.goal_in[static_cast<std::size_t>(w)] != 0;
  }

  void emit(NodeId x, NodeId w) {
    flat_->insert(flat_->end(), ws_.prefix.begin(), ws_.prefix.end());
    flat_->push_back(x);
    flat_->push_back(w);
  }

  /// p ≤ 3: `cands` is the root's out-row, labeled 1 (`remaining` ∈ {1, 2}).
  /// Completing pairs are emitted straight from the label scan, with no
  /// candidate materialization.
  // dcl-hot
  std::uint64_t label_level(std::span<const NodeId> cands, int remaining) {
    if (static_cast<int>(cands.size()) < remaining) return 0;
    if (remaining == 1) {  // p == 2
      if constexpr (kEmit) {
        for (std::size_t i = 0; i < cands.size(); ++i) {
          if (kGoal && sub_.row_goal(ws_.prefix[0])[i] == 0) continue;
          // dcl-lint: allow(sem-hot-alloc): output buffer, appended by design
          flat_->push_back(ws_.prefix[0]);
          // dcl-lint: allow(sem-hot-alloc): output buffer, appended by design
          flat_->push_back(cands[i]);
        }
      }
      return cands.size();
    }
    const std::uint8_t* const label = ws_.label.data();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (i + 1 < cands.size()) prefetch(sub_.row(cands[i + 1]));
      const NodeId x = cands[i];
      const auto row = sub_.out(x);  // untrimmed at p ≤ 3
      if constexpr (!kEmit) {
        for (const NodeId w : row) {
          total += static_cast<std::uint64_t>(
              label[static_cast<std::size_t>(w)] == 1);
        }
      } else {
        const std::uint8_t* g = kGoal ? sub_.row_goal(x) : nullptr;
        for (std::size_t j = 0; j < row.size(); ++j) {
          const NodeId w = row[j];
          if (label[static_cast<std::size_t>(w)] != 1) continue;
          ++total;
          if (completes_goal(false, x, w, kGoal ? g[j] : 0)) emit(x, w);
        }
      }
    }
    return total;
  }

  /// p ≥ 4 recursion over the trimmed view. Entry invariant: every
  /// candidate is labeled `level` and trimmed to the candidate set (the
  /// parent — or the root loop — ran `trim_prefixes`). `remaining` ≥ 2.
  // dcl-hot
  std::uint64_t trim_level(std::span<const NodeId> cands, std::uint8_t level,
                           int remaining, bool prefix_goal) {
    if (static_cast<int>(cands.size()) < remaining) return 0;
    std::uint64_t total = 0;
    if (remaining == 2) {
      // The prefix invariant makes the two last levels a pure degree sum:
      // deg[x] counts exactly the completing pairs (x, w) within `cands`,
      // and listing reads them straight off the trimmed prefixes.
      for (std::size_t i = 0; i < cands.size(); ++i) {
        const NodeId x = cands[i];
        const auto row = sub_.out(x);
        total += row.size();
        if constexpr (kEmit) {
          if (i + 1 < cands.size()) prefetch(sub_.row(cands[i + 1]));
          const std::uint8_t* g = kGoal ? sub_.row_goal(x) : nullptr;
          for (std::size_t j = 0; j < row.size(); ++j) {
            if (completes_goal(prefix_goal, x, row[j], kGoal ? g[j] : 0)) {
              emit(x, row[j]);
            }
          }
        }
      }
      return total;
    }
    const auto up = static_cast<std::uint8_t>(level + 1);
    std::vector<NodeId>& saved = ws_.saved[static_cast<std::size_t>(level)];
    for (const NodeId u : cands) {
      const auto next = sub_.out(u);  // already trimmed to `cands` — free
      if (static_cast<int>(next.size()) < remaining - 1) continue;
      for (const NodeId x : next) ws_.label[static_cast<std::size_t>(x)] = up;
      trim_prefixes<kGoal>(sub_, next, ws_.label, up, saved);
      const bool u_goal =
          prefix_goal ||
          (kGoal && ws_.goal_in[static_cast<std::size_t>(u)] != 0);
      if (!u_goal) shift_goal_in(u, next, 1);
      // dcl-lint: allow(sem-hot-alloc): prefix is reserved to depth p by run()
      if constexpr (kEmit) ws_.prefix.push_back(u);
      total += trim_level(next, up, remaining - 1, u_goal);
      if constexpr (kEmit) ws_.prefix.pop_back();
      if (!u_goal) shift_goal_in(u, next, -1);
      for (std::size_t i = 0; i < next.size(); ++i) {
        ws_.label[static_cast<std::size_t>(next[i])] = level;
        ws_.deg[static_cast<std::size_t>(next[i])] = saved[i];
      }
    }
    return total;
  }

  CliqueScratch& ws_;
  std::vector<NodeId>* flat_;
  TrimView sub_{};
};

}  // namespace

void list_dag_cliques(CliqueDag& dag, int p, CliqueScratch& scratch,
                      std::vector<NodeId>& flat, NodeId root_begin,
                      NodeId root_end) {
  if (!dag.goal.empty()) {
    CliqueWalk<true, true>(dag, scratch, &flat).run(p, root_begin, root_end);
  } else {
    CliqueWalk<false, true>(dag, scratch, &flat).run(p, root_begin, root_end);
  }
}

std::vector<Clique> list_k_cliques(const Graph& g, int p) {
  // Two-stage emit: the kernel appends p ids per clique to one flat buffer
  // (amortized-free), and the per-clique vectors are materialized once the
  // total is known — exact outer reserve, no vector-of-vectors growth
  // relocations on the hot path.
  if (p < 1) throw std::invalid_argument("k-clique enumeration: p < 1");
  CliqueDag dag = degeneracy_dag(g);
  CliqueScratch scratch;
  std::vector<NodeId> flat;
  list_dag_cliques(dag, p, scratch, flat, 0, dag.node_count());
  const auto width = static_cast<std::size_t>(p);
  const auto cas = [](NodeId& a, NodeId& b) {  // branchless compare-swap
    const NodeId lo = std::min(a, b);
    b = std::max(a, b);
    a = lo;
  };
  std::vector<Clique> result;
  result.reserve(flat.size() / width);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    // Canonicalize in the flat buffer. Sorting networks for the common
    // widths (optimal compare-swap counts, no data-dependent branches);
    // insertion sort above that.
    NodeId* c = flat.data() + at;
    switch (width) {
      case 2:
        cas(c[0], c[1]);
        break;
      case 3:
        cas(c[0], c[2]); cas(c[0], c[1]); cas(c[1], c[2]);
        break;
      case 4:
        cas(c[0], c[2]); cas(c[1], c[3]); cas(c[0], c[1]); cas(c[2], c[3]);
        cas(c[1], c[2]);
        break;
      case 5:
        cas(c[0], c[3]); cas(c[1], c[4]); cas(c[0], c[2]); cas(c[1], c[3]);
        cas(c[0], c[1]); cas(c[2], c[4]); cas(c[1], c[2]); cas(c[3], c[4]);
        cas(c[2], c[3]);
        break;
      default:
        for (std::size_t i = 1; i < width; ++i) {
          const NodeId x = c[i];
          std::size_t j = i;
          for (; j > 0 && c[j - 1] > x; --j) c[j] = c[j - 1];
          c[j] = x;
        }
        break;
    }
    result.emplace_back(flat.begin() + static_cast<std::ptrdiff_t>(at),
                        flat.begin() + static_cast<std::ptrdiff_t>(at + width));
  }
  return result;
}

std::uint64_t count_k_cliques(const Graph& g, int p) {
  if (p < 1) throw std::invalid_argument("k-clique enumeration: p < 1");
  if (p == 1) return static_cast<std::uint64_t>(g.node_count());
  CliqueDag dag = degeneracy_dag(g);
  CliqueScratch scratch;
  return CliqueWalk<false, false>(dag, scratch, nullptr)
      .run(p, 0, dag.node_count());
}

std::uint64_t count_k_cliques_naive(const Graph& g, int p) {
  if (p < 1) throw std::invalid_argument("k-clique counting: p < 1");
  if (p == 1) return static_cast<std::uint64_t>(g.node_count());
  // Recursion over id-increasing neighbor chains; independent of the
  // degeneracy machinery above. `depth` = number of vertices chosen so far.
  std::uint64_t count = 0;
  // Per-depth candidate buffers: one allocation per depth serves the
  // whole recursion.
  std::vector<std::vector<NodeId>> scratch(static_cast<std::size_t>(p));
  auto recurse = [&](auto&& self, std::span<const NodeId> cands,
                     int depth) -> void {
    if (depth == p) {
      ++count;
      return;
    }
    std::vector<NodeId>& next = scratch[static_cast<std::size_t>(depth)];
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const NodeId u = cands[i];
      intersect_into(cands.subspan(i + 1),
                     g.neighbors(u), next);
      self(self, next, depth + 1);
    }
  };
  std::vector<NodeId> cands;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    cands.clear();
    for (NodeId w : g.neighbors(v)) {
      if (w > v) cands.push_back(w);
    }
    recurse(recurse, cands, 1);
  }
  return count;
}

bool is_clique(const Graph& g, std::span<const NodeId> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i] == nodes[j]) return false;
      if (!g.has_edge(nodes[i], nodes[j])) return false;
    }
  }
  return true;
}

namespace {

void bron_kerbosch(const Graph& g, std::vector<NodeId>& r,
                   std::vector<NodeId> p_set, std::vector<NodeId> x_set,
                   std::vector<Clique>& out) {
  if (p_set.empty()) {
    if (x_set.empty()) out.push_back(r);
    return;  // nothing to branch on either way
  }
  // Pivot: vertex of P ∪ X with the most neighbors in P.
  NodeId pivot = -1;
  std::size_t best = 0;
  for (const auto* side : {&p_set, &x_set}) {
    for (NodeId u : *side) {
      const std::size_t cnt = intersect_count(p_set, g.neighbors(u));
      if (pivot == -1 || cnt > best) {
        pivot = u;
        best = cnt;
      }
    }
  }
  const auto pivot_nbrs = g.neighbors(pivot);
  std::vector<NodeId> branch;
  for (NodeId v : p_set) {
    if (!sorted_contains(pivot_nbrs, v)) branch.push_back(v);
  }
  for (NodeId v : branch) {
    const auto v_nbrs = g.neighbors(v);
    std::vector<NodeId> p_next, x_next;
    intersect_into(p_set, v_nbrs, p_next);
    intersect_into(x_set, v_nbrs, x_next);
    r.push_back(v);
    bron_kerbosch(g, r, std::move(p_next), std::move(x_next), out);
    r.pop_back();
    p_set.erase(std::find(p_set.begin(), p_set.end(), v));
    x_set.insert(std::lower_bound(x_set.begin(), x_set.end(), v), v);
  }
}

}  // namespace

std::vector<Clique> maximal_cliques(const Graph& g) {
  std::vector<Clique> out;
  if (g.node_count() == 0) return out;
  std::vector<NodeId> p_set(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    p_set[static_cast<std::size_t>(v)] = v;
  }
  std::vector<NodeId> r;
  bron_kerbosch(g, r, std::move(p_set), {}, out);
  for (auto& c : out) std::sort(c.begin(), c.end());
  return out;
}

int clique_number(const Graph& g) {
  int best = 0;
  for (const auto& c : maximal_cliques(g)) {
    best = std::max(best, static_cast<int>(c.size()));
  }
  return best;
}

}  // namespace dcl
