#include "enumeration/clique_enumeration.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

#include "common/intersect.h"
#include "common/small_sort.h"
#include "graph/orientation.h"

namespace dcl {

// ---------------------------------------------------------------------------
// CliqueSet — canonical rows sorted by (hash, width, ids).
// ---------------------------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hints a cache-line load of `p`. The label-scan loops prefetch the next
/// candidate's CSR segment behind the current scan.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

/// The per-clique hash that `CliqueSet::fingerprint` sums, over sorted ids.
/// Cliques of 1-8 ids hash as one fixed-width key (the ids padded with -1
/// to 8 lanes of 32 bits, mixed 64 bits at a time); the empty clique and
/// wider ones hash id by id. The pinned values are in test_clique_set.cpp
/// and in every `fingerprint_fold32` of BENCH_core.json.
std::uint64_t clique_hash(std::span<const NodeId> sorted) {
  constexpr std::size_t kKeyWidth = 8;
  if (sorted.empty() || sorted.size() > kKeyWidth) {
    std::uint64_t h = 0x2545f4914f6cdd1dULL;
    for (const NodeId v : sorted) {
      h = splitmix64(h ^ static_cast<std::uint32_t>(v));
    }
    return h;
  }
  std::array<NodeId, kKeyWidth> key;
  key.fill(-1);
  std::copy(sorted.begin(), sorted.end(), key.begin());
  const auto lanes = std::bit_cast<std::array<std::uint64_t, 4>>(key);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t lane : lanes) h = splitmix64(h ^ lane);
  return h;
}

/// The width-prefixed row at `start` of `rows`: its width, then its ids.
std::span<const NodeId> row_at(const std::vector<NodeId>& rows,
                               std::size_t start) {
  return {rows.data() + start, 1 + static_cast<std::size_t>(rows[start])};
}

/// Set order: by hash, then by the width-prefixed row (width, then ids).
bool row_less(std::uint64_t ha, std::span<const NodeId> a, std::uint64_t hb,
              std::span<const NodeId> b) {
  if (ha != hb) return ha < hb;
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool row_equal(std::span<const NodeId> a, std::span<const NodeId> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace

CliqueSet::CliqueSet(const std::vector<Clique>& cliques) {
  std::vector<NodeId> rows;
  for (const Clique& c : cliques) {
    rows.push_back(static_cast<NodeId>(c.size()));
    rows.insert(rows.end(), c.begin(), c.end());
  }
  *this = from_rows(std::move(rows));
}

CliqueSet CliqueSet::from_rows(std::vector<NodeId> rows) {
  // Canonicalize every row in place and key it by its hash.
  struct Key {
    std::uint64_t hash;
    std::size_t start;
  };
  std::size_t count = 0;
  for (std::size_t at = 0; at < rows.size();
       at += 1 + static_cast<std::size_t>(rows[at])) {
    ++count;
  }
  std::vector<Key> keys;
  keys.reserve(count);
  for (std::size_t at = 0; at < rows.size();) {
    const auto width = static_cast<std::size_t>(rows[at]);
    const std::span<NodeId> ids(rows.data() + at + 1, width);
    sort_small(ids);
    keys.push_back({clique_hash(ids), at});
    at += 1 + width;
  }
  // Set order in two steps: one counting pass by the hash's top bits
  // spreads the keys over at most 2^16 buckets, a counter array that stays
  // in cache, then each bucket is sorted by the full order. One comparison
  // sort of all keys costs several times more on millions of rows.
  const int bits =
      std::clamp(static_cast<int>(std::bit_width(count)) - 3, 1, 16);
  const auto bucket = [bits](std::uint64_t hash) {
    return static_cast<std::size_t>(hash >> (64 - bits));
  };
  std::vector<std::size_t> fence((std::size_t{1} << bits) + 1, 0);
  for (const Key& k : keys) ++fence[bucket(k.hash) + 1];
  for (std::size_t b = 1; b < fence.size(); ++b) fence[b] += fence[b - 1];
  std::vector<Key> sorted(count);
  {
    std::vector<std::size_t> next(fence.begin(), fence.end() - 1);
    for (const Key& k : keys) sorted[next[bucket(k.hash)]++] = k;
  }
  keys = {};
  const auto less = [&](const Key& a, const Key& b) {
    return row_less(a.hash, row_at(rows, a.start), b.hash,
                    row_at(rows, b.start));
  };
  for (std::size_t b = 0; b + 1 < fence.size(); ++b) {
    std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(fence[b]),
              sorted.begin() + static_cast<std::ptrdiff_t>(fence[b + 1]),
              less);
  }

  // Emit each distinct row once, in set order.
  CliqueSet set;
  set.rows_.reserve(rows.size());
  set.hashes_.reserve(count);
  set.starts_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i + 8 < count) prefetch(rows.data() + sorted[i + 8].start);
    const Key& k = sorted[i];
    const std::span<const NodeId> row = row_at(rows, k.start);
    if (!set.hashes_.empty() && set.hashes_.back() == k.hash &&
        row_equal(row_at(set.rows_, set.starts_.back()), row)) {
      continue;
    }
    set.starts_.push_back(set.rows_.size());
    set.hashes_.push_back(k.hash);
    set.fingerprint_ += k.hash;
    set.rows_.insert(set.rows_.end(), row.begin(), row.end());
  }
  set.rows_.shrink_to_fit();
  set.hashes_.shrink_to_fit();
  set.starts_.shrink_to_fit();
  return set;
}

bool CliqueSet::contains(std::span<const NodeId> clique) const {
  std::vector<NodeId> row(clique.size() + 1);
  row[0] = static_cast<NodeId>(clique.size());
  std::copy(clique.begin(), clique.end(), row.begin() + 1);
  const std::span<NodeId> ids(row.data() + 1, clique.size());
  sort_small(ids);
  const auto [lo, hi] =
      std::equal_range(hashes_.begin(), hashes_.end(), clique_hash(ids));
  for (auto it = lo; it != hi; ++it) {
    const auto i = static_cast<std::size_t>(it - hashes_.begin());
    if (row_equal(row_at(rows_, starts_[i]), row)) return true;
  }
  return false;
}

std::vector<Clique> CliqueSet::difference(const CliqueSet& other) const {
  // Both sides are in set order, so one merge walk finds the rows of this
  // set that `other` lacks.
  std::vector<Clique> out;
  std::size_t j = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    const std::span<const NodeId> row = row_at(rows_, starts_[i]);
    while (j < other.size() &&
           row_less(other.hashes_[j], row_at(other.rows_, other.starts_[j]),
                    hashes_[i], row)) {
      ++j;
    }
    if (j < other.size() && other.hashes_[j] == hashes_[i] &&
        row_equal(row_at(other.rows_, other.starts_[j]), row)) {
      continue;
    }
    out.emplace_back(row.begin() + 1, row.end());
  }
  return out;
}

std::vector<Clique> CliqueSet::to_vector() const {
  std::vector<Clique> out;
  out.reserve(size());
  for_each_span(
      [&](std::span<const NodeId> c) { out.emplace_back(c.begin(), c.end()); });
  return out;
}

// ---------------------------------------------------------------------------
// The degeneracy DAG builder.
// ---------------------------------------------------------------------------

namespace {

/// The shared body of both `degeneracy_dag` overloads over the rows
/// `neighbors(v)` and their peeling `dec`: two branchless passes (count,
/// then compact each row's later neighbors, goal flags riding along).
template <class Rows>
CliqueDag orient_rows(NodeId node_count, Rows neighbors,
                      const DegeneracyResult& dec,
                      std::span<const std::uint8_t> goal) {
  const auto n = static_cast<std::size_t>(node_count);
  std::vector<NodeId> rank(n);
  for (std::size_t i = 0; i < dec.order.size(); ++i) {
    rank[static_cast<std::size_t>(dec.order[i])] = static_cast<NodeId>(i);
  }
  CliqueDag dag;
  dag.offsets.assign(n + 1, 0);
  std::size_t entries = 0;
  for (NodeId v = 0; v < node_count; ++v) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    std::uint64_t c = 0;
    for (const NodeId w : neighbors(v)) {
      c += static_cast<std::uint64_t>(rank[static_cast<std::size_t>(w)] > rv);
    }
    dag.offsets[static_cast<std::size_t>(v) + 1] = c;
    entries += neighbors(v).size();
  }
  if (!goal.empty() && goal.size() != entries) {
    throw std::invalid_argument("degeneracy_dag: one goal flag per entry");
  }
  for (std::size_t v = 0; v < n; ++v) dag.offsets[v + 1] += dag.offsets[v];
  // One pad slot: the compacting write below touches position c even for a
  // skipped neighbor, and for the last node that can be one past its
  // segment (strays inside earlier segments are overwritten by the next
  // node's fill; the counts guarantee every kept slot is written last).
  const auto kept = static_cast<std::size_t>(dag.offsets[n]);
  const bool flagged = !goal.empty();
  dag.adj.resize(kept + 1);
  if (flagged) dag.goal.resize(kept + 1);
  std::size_t entry = 0;
  for (NodeId v = 0; v < node_count; ++v) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    std::uint64_t c = dag.offsets[static_cast<std::size_t>(v)];
    for (const NodeId w : neighbors(v)) {
      dag.adj[c] = w;
      if (flagged) dag.goal[c] = goal[entry++];
      c += static_cast<std::uint64_t>(rank[static_cast<std::size_t>(w)] > rv);
    }
  }
  dag.adj.resize(kept);
  if (flagged) dag.goal.resize(kept);
  return dag;
}

}  // namespace

CliqueDag degeneracy_dag(const Graph& g, std::span<const std::uint8_t> goal) {
  return orient_rows(
      g.node_count(), [&g](NodeId v) { return g.neighbors(v); },
      degeneracy_order(g), goal);
}

CliqueDag degeneracy_dag(std::span<const std::uint64_t> offsets,
                         std::span<const NodeId> adj,
                         std::span<const std::uint8_t> goal) {
  const NodeId n = offsets.empty() ? 0 : to_node(offsets.size() - 1);
  return orient_rows(
      n,
      [&](NodeId v) {
        const auto b = offsets[static_cast<std::size_t>(v)];
        const auto e = offsets[static_cast<std::size_t>(v) + 1];
        return adj.subspan(static_cast<std::size_t>(b),
                           static_cast<std::size_t>(e - b));
      },
      degeneracy_order(offsets, adj), goal);
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

/// Mutable view of a CliqueDag for the kClist-style trimming kernel: at
/// recursion level l, the first `deg[x]` entries of x's row are exactly
/// the out-neighbors of x that survive at that level. Descending one level
/// partitions each surviving candidate's prefix in place (swap survivors to
/// the front, goal flags riding along) and shrinks `deg`; returning
/// restores `deg` from the per-level scratch — the permutation itself never
/// needs undoing, because every deeper survivor set is a subset of the
/// prefix it was carved from. Consequences: the next candidate set is a
/// free span (no filtered copy), and inner scans touch induced degrees
/// instead of full degrees. The last two levels are not trimmed: their
/// rows are read once, by a label scan of the prefixes trimmed one level
/// up, so a trim there would only add swap writes and restores.
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
    return pair_scan(cands, 1, false);
  }

  /// The last two levels: every completing pair (x, w) of `cands` (all
  /// labeled `mark`), found by scanning each x's current row for `mark`
  /// and emitted straight from the scan with the goal flag aligned to it,
  /// with no candidate materialization. A row is current either untrimmed
  /// (p ≤ 3) or trimmed one level up, to a superset of `cands`.
  // dcl-hot
  std::uint64_t pair_scan(std::span<const NodeId> cands, std::uint8_t mark,
                          bool prefix_goal) {
    const std::uint8_t* const label = ws_.label.data();
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (i + 1 < cands.size()) prefetch(sub_.row(cands[i + 1]));
      const NodeId x = cands[i];
      const auto row = sub_.out(x);
      if constexpr (!kEmit) {
        for (const NodeId w : row) {
          total += static_cast<std::uint64_t>(
              label[static_cast<std::size_t>(w)] == mark);
        }
      } else {
        const std::uint8_t* g = kGoal ? sub_.row_goal(x) : nullptr;
        for (std::size_t j = 0; j < row.size(); ++j) {
          const NodeId w = row[j];
          if (label[static_cast<std::size_t>(w)] != mark) continue;
          ++total;
          if (completes_goal(prefix_goal, x, w, kGoal ? g[j] : 0)) emit(x, w);
        }
      }
    }
    return total;
  }

  /// p ≥ 4 recursion over the trimmed view. Entry invariant: every
  /// candidate is labeled `level` and trimmed to the candidate set (the
  /// parent — or the root loop — ran `trim_prefixes`). `remaining` ≥ 3;
  /// at 3 the next candidates are label-scanned (`pair_scan`), not trimmed.
  // dcl-hot
  std::uint64_t trim_level(std::span<const NodeId> cands, std::uint8_t level,
                           int remaining, bool prefix_goal) {
    if (static_cast<int>(cands.size()) < remaining) return 0;
    std::uint64_t total = 0;
    const auto up = static_cast<std::uint8_t>(level + 1);
    const bool trim = remaining > 3;
    std::vector<NodeId>& saved = ws_.saved[static_cast<std::size_t>(level)];
    for (const NodeId u : cands) {
      const auto next = sub_.out(u);  // already trimmed to `cands` — free
      if (static_cast<int>(next.size()) < remaining - 1) continue;
      for (const NodeId x : next) ws_.label[static_cast<std::size_t>(x)] = up;
      if (trim) trim_prefixes<kGoal>(sub_, next, ws_.label, up, saved);
      const bool u_goal =
          prefix_goal ||
          (kGoal && ws_.goal_in[static_cast<std::size_t>(u)] != 0);
      if (!u_goal) shift_goal_in(u, next, 1);
      // dcl-lint: allow(sem-hot-alloc): prefix is reserved to depth p by run()
      if constexpr (kEmit) ws_.prefix.push_back(u);
      total += trim ? trim_level(next, up, remaining - 1, u_goal)
                    : pair_scan(next, up, u_goal);
      if constexpr (kEmit) ws_.prefix.pop_back();
      if (!u_goal) shift_goal_in(u, next, -1);
      for (std::size_t i = 0; i < next.size(); ++i) {
        ws_.label[static_cast<std::size_t>(next[i])] = level;
        if (trim) ws_.deg[static_cast<std::size_t>(next[i])] = saved[i];
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
  std::vector<Clique> result;
  result.reserve(flat.size() / width);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    // Canonicalize in the flat buffer.
    sort_small(std::span<NodeId>(flat.data() + at, width));
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
