// Sharded per-node execution.
//
// The simulator's heavy per-node loops (cluster-neighbor table builds,
// light-status scans, coverage tables) are embarrassingly parallel over the
// node index, but the round ledger and the listing output must stay
// bit-identical to the sequential execution. This helper therefore fixes a
// deterministic decomposition: [0, n) is split into at most
// `shard_threads()` *contiguous* shards whose boundaries depend only on
// (n, shard count), and the caller merges per-shard buffers in shard order
// (= node order). Shard bodies may write only to per-shard buffers or to
// disjoint per-node slots, and may combine per-shard integers by exact
// (integer) sums or maxima — every such merge is independent of execution
// interleaving, so DCL_THREADS=k produces the same ledger fingerprints and
// clique counts as the single-threaded default (enforced by
// tests/test_parallel_for.cpp).
//
// The default is 1 shard, executed inline on the calling thread: no worker
// pool is ever created unless DCL_THREADS (or set_shard_threads) opts in.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace dcl {

/// Shard count for parallel_for_shards: DCL_THREADS when set (>= 1),
/// otherwise 1. Cached after the first read.
int shard_threads();

/// Overrides the shard count (tests; takes precedence over DCL_THREADS).
void set_shard_threads(int threads);

// ---- Shard-order audit -----------------------------------------------------
//
// The merge contract above ("shard bodies may write only to per-shard
// buffers or disjoint per-node slots; merges are order-independent") is
// what makes DCL_THREADS a pure speed knob — but by itself it is only a
// comment. The audit mode makes it executable: instead of dispatching
// shards to the worker pool, every multi-shard region runs its bodies
// *sequentially on the calling thread* in a permuted order — a seeded
// random permutation (`random`) or exact reverse (`reverse`). A body that
// honours the contract cannot observe the permutation, so every
// fingerprint/clique assertion in the test suites must still land on the
// shard-order values; a body that reads state another shard wrote (the
// race class TSan may miss when the pool happens to serialize) produces a
// different merged result and fails those assertions deterministically.
//
// Enable via the environment (DCL_SHARD_AUDIT=random|reverse|1|0; `1` is
// `random`, read once at first use, DCL_SHARD_AUDIT_SEED seeds the
// permutation stream) or programmatically below. The permutation for
// region k is a pure function of (seed, k), so a failing run replays
// bit-exactly. Off by default: Release builds pay one relaxed atomic load
// per multi-shard region.
enum class ShardAudit { off, random, reverse };

/// Current audit mode: DCL_SHARD_AUDIT on first use, off by default.
ShardAudit shard_audit();

/// Overrides the audit mode (tests; takes precedence over the env).
void set_shard_audit(ShardAudit mode);

namespace parallel_detail {
/// Runs body(0..shards-1) on the persistent worker pool, the calling
/// thread included. Blocks until every shard finished; rethrows the first
/// shard exception.
void run_sharded(int shards, const std::function<void(int)>& body);
}  // namespace parallel_detail

/// Splits [0, n) into min(shard_threads(), n) contiguous shards and runs
/// `body(shard, begin, end)` for each. Shard boundaries are a pure
/// function of (n, shard count, min_grain); with one shard the body runs
/// inline.
///
/// `min_grain` is the smallest index range worth a worker wakeup for this
/// loop: the shard count is capped at n / min_grain, so a loop whose total
/// work cannot amortize the pool's dispatch latency runs inline instead of
/// paying it (measured: DCL_THREADS=4 was a net *loss* on laptop-sized
/// instances before the hot loops set grains). Callers pick the grain by
/// per-index cost; correctness never depends on it — shard merges are
/// order-independent by contract, so any effective shard count produces
/// bit-identical results (tests/test_parallel_for.cpp).
template <typename Body>
void parallel_for_shards(std::int64_t n, Body&& body,
                         std::int64_t min_grain = 1) {
  if (n <= 0) return;
  std::int64_t cap = shard_threads();
  if (min_grain > 1) {
    cap = std::min<std::int64_t>(cap, n / min_grain);
  }
  const int shards = static_cast<int>(
      std::max<std::int64_t>(1, std::min<std::int64_t>(cap, n)));
  if (shards <= 1) {
    body(0, std::int64_t{0}, n);
    return;
  }
  const std::int64_t chunk = n / shards;
  const std::int64_t extra = n % shards;
  const std::function<void(int)> shard_body = [&](int s) {
    const std::int64_t lo =
        s * chunk + std::min<std::int64_t>(s, extra);
    const std::int64_t hi = lo + chunk + (s < extra ? 1 : 0);
    body(s, lo, hi);
  };
  parallel_detail::run_sharded(shards, shard_body);
}

// ---- Weighted-item sharding ------------------------------------------------
//
// Equal-count shards are the wrong decomposition when per-item cost is
// skewed (the q=1 one-huge-cluster regime: a handful of representative
// ranges carry most of the enumeration work). The weighted variant takes a
// per-item work estimate and cuts *contiguous* item ranges of near-equal
// total weight instead. All weight arithmetic is 64-bit end to end:
// out-degree² estimates overflow uint32 far below the graph sizes the
// simulators target (a single 70k-degree hub exceeds 2^32 on its own).

/// Total weight, summed in 64 bits.
inline std::uint64_t weighted_total(std::span<const std::uint64_t> weights) {
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  return total;
}

/// The shard count parallel_for_weighted_shards derives: shard_threads(),
/// capped by the item count and — when a grain is given — by
/// total_weight / min_grain_weight, so a loop whose total estimated work
/// cannot amortize the pool's dispatch latency runs inline instead
/// (measured: grain-less sharding is a net DCL_THREADS=4 *loss* at laptop
/// sizes; the grain rule mirrors parallel_for_shards' min_grain).
inline int weighted_shard_count(std::uint64_t total_weight,
                                std::int64_t item_count,
                                std::uint64_t min_grain_weight = 0) {
  if (item_count <= 0) return 0;
  std::int64_t cap = shard_threads();
  if (min_grain_weight > 0) {
    cap = std::min<std::int64_t>(
        cap, static_cast<std::int64_t>(total_weight / min_grain_weight));
  }
  return static_cast<int>(std::max<std::int64_t>(
      1, std::min<std::int64_t>(cap, item_count)));
}

/// Deterministic floor-then-top-up proportional allocation of weighted
/// items to `shards` contiguous ranges (the Cluster::try_alloc shape:
/// every shard's quota is floor(W/shards), and the W mod shards remainder
/// units top up the leading shards — exactly the chunk/extra rule of
/// parallel_for_shards generalized to weights). Range boundaries are cut
/// where the item-weight prefix sum first meets the cumulative quota, so
/// the result is a pure function of (weights, shards): merge order is
/// stable and independent of scheduling. Returns shards+1 boundaries
/// (bounds[0] = 0, bounds[shards] = n); a range may be empty when one item
/// outweighs several quotas.
std::vector<std::int64_t> weighted_shard_bounds(
    std::span<const std::uint64_t> weights, int shards);

/// Splits the items [0, weights.size()) into weighted_shard_count()
/// contiguous ranges of near-equal estimated work and runs
/// `body(shard, begin, end)` for each (empty ranges included, so shard
/// indices always align with caller-allocated per-shard buffers). With one
/// effective shard — including whenever the total estimated work is below
/// `min_grain_weight` — the body runs inline on the calling thread: the
/// sequential fast path. Same merge contract as parallel_for_shards.
template <typename Body>
void parallel_for_weighted_shards(std::span<const std::uint64_t> weights,
                                  Body&& body,
                                  std::uint64_t min_grain_weight = 0) {
  const auto n = static_cast<std::int64_t>(weights.size());
  if (n <= 0) return;
  const int shards =
      weighted_shard_count(weighted_total(weights), n, min_grain_weight);
  if (shards <= 1) {
    body(0, std::int64_t{0}, n);
    return;
  }
  const std::vector<std::int64_t> bounds =
      weighted_shard_bounds(weights, shards);
  const std::function<void(int)> shard_body = [&](int s) {
    body(s, bounds[static_cast<std::size_t>(s)],
         bounds[static_cast<std::size_t>(s) + 1]);
  };
  parallel_detail::run_sharded(shards, shard_body);
}

}  // namespace dcl
