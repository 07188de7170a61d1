// Flat delivery arena shared by the CONGEST / CONGESTED CLIQUE simulators.
//
// A communication phase queues (from, to, msg) triples in arbitrary send
// order; the contract of `inbox(v)` is "messages for v ordered by (sender,
// send order)". The old implementation materialized one std::vector per
// recipient and ran a std::stable_sort per phase — per-phase allocation
// churn on n vectors plus an O(M log M) sort on the hot delivery path.
//
// The per-recipient receive counts the networks already track make the sort
// unnecessary: delivery is a two-pass LSD counting sort into ONE contiguous
// `Delivery` arena. Counting sort is stable by construction, so scattering
// by sender first and by recipient second leaves every inbox ordered by
// (sender, send order) — bit-identical to the old stable_sort — with zero
// per-phase allocations once the arena has warmed up. `inbox(v)` is an O(1)
// offset read returned as a std::span over the arena.
//
// Sparse phases: the counting passes are generation-stamped instead of
// zero-filled. A phase that touches d distinct endpoints histograms and
// prefix-sums only those d slots (a stale stamp reads as "count 0 / empty
// inbox"), so delivery costs
// O(traffic + d log d) instead of two O(n) fills — the regime that matters
// on million-node graphs where a phase moves a handful of messages. Dense
// phases (d ≥ n/4) fall back to the classic full passes, which stamp every
// slot in one sweep and avoid the sort of the touched list; both paths
// produce byte-identical arenas.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/message.h"

namespace dcl {

/// A message sitting in a network's send queue.
struct QueuedMessage {
  NodeId from;
  NodeId to;
  Message msg;
};

class DeliveryArena {
 public:
  /// Sizes the offset tables for `n` recipients and empties all inboxes.
  void reset(NodeId n) {
    n_ = n;
    const auto slots = static_cast<std::size_t>(n);
    send_stamp_.assign(slots, 0);
    send_cursor_.assign(slots, 0);
    recv_stamp_.assign(slots, 0);
    recv_begin_.assign(slots, 0);
    recv_count_.assign(slots, 0);
    recv_cursor_.assign(slots, 0);
    generation_ = 0;
    arena_.clear();
    valid_ = true;
  }

  /// Empties every inbox without releasing memory (phase start: the
  /// previous phase's deliveries stop being visible).
  void invalidate() { valid_ = false; }

  /// Delivers `queue`, leaving each inbox ordered by (sender, send order).
  /// Two stable counting-sort passes: by sender into scratch, then by
  /// recipient into the arena. Stamped histograms: cost is
  /// O(|queue| + distinct·log distinct), never O(n), on sparse phases.
  // dcl-hot
  void deliver(std::span<const QueuedMessage> queue) {
    // dcl-lint: allow(sem-hot-alloc): scratch warms once, then never regrows
    scratch_.resize(queue.size());
    const std::uint64_t gen = ++generation_;
    touched_.clear();
    for (const QueuedMessage& q : queue) {
      const auto s = static_cast<std::size_t>(q.from);
      if (send_stamp_[s] != gen) {
        send_stamp_[s] = gen;
        send_cursor_[s] = 0;
        // dcl-lint: allow(sem-hot-alloc): n-bounded; capacity persists
        touched_.push_back(q.from);
      }
      ++send_cursor_[s];
    }
    if (dense(touched_.size())) {
      // Dense fallback: one full histogram sweep beats sorting the
      // touched list. Every slot is re-stamped so the two paths share
      // the same cursor state.
      std::uint64_t offset = 0;
      for (std::size_t s = 0; s < send_stamp_.size(); ++s) {
        const std::uint64_t count =
            send_stamp_[s] == gen ? send_cursor_[s] : 0;
        send_stamp_[s] = gen;
        send_cursor_[s] = offset;
        offset += count;
      }
    } else {
      // Contiguous sender regions must ascend in sender id for the final
      // inbox order to match the dense execution bit for bit.
      std::sort(touched_.begin(), touched_.end());
      std::uint64_t offset = 0;
      for (const NodeId v : touched_) {
        const auto s = static_cast<std::size_t>(v);
        const std::uint64_t count = send_cursor_[s];
        send_cursor_[s] = offset;
        offset += count;
      }
    }
    for (const QueuedMessage& q : queue) {
      scratch_[send_cursor_[static_cast<std::size_t>(q.from)]++] = q;
    }
    deliver_grouped_by_sender(scratch_);
  }

  /// Messages delivered to `v`, ordered by (sender, send order). Empty
  /// between invalidate() and the next deliver call, and for every
  /// recipient the latest delivery did not touch (stale stamp). The span
  /// is valid until the next deliver/reset.
  std::span<const Delivery> inbox(NodeId v) const {
    const auto r = static_cast<std::size_t>(v);
    if (!valid_ || recv_stamp_[r] != generation_) return {};
    return {arena_.data() + recv_begin_[r],
            static_cast<std::size_t>(recv_count_[r])};
  }

  /// Total deliveries in the arena (0 when invalidated).
  std::size_t delivered_count() const { return valid_ ? arena_.size() : 0; }

 private:
  /// Second pass of `deliver`: `queue` is already grouped by sender in
  /// increasing sender order, so one stable counting-sort pass by
  /// recipient finishes the (sender, send order) inbox order.
  // dcl-hot
  void deliver_grouped_by_sender(std::span<const QueuedMessage> queue) {
    const std::uint64_t gen = ++generation_;
    touched_.clear();
    for (const QueuedMessage& q : queue) {
      const auto r = static_cast<std::size_t>(q.to);
      if (recv_stamp_[r] != gen) {
        recv_stamp_[r] = gen;
        recv_count_[r] = 0;
        // dcl-lint: allow(sem-hot-alloc): n-bounded; capacity persists
        touched_.push_back(q.to);
      }
      ++recv_count_[r];
    }
    // dcl-lint: allow(sem-hot-alloc): arena warms once (see class comment)
    arena_.resize(queue.size());
    if (dense(touched_.size())) {
      std::uint64_t offset = 0;
      for (std::size_t r = 0; r < recv_stamp_.size(); ++r) {
        const std::uint64_t count = recv_stamp_[r] == gen ? recv_count_[r] : 0;
        recv_stamp_[r] = gen;
        recv_count_[r] = count;
        recv_begin_[r] = offset;
        recv_cursor_[r] = offset;
        offset += count;
      }
    } else {
      // Recipient region order does not affect any single inbox's
      // contents (each is filled from the sender-ordered queue), but
      // sorting keeps the arena layout identical to the dense path.
      std::sort(touched_.begin(), touched_.end());
      std::uint64_t offset = 0;
      for (const NodeId v : touched_) {
        const auto r = static_cast<std::size_t>(v);
        recv_begin_[r] = offset;
        recv_cursor_[r] = offset;
        offset += recv_count_[r];
      }
    }
    for (const QueuedMessage& q : queue) {
      arena_[recv_cursor_[static_cast<std::size_t>(q.to)]++] = {q.from, q.msg};
    }
    valid_ = true;
  }

  /// Above this touched fraction the full sweep is cheaper than sorting
  /// the touched list.
  bool dense(std::size_t touched) const {
    return touched * 4 >= static_cast<std::size_t>(n_);
  }

  NodeId n_ = 0;
  bool valid_ = false;
  std::uint64_t generation_ = 0;
  std::vector<Delivery> arena_;
  std::vector<QueuedMessage> scratch_;
  // Cursor/offset tables are positions into a phase's traffic — edge-scale
  // and beyond (a Lenzen routing phase moves O(m) messages), so 64-bit.
  // Only the stamps were 64-bit before; a >2^32-message phase would have
  // wrapped the 32-bit cursors and scattered deliveries on top of each
  // other.
  std::vector<NodeId> touched_;            // distinct endpoints, this pass
  std::vector<std::uint64_t> send_stamp_;  // sender-pass generation stamps
  std::vector<std::uint64_t> send_cursor_; // sender histogram, then cursors
  std::vector<std::uint64_t> recv_stamp_;  // recipient-pass stamps
  std::vector<std::uint64_t> recv_begin_;  // per-recipient arena offsets
  std::vector<std::uint64_t> recv_count_;  // per-recipient inbox sizes
  std::vector<std::uint64_t> recv_cursor_; // scatter cursors
};

}  // namespace dcl
