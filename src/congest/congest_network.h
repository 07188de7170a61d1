// Synchronous CONGEST network simulator.
//
// Model (paper, footnote 1): "the n-node graph G is the communication graph
// and messages of O(log n) bits can be sent in synchronous rounds" — one
// message per edge per direction per round.
//
// Algorithms are written as *phases*: every node enqueues the messages it
// wants to send to specific neighbors, then the network delivers everything
// and charges exactly
//
//     rounds(phase) = max over directed edges (u→v) of #messages queued on it
//
// which is the precise CONGEST cost of executing that communication pattern
// (each directed edge delivers one message per round; all edges progress in
// parallel). This is how the paper itself accounts its phases ("sending each
// of its neighbors a chunk of at most O(n^{d-1/4}) of its outgoing edges").
// This is the one CONGEST message simulator; the listing pipelines charge
// the same per-phase cost straight to their `RoundLedger` as exchanges.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "congest/delivery_arena.h"
#include "congest/fault_plan.h"
#include "congest/message.h"
#include "congest/round_ledger.h"
#include "graph/graph.h"

namespace dcl {

class CongestNetwork {
 public:
  explicit CongestNetwork(const Graph& g);

  const Graph& graph() const { return *g_; }
  RoundLedger& ledger() { return ledger_; }
  const RoundLedger& ledger() const { return ledger_; }

  /// Starts a communication phase; clears all inboxes.
  void begin_phase(std::string label);

  /// Enqueues a message from `from` to its neighbor `to`. Throws if {from,to}
  /// is not an edge of the communication graph — CONGEST nodes can only talk
  /// to neighbors.
  void send(NodeId from, NodeId to, const Message& msg);

  /// Delivers all queued messages, charges the ledger, returns the phase's
  /// round cost (max per-directed-edge congestion; 0 if nothing was sent).
  std::int64_t end_phase();

  /// Messages delivered to `v` in the last completed phase, ordered by
  /// (sender, send order) for determinism. A view into the flat delivery
  /// arena; valid until the next end_phase().
  std::span<const Delivery> inbox(NodeId v) const { return arena_.inbox(v); }

  std::uint64_t phase_count() const { return phase_count_; }

  /// Attaches a fault plan: from the next phase on, every queued message
  /// runs the ack/retransmit recovery protocol in end_phase(). Recoverable
  /// faults leave the inboxes bit-identical (duplicates are discarded by
  /// the sequence filter, delays are waited out, drops are retransmitted)
  /// while their cost lands in the ledger retry counters; messages lost
  /// beyond the retry budget are withheld from the inbox and counted.
  /// `plan == nullptr` detaches.
  void attach_faults(FaultPlan* plan) { faults_ = plan; }
  FaultPlan* faults() const { return faults_; }

  /// Messages permanently lost (retry budget exhausted) since construction.
  std::uint64_t lost_messages() const { return lost_messages_; }
  /// Logical fault clock: the number of faulted phases completed.
  std::int64_t fault_clock() const { return fault_clock_; }

 private:
  const Graph* g_;
  RoundLedger ledger_;
  std::string phase_label_;
  bool phase_open_ = false;
  std::uint64_t phase_count_ = 0;
  std::vector<QueuedMessage> queue_;
  // Congestion counters per directed edge: slot 2e   = lower→higher endpoint,
  //                                        slot 2e+1 = higher→lower.
  // Invariant: all-zero outside an open phase — end_phase() zeroes exactly
  // the slots the phase touched (`touched_slots_`), so a sparse phase costs
  // O(traffic) instead of an O(2m) fill per phase.
  std::vector<std::int64_t> edge_load_;
  std::vector<std::size_t> touched_slots_;
  DeliveryArena arena_;
  FaultPlan* faults_ = nullptr;
  std::int64_t fault_clock_ = 0;
  std::uint64_t lost_messages_ = 0;
  std::vector<QueuedMessage> surviving_;  ///< scratch for faulted phases
  // Telemetry span of the currently open phase (-1 when telemetry is off
  // or no phase is open); phases are strictly begin/end bracketed, so the
  // span nests under whatever pipeline span is open.
  std::int32_t phase_span_ = -1;
};

}  // namespace dcl
