// Deterministic, replayable fault injection for the listing pipelines.
//
// The paper analyzes a fault-free synchronous network; a serving deployment
// does not get one. This module is the single source of truth for *which*
// deliveries misbehave: a seeded `FaultPlan` decides — as a pure function
// of (seed, logical clock, edge/phase key, message index, attempt number),
// with no wall-clock and no global RNG — whether an individual delivery is
// dropped, duplicated, or delayed by k rounds, and which nodes crash at
// which clock ticks. Identical (spec, traffic) pairs therefore produce
// identical fault histories at any thread count, and every decision the
// plan hands out is *recorded*, so a failing chaos run serializes to a
// text schedule that replays exactly (`serialize`/`deserialize`).
//
// Recovery semantics (shared by every consumer — see docs/ROBUSTNESS.md):
// deliveries ride a sequence-numbered ack protocol with a bounded retry
// budget. A dropped copy is retransmitted after an exponentially backed-off
// wait (attempt t costs 2^(t-1) extra rounds); a duplicated copy is
// discarded by the receiver's sequence filter; a delay of k ≤ max_delay
// rounds stays inside the ack timeout and is waited out. A message whose
// every attempt (1 + max_retries of them) is dropped is *lost* — the
// consumer must degrade explicitly. All recovery cost is charged to the
// `RoundLedger` retry counters; none of it is hidden.
//
// One consumption style: the listing pipelines (arb_list / kp_lister /
// sparse_cc) charge accounting-level phases and never materialize their
// messages, so `recover_phase()` folds the per-message outcomes of a whole
// phase (`recover()` is one message's step), keyed by the phase label;
// `FaultSession` threads the clock and the detected-crash set through the
// pipeline and wraps the ledger charges.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "congest/round_ledger.h"
#include "graph/edge_mask.h"
#include "graph/graph.h"

namespace dcl {

/// A node failing permanently at a chosen logical clock tick (crash-stop:
/// from `clock` on it sends nothing, receives nothing, and never recovers).
struct CrashEvent {
  NodeId node = -1;
  std::int64_t clock = 0;
  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

/// The generative half of a fault plan: rates, budgets, seed, crashes.
/// Parsed from / printed to the one-line text form used by `dcl --faults`:
///
///   drop=0.1,dup=0.05,delay=0.02:3,retries=4,seed=7,crash=5@2,crash=9@0
///
/// `delay=RATE:K` delays the affected delivery by 1..K rounds (K defaults
/// to 1); `retries` is the per-message retransmission budget; `crash=V@C`
/// kills node V at clock C. Unknown keys and malformed values raise
/// `std::runtime_error` with a one-line message.
struct FaultSpec {
  double drop_rate = 0.0;
  double dup_rate = 0.0;
  double delay_rate = 0.0;
  int max_delay = 1;
  int max_retries = 4;
  std::uint64_t seed = 1;
  std::vector<CrashEvent> crashes;

  bool enabled() const {
    return drop_rate > 0.0 || dup_rate > 0.0 || delay_rate > 0.0 ||
           !crashes.empty();
  }

  static FaultSpec parse(const std::string& text);
  std::string to_text() const;
};

enum class FaultAction : std::uint8_t { deliver, drop, duplicate, delay };

const char* to_string(FaultAction action);

struct FaultDecision {
  FaultAction action = FaultAction::deliver;
  int delay = 0;  ///< rounds, for FaultAction::delay
};

/// One recorded non-deliver decision (the replay schedule entry).
struct FaultEvent {
  std::int64_t clock = 0;
  std::uint64_t key = 0;
  std::uint64_t index = 0;
  int attempt = 0;
  FaultDecision decision;
};

class FaultPlan {
 public:
  /// Inert plan: decides `deliver` for everything, `enabled() == false`.
  FaultPlan() = default;
  explicit FaultPlan(FaultSpec spec) : spec_(std::move(spec)) {}

  const FaultSpec& spec() const { return spec_; }
  bool enabled() const { return spec_.enabled(); }
  /// True when decisions come from a deserialized schedule instead of the
  /// seeded hash.
  bool replaying() const { return replay_; }
  /// The one "fault plane on" rule: a plan with faults to inject or a
  /// schedule to replay. Every consumer gates its hooks on this.
  bool active() const { return enabled() || replaying(); }

  /// Key for a directed communication edge (no pipeline keys by edge; the
  /// key space is kept disjoint from `label_key`'s).
  static std::uint64_t edge_key(NodeId from, NodeId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }
  /// Key for an accounting-level phase (FNV-1a over the label, top bit set
  /// so phase keys can never collide with edge keys).
  static std::uint64_t label_key(std::string_view label);

  /// The fate of attempt `attempt` of message `index` on `key` at `clock`.
  /// Generative mode: a pure seeded hash, recorded into the schedule;
  /// replay mode: looked up in the deserialized schedule (absent = deliver).
  FaultDecision decide(std::int64_t clock, std::uint64_t key,
                       std::uint64_t index, int attempt);

  const std::vector<CrashEvent>& crashes() const { return spec_.crashes; }

  /// Outcome of running the ack/retransmit protocol for one message.
  struct MessageOutcome {
    std::int64_t extra_rounds = 0;  ///< backoff waits + delivery delay
    int retransmissions = 0;        ///< extra copies sent after drops
    int duplicates = 0;             ///< extra copies from duplication
    bool lost = false;              ///< every attempt dropped
  };
  MessageOutcome recover(std::int64_t clock, std::uint64_t key,
                         std::uint64_t index);

  /// Folded outcomes of a whole phase's `messages` deliveries. Edges run in
  /// parallel, so the phase's recovery cost in rounds is the *maximum*
  /// per-message extra-rounds, while retransmitted copies sum.
  struct PhaseFaults {
    std::int64_t retry_rounds = 0;
    std::uint64_t retransmitted = 0;  ///< retransmissions + duplicate copies
    std::uint64_t dropped = 0;        ///< deliveries that needed >= 1 retry
    std::uint64_t lost = 0;           ///< beyond the retry budget
  };
  PhaseFaults recover_phase(std::int64_t clock, std::uint64_t key,
                            std::uint64_t messages);

  /// Every non-deliver decision handed out so far, in decision order.
  const std::vector<FaultEvent>& schedule() const { return schedule_; }

  /// Text schedule: the spec line plus every recorded event. A plan
  /// deserialized from this output replays those exact decisions.
  void serialize(std::ostream& out) const;
  static FaultPlan deserialize(std::istream& in);

 private:
  FaultSpec spec_;
  bool replay_ = false;
  std::vector<FaultEvent> schedule_;
  // (clock, key, index, attempt) -> decision, replay mode only. Chaos
  // schedules are small (they hold faults, not traffic), so an ordered map
  // keeps the format trivially diffable without a perf cost.
  std::map<std::tuple<std::int64_t, std::uint64_t, std::uint64_t, int>,
           FaultDecision>
      replay_events_;
};

/// Mutable per-run fault state threaded through a listing pipeline: the
/// logical phase clock, the set of crashes detected so far, and the loss
/// tally. Every pipeline run holds one session and calls its hooks
/// unconditionally; `plan == nullptr` (or an inactive plan) makes every
/// hook a no-op so the fault plane costs nothing when off.
struct FaultSession {
  FaultPlan* plan = nullptr;
  std::int64_t clock = 0;
  std::vector<char> dead;  ///< detected crashed nodes (sized on first use)
  std::uint64_t lost_messages = 0;
  std::uint64_t crash_timeouts = 0;  ///< missed-phase timeout rounds charged
  /// Set when a cluster lost too many members and fell back to broadcast
  /// listing (the crash-degraded path).
  bool crash_degraded = false;

  bool active() const { return plan != nullptr && plan->active(); }
  bool is_dead(NodeId v) const {
    return static_cast<std::size_t>(v) < dead.size() &&
           dead[static_cast<std::size_t>(v)] != 0;
  }
  std::size_t dead_count() const;

  /// Marks every node whose crash clock has passed as dead; returns the
  /// *newly* detected ones in ascending node order. Detection is the
  /// missed-phase timeout of docs/ROBUSTNESS.md: the caller charges one
  /// timeout round per non-empty detection sweep via `charge_crash_timeout`.
  std::vector<NodeId> detect_crashes(NodeId n);

  /// Charges the one-round missed-phase timeout that detected `newly_dead`.
  void charge_crash_timeout(RoundLedger& ledger, std::size_t newly_dead);

  /// Clears every set edge of `mask` (over `g`'s edge ids) with a detected
  /// dead endpoint; a no-op while no node is dead.
  void drop_dead_edges(const Graph& g, EdgeMask& mask) const;

  /// Charges `label` exactly as `ledger.charge_exchange` would, then — with
  /// an active plan — injects faults into the phase's messages and charges
  /// the recovery as a separate "<label> [retry]" entry feeding the retry
  /// counters, advancing the phase clock. Returns the permanently lost
  /// message count (0 when recovery succeeded or faults are off).
  std::uint64_t charge_exchange(RoundLedger& ledger, std::string label,
                                double rounds, std::uint64_t messages);

  /// Fault injection for a phase whose base cost was already charged by a
  /// callee (e.g. broadcast_listing): only the retry entry and the clock
  /// advance. Losses beyond the retry budget escalate to a charged
  /// "<label> [resend]" phase (accounting-level pipelines keep their exact
  /// output; the degradation is the extra cost — see docs/ROBUSTNESS.md).
  /// Returns the lost count.
  std::uint64_t inject(RoundLedger& ledger, const std::string& label,
                       std::uint64_t messages);
};

}  // namespace dcl
