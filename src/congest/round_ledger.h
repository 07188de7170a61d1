// Round accounting shared by every simulated algorithm.
//
// Round costs enter the ledger through three channels, one per fidelity
// level of the simulation:
//  * `charge_exchange` — message-level phases whose cost is the exact
//    per-edge congestion measured by the simulator;
//  * `charge_routing`  — intra-cluster routing batches charged by the
//    load/bandwidth formula of Theorem 2.4;
//  * `charge_analytic` — cited-infrastructure costs charged by theorem
//    statement (expander decomposition per Theorem 2.3, ID assignment per
//    Lemma 2.5).
// Every experiment reports the total and can print the audited breakdown.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace dcl {

enum class CostKind { exchange, routing, analytic };

const char* to_string(CostKind kind);

struct CostEntry {
  std::string label;
  CostKind kind = CostKind::exchange;
  double rounds = 0.0;
  std::uint64_t messages = 0;
};

class RoundLedger {
 public:
  void charge_exchange(std::string label, double rounds,
                       std::uint64_t messages) {
    entries_.push_back(
        {std::move(label), CostKind::exchange, rounds, messages});
  }
  void charge_routing(std::string label, double rounds,
                      std::uint64_t messages) {
    entries_.push_back({std::move(label), CostKind::routing, rounds, messages});
  }
  void charge_analytic(std::string label, double rounds) {
    entries_.push_back({std::move(label), CostKind::analytic, rounds, 0});
  }
  /// Recovery cost of the ack/retransmit protocol (fault plane): `rounds`
  /// backoff/delay rounds and `retransmitted` extra message copies. Feeds
  /// both the normal exchange totals and the dedicated retry counters, so
  /// recovery is visible in the audited breakdown *and* separable from the
  /// fault-free cost.
  void charge_retry(std::string label, double rounds,
                    std::uint64_t retransmitted) {
    retry_rounds_ += rounds;
    retransmitted_messages_ += retransmitted;
    entries_.push_back(
        {std::move(label), CostKind::exchange, rounds, retransmitted});
  }
  /// Messages the retry budget could not save (consumer degraded).
  void note_lost(std::uint64_t lost) { lost_messages_ += lost; }

  double total_rounds() const;
  std::uint64_t total_messages() const;
  double rounds_of_kind(CostKind kind) const;

  double retry_rounds() const { return retry_rounds_; }
  std::uint64_t retransmitted_messages() const {
    return retransmitted_messages_;
  }
  std::uint64_t lost_messages() const { return lost_messages_; }

  const std::vector<CostEntry>& entries() const { return entries_; }

  /// Rounds aggregated by label (phases repeat across iterations).
  /// NOTE: this view folds entries of *different kinds* that share a label
  /// into one number — use `breakdown()` when the exchange/routing/analytic
  /// split matters (it does for the audited printout and the run report).
  std::map<std::string, double> rounds_by_label() const;

  /// One (label, kind) aggregate of the audited breakdown.
  struct BreakdownRow {
    std::string label;
    CostKind kind = CostKind::exchange;
    double rounds = 0.0;
    std::uint64_t messages = 0;
  };
  /// Entries aggregated by (label, kind), sorted by (label, kind): unlike
  /// `rounds_by_label`, a label that repeats across kinds (e.g. an
  /// analytic estimate later re-charged as a measured exchange) keeps one
  /// row per kind, and messages ride along.
  std::vector<BreakdownRow> breakdown() const;

  /// Appends all entries of `other`.
  void merge(const RoundLedger& other);

  /// Prints the totals and the audited (label, kind) breakdown with
  /// messages, plus a `recovery:` line when any retry, retransmission or
  /// loss was charged. The label column is sized to the longest label, and
  /// the stream's format flags and precision are restored on exit.
  void print_audited(std::ostream& out) const;

 private:
  std::vector<CostEntry> entries_;
  double retry_rounds_ = 0.0;
  std::uint64_t retransmitted_messages_ = 0;
  std::uint64_t lost_messages_ = 0;
};

}  // namespace dcl
