#include "congest/congest_network.h"

#include <algorithm>
#include <stdexcept>

#include "common/telemetry.h"

namespace dcl {

CongestNetwork::CongestNetwork(const Graph& g) : g_(&g) {
  arena_.reset(g.node_count());
  edge_load_.assign(static_cast<std::size_t>(2 * g.edge_count()), 0);
}

void CongestNetwork::begin_phase(std::string label) {
  if (phase_open_) {
    throw std::logic_error("CongestNetwork: phase already open");
  }
  phase_label_ = std::move(label);
  phase_open_ = true;
  queue_.clear();
  arena_.invalidate();
  phase_span_ = -1;
  if (TraceCollector* telemetry = active_telemetry()) {
    telemetry->sync_to(ledger_.total_rounds(), ledger_.total_messages());
    phase_span_ = telemetry->begin_span(phase_label_, "congest-phase");
  }
}

void CongestNetwork::send(NodeId from, NodeId to, const Message& msg) {
  if (!phase_open_) {
    throw std::logic_error("CongestNetwork: send outside of a phase");
  }
  const auto eid = g_->edge_id(from, to);
  if (!eid) {
    throw std::invalid_argument(
        "CongestNetwork: send along a non-edge (" + std::to_string(from) +
        "," + std::to_string(to) + ")");
  }
  const Edge& e = g_->edge(*eid);
  const std::size_t slot =
      2 * static_cast<std::size_t>(*eid) + (from == e.u ? 0u : 1u);
  if (edge_load_[slot] == 0) touched_slots_.push_back(slot);
  ++edge_load_[slot];
  queue_.push_back({from, to, msg});
}

std::int64_t CongestNetwork::end_phase() {
  if (!phase_open_) {
    throw std::logic_error("CongestNetwork: no phase open");
  }
  phase_open_ = false;
  ++phase_count_;
  std::int64_t rounds = 0;
  for (const std::size_t slot : touched_slots_) {
    rounds = std::max(rounds, edge_load_[slot]);
    edge_load_[slot] = 0;  // restore the all-zero invariant for next phase
  }
  touched_slots_.clear();
  // Base charge first: the fault-free communication pattern was executed
  // either way, so this entry stays bit-identical to a fault-free run.
  ledger_.charge_exchange(phase_label_, static_cast<double>(rounds),
                          queue_.size());
  if (faults_ != nullptr && faults_->active()) {
    // Run the ack/retransmit protocol per queued message. Recoverable
    // outcomes keep the message in the inbox (dups are filtered by the
    // receiver's sequence numbers, delays are waited out inside the phase
    // barrier); only budget-exhausted losses are withheld.
    std::int64_t retry_rounds = 0;
    std::uint64_t retransmitted = 0;
    std::uint64_t lost = 0;
    surviving_.clear();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const QueuedMessage& qm = queue_[i];
      const FaultPlan::MessageOutcome o = faults_->recover(
          fault_clock_, FaultPlan::edge_key(qm.from, qm.to),
          static_cast<std::uint64_t>(i));
      retry_rounds = std::max(retry_rounds, o.extra_rounds);
      retransmitted += static_cast<std::uint64_t>(o.retransmissions) +
                       static_cast<std::uint64_t>(o.duplicates);
      if (o.lost) {
        ++lost;
      } else {
        surviving_.push_back(qm);
      }
    }
    ++fault_clock_;
    if (retry_rounds > 0 || retransmitted > 0) {
      ledger_.charge_retry(phase_label_ + " [retry]",
                           static_cast<double>(retry_rounds), retransmitted);
    }
    if (lost > 0) {
      lost_messages_ += lost;
      ledger_.note_lost(lost);
    }
    arena_.deliver(surviving_);
    rounds += retry_rounds;
  } else {
    arena_.deliver(queue_);
  }
  if (TraceCollector* telemetry = active_telemetry()) {
    telemetry->sync_to(ledger_.total_rounds(), ledger_.total_messages());
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("congest.phases", 1);
    metrics.counter_add("congest.messages", queue_.size());
    metrics.gauge_max("congest.arena_hwm",
                      static_cast<std::int64_t>(arena_.delivered_count()));
    telemetry->end_span(phase_span_);
    phase_span_ = -1;
  }
  queue_.clear();
  return rounds;
}

}  // namespace dcl
