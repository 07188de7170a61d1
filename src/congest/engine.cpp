#include "congest/engine.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>

#include "common/telemetry.h"
#include "congest/delivery_arena.h"

namespace dcl {

namespace {

std::string stall_message(std::int64_t round, std::int64_t in_flight,
                          std::int64_t last_progress_round) {
  return "CongestEngine: watchdog: no quiescence after " +
         std::to_string(round) + " rounds (" + std::to_string(in_flight) +
         " messages in flight, last progress at round " +
         std::to_string(last_progress_round) + ")";
}

}  // namespace

EngineStallError::EngineStallError(std::int64_t round_, std::int64_t in_flight_,
                                   std::int64_t last_progress_round_)
    : std::runtime_error(
          stall_message(round_, in_flight_, last_progress_round_)),
      round(round_),
      in_flight(in_flight_),
      last_progress_round(last_progress_round_) {}

void RoundApi::send(NodeId to, const Message& msg) {
  const auto nbrs = g_->neighbors(self_);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), to);
  if (it == nbrs.end() || *it != to) {
    throw std::invalid_argument("RoundApi: send to non-neighbor");
  }
  const auto pos = static_cast<std::size_t>(it - nbrs.begin());
  if (sent_to_[pos]) {
    throw std::logic_error(
        "RoundApi: CONGEST allows one message per neighbor per round");
  }
  sent_to_[pos] = true;
  outgoing_.emplace_back(to, msg);
}

CongestEngine::CongestEngine(const Graph& g, const ProgramFactory& factory)
    : g_(&g) {
  programs_.reserve(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    programs_.push_back(factory(v));
  }
}

std::int64_t CongestEngine::run(std::int64_t max_rounds) {
  // Telemetry: one span per engine run; the round loop below is sequential
  // by construction, so the per-round arena high-water gauge is exact.
  TraceCollector* const telemetry = active_telemetry();
  SpanGuard run_span(telemetry, "engine-run", "congest");
  std::int64_t arena_hwm = 0;
  const NodeId n = g_->node_count();
  std::vector<RoundApi> apis;
  apis.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) apis.emplace_back(v, *g_);

  for (NodeId v = 0; v < n; ++v) {
    programs_[static_cast<std::size_t>(v)]->on_start(apis[static_cast<std::size_t>(v)]);
  }

  // Flat round buffers, reused across rounds: one queue of outgoing
  // messages (collected in node order, so it arrives grouped by sender) and
  // one delivery arena replacing the per-round vector-of-vectors inboxes.
  DeliveryArena arena;
  arena.reset(n);
  std::vector<QueuedMessage> round_queue;
  // Fault mode only: messages in flight, keyed by the absolute round at
  // which they arrive (retransmission backoff and delay-by-k both turn into
  // late delivery — the engine literally executes the recovery rounds, so
  // their cost is charged through the run length itself).
  std::map<std::int64_t, std::vector<QueuedMessage>> delayed;
  const bool faulting = faults_ != nullptr && faults_->active();
  std::vector<char> dead(static_cast<std::size_t>(n), 0);
  std::uint64_t retransmitted = 0;
  std::uint64_t lost = 0;
  std::int64_t round = 0;
  std::int64_t last_progress = -1;
  std::uint64_t messages = 0;
  while (round < max_rounds) {
    if (faulting) {
      for (const CrashEvent& c : faults_->crashes()) {
        if (c.clock <= round && c.node >= 0 && c.node < n) {
          dead[static_cast<std::size_t>(c.node)] = 1;
        }
      }
    }
    // Deliver what nodes queued (either in on_start or last on_round).
    round_queue.clear();
    for (NodeId v = 0; v < n; ++v) {
      auto& api = apis[static_cast<std::size_t>(v)];
      if (!dead[static_cast<std::size_t>(v)]) {
        for (auto& [to, msg] : api.outgoing_) {
          round_queue.push_back({v, to, msg});
        }
      }
      api.outgoing_.clear();
      std::fill(api.sent_to_.begin(), api.sent_to_.end(), false);
    }
    messages += round_queue.size();
    if (faulting) {
      // Run the ack/retransmit protocol per fresh message; survivors arrive
      // `extra_rounds` late. Duplicated copies are suppressed by the
      // receiver's sequence filter — counted, never delivered twice.
      for (std::size_t i = 0; i < round_queue.size(); ++i) {
        const QueuedMessage& qm = round_queue[i];
        const FaultPlan::MessageOutcome o = faults_->recover(
            round, FaultPlan::edge_key(qm.from, qm.to),
            static_cast<std::uint64_t>(i));
        retransmitted += static_cast<std::uint64_t>(o.retransmissions) +
                         static_cast<std::uint64_t>(o.duplicates);
        if (o.lost) {
          ++lost;
        } else {
          delayed[round + o.extra_rounds].push_back(qm);
        }
      }
      // This round's arrivals: everything whose delivery round has come,
      // minus deliveries addressed to nodes that have since crashed.
      // Re-grouping by sender keeps inboxes sender-sorted (send order is
      // preserved within a sender — stable sort).
      round_queue.clear();
      if (const auto it = delayed.find(round); it != delayed.end()) {
        for (const QueuedMessage& qm : it->second) {
          if (!dead[static_cast<std::size_t>(qm.to)]) {
            round_queue.push_back(qm);
          }
        }
        delayed.erase(it);
      }
      std::stable_sort(round_queue.begin(), round_queue.end(),
                       [](const QueuedMessage& a, const QueuedMessage& b) {
                         return a.from < b.from;
                       });
    }
    // Collection order is (sender, send order); the counting-sort pass by
    // recipient keeps each inbox sorted by sender, as before.
    arena.deliver_grouped_by_sender(round_queue);
    arena_hwm =
        std::max(arena_hwm, static_cast<std::int64_t>(round_queue.size()));
    if (!round_queue.empty()) last_progress = round;

    bool any_active = false;
    for (NodeId v = 0; v < n; ++v) {
      auto& api = apis[static_cast<std::size_t>(v)];
      api.round_ = round;
      if (dead[static_cast<std::size_t>(v)]) continue;  // crash-stop
      if (programs_[static_cast<std::size_t>(v)]->on_round(api,
                                                           arena.inbox(v))) {
        any_active = true;
      }
    }
    ++round;
    // Quiescence: this round's deliveries were consumed by the on_round
    // calls above, so once every node is done and nothing new is queued the
    // run is over — no extra charged round for in-flight bookkeeping.
    bool queued = false;
    for (const auto& api : apis) queued |= !api.outgoing_.empty();
    if (!any_active && !queued && delayed.empty()) break;
    if (round >= max_rounds) {
      std::int64_t in_flight = 0;
      for (const auto& api : apis) {
        in_flight += static_cast<std::int64_t>(api.outgoing_.size());
      }
      for (const auto& [when, batch] : delayed) {
        in_flight += static_cast<std::int64_t>(batch.size());
      }
      throw EngineStallError(round, in_flight, last_progress);
    }
  }
  ledger_.charge_exchange("engine-run", static_cast<double>(round), messages);
  if (retransmitted > 0) {
    // The recovery *rounds* are inside the run length above; this entry
    // surfaces the extra copies in the retry counters without re-charging
    // rounds.
    ledger_.charge_retry("engine-run [retry]", 0.0, retransmitted);
  }
  if (lost > 0) {
    lost_messages_ += lost;
    ledger_.note_lost(lost);
  }
  if (telemetry != nullptr) {
    run_span.sync_to(ledger_.total_rounds(), ledger_.total_messages());
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("engine.runs", 1);
    metrics.counter_add("engine.rounds", static_cast<std::uint64_t>(round));
    metrics.counter_add("engine.messages", messages);
    metrics.counter_add("engine.retransmitted", retransmitted);
    metrics.counter_add("engine.lost", lost);
    metrics.gauge_max("engine.arena_hwm", arena_hwm);
  }
  return round;
}

}  // namespace dcl
