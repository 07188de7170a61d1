#include "congest/fault_plan.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/telemetry.h"

namespace dcl {

namespace {

/// SplitMix64 finalizer: the avalanche mix every decision hash chains
/// through. Identical bit pattern on every platform.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from the top 53 bits.
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double parse_rate(const std::string& value, const std::string& key) {
  std::size_t used = 0;
  double rate = 0.0;
  try {
    rate = std::stod(value, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != value.size() || rate < 0.0 || rate > 1.0) {
    throw std::runtime_error("FaultSpec: bad rate for '" + key + "': '" +
                             value + "' (want a number in [0,1])");
  }
  return rate;
}

std::int64_t parse_int_field(const std::string& value, const std::string& key) {
  std::size_t used = 0;
  std::int64_t v = 0;
  try {
    v = std::stoll(value, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != value.size()) {
    throw std::runtime_error("FaultSpec: bad integer for '" + key + "': '" +
                             value + "'");
  }
  return v;
}

}  // namespace

const char* to_string(FaultAction action) {
  switch (action) {
    case FaultAction::deliver:
      return "deliver";
    case FaultAction::drop:
      return "drop";
    case FaultAction::duplicate:
      return "dup";
    case FaultAction::delay:
      return "delay";
  }
  return "?";
}

FaultSpec FaultSpec::parse(const std::string& text) {
  FaultSpec spec;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("FaultSpec: expected key=value, got '" + item +
                               "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "drop") {
      spec.drop_rate = parse_rate(value, key);
    } else if (key == "dup") {
      spec.dup_rate = parse_rate(value, key);
    } else if (key == "delay") {
      // RATE or RATE:K
      const auto colon = value.find(':');
      spec.delay_rate = parse_rate(value.substr(0, colon), key);
      if (colon != std::string::npos) {
        const std::int64_t k =
            parse_int_field(value.substr(colon + 1), "delay bound");
        if (k < 1 || k > 1'000'000) {
          throw std::runtime_error("FaultSpec: delay bound out of range: " +
                                   value.substr(colon + 1));
        }
        spec.max_delay = static_cast<int>(k);
      }
    } else if (key == "retries") {
      const std::int64_t r = parse_int_field(value, key);
      if (r < 0 || r > 62) {
        throw std::runtime_error("FaultSpec: retries out of range [0,62]: " +
                                 value);
      }
      spec.max_retries = static_cast<int>(r);
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_int_field(value, key));
    } else if (key == "crash") {
      // V@C
      const auto at = value.find('@');
      if (at == std::string::npos) {
        throw std::runtime_error("FaultSpec: crash wants NODE@CLOCK, got '" +
                                 value + "'");
      }
      CrashEvent ev;
      const std::int64_t node = parse_int_field(value.substr(0, at), "crash node");
      if (node < 0) {
        throw std::runtime_error("FaultSpec: negative crash node: " + value);
      }
      ev.node = to_node(node);
      ev.clock = parse_int_field(value.substr(at + 1), "crash clock");
      spec.crashes.push_back(ev);
    } else {
      throw std::runtime_error("FaultSpec: unknown key '" + key + "'");
    }
  }
  if (spec.drop_rate + spec.dup_rate + spec.delay_rate > 1.0) {
    throw std::runtime_error(
        "FaultSpec: drop+dup+delay rates must sum to at most 1");
  }
  return spec;
}

std::string FaultSpec::to_text() const {
  std::ostringstream out;
  out << "drop=" << drop_rate << ",dup=" << dup_rate << ",delay=" << delay_rate
      << ':' << max_delay << ",retries=" << max_retries << ",seed=" << seed;
  for (const CrashEvent& c : crashes) {
    out << ",crash=" << c.node << '@' << c.clock;
  }
  return out.str();
}

std::uint64_t FaultPlan::label_key(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char ch : label) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h | (1ULL << 63);
}

FaultDecision FaultPlan::decide(std::int64_t clock, std::uint64_t key,
                                std::uint64_t index, int attempt) {
  if (replay_) {
    const auto it = replay_events_.find(
        {clock, key, index, attempt});
    return it == replay_events_.end() ? FaultDecision{} : it->second;
  }
  if (!spec_.enabled()) return {};
  // One chained avalanche per coordinate: any coordinate change flips the
  // whole hash, and the draw never consumes shared RNG state.
  std::uint64_t h = mix64(spec_.seed);
  h = mix64(h ^ static_cast<std::uint64_t>(clock));
  h = mix64(h ^ key);
  h = mix64(h ^ index);
  h = mix64(h ^ static_cast<std::uint64_t>(attempt));
  const double u = to_unit(h);
  FaultDecision d;
  if (u < spec_.drop_rate) {
    d.action = FaultAction::drop;
  } else if (u < spec_.drop_rate + spec_.dup_rate) {
    d.action = FaultAction::duplicate;
  } else if (u < spec_.drop_rate + spec_.dup_rate + spec_.delay_rate) {
    d.action = FaultAction::delay;
    d.delay = 1 + static_cast<int>(
                      mix64(h) %
                      static_cast<std::uint64_t>(std::max(1, spec_.max_delay)));
  }
  if (d.action != FaultAction::deliver) {
    schedule_.push_back({clock, key, index, attempt, d});
  }
  return d;
}

FaultPlan::MessageOutcome FaultPlan::recover(std::int64_t clock,
                                             std::uint64_t key,
                                             std::uint64_t index) {
  MessageOutcome out;
  if (!active()) return out;
  for (int attempt = 0;; ++attempt) {
    const FaultDecision d = decide(clock, key, index, attempt);
    if (d.action != FaultAction::drop) {
      // The duplicate copy rides an otherwise idle slot while the ack is in
      // flight: one extra message on the wire, no extra rounds. A delayed
      // copy stays within the ack timeout and is waited out.
      if (d.action == FaultAction::duplicate) out.duplicates = 1;
      if (d.action == FaultAction::delay) out.extra_rounds += d.delay;
      return out;
    }
    if (attempt == spec_.max_retries) {
      out.lost = true;
      return out;
    }
    // Exponential backoff before the retransmission: attempt t waits
    // 2^(t-1) rounds (shift capped only against overflow; specs allow at
    // most 62 retries).
    out.extra_rounds += std::int64_t{1} << std::min(attempt, 60);
    ++out.retransmissions;
  }
}

FaultPlan::PhaseFaults FaultPlan::recover_phase(std::int64_t clock,
                                                std::uint64_t key,
                                                std::uint64_t messages) {
  PhaseFaults pf;
  if (!active()) return pf;
  for (std::uint64_t i = 0; i < messages; ++i) {
    const MessageOutcome o = recover(clock, key, i);
    pf.retry_rounds = std::max(pf.retry_rounds, o.extra_rounds);
    pf.retransmitted += static_cast<std::uint64_t>(o.retransmissions) +
                        static_cast<std::uint64_t>(o.duplicates);
    if (o.retransmissions > 0) ++pf.dropped;
    if (o.lost) ++pf.lost;
  }
  return pf;
}

void FaultPlan::serialize(std::ostream& out) const {
  out << "dcl-fault-plan v1\n";
  out << "spec " << spec_.to_text() << '\n';
  for (const FaultEvent& e : schedule_) {
    out << "event " << e.clock << ' ' << e.key << ' ' << e.index << ' '
        << e.attempt << ' ' << to_string(e.decision.action);
    if (e.decision.action == FaultAction::delay) out << ' ' << e.decision.delay;
    out << '\n';
  }
  out << "end\n";
}

FaultPlan FaultPlan::deserialize(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != "dcl-fault-plan v1") {
    throw std::runtime_error("FaultPlan: bad header (want 'dcl-fault-plan v1')");
  }
  FaultPlan plan;
  plan.replay_ = true;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "spec") {
      std::string rest;
      ls >> rest;
      plan.spec_ = FaultSpec::parse(rest);
    } else if (tag == "event") {
      FaultEvent e;
      std::string action;
      ls >> e.clock >> e.key >> e.index >> e.attempt >> action;
      if (!ls) {
        throw std::runtime_error("FaultPlan: truncated event line: " + line);
      }
      if (action == "drop") {
        e.decision.action = FaultAction::drop;
      } else if (action == "dup") {
        e.decision.action = FaultAction::duplicate;
      } else if (action == "delay") {
        e.decision.action = FaultAction::delay;
        ls >> e.decision.delay;
        if (!ls || e.decision.delay < 1) {
          throw std::runtime_error("FaultPlan: bad delay event: " + line);
        }
      } else {
        throw std::runtime_error("FaultPlan: unknown event action: " + action);
      }
      plan.replay_events_[{e.clock, e.key, e.index, e.attempt}] = e.decision;
      plan.schedule_.push_back(e);
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      throw std::runtime_error("FaultPlan: unknown line tag '" + tag + "'");
    }
  }
  if (!saw_end) {
    throw std::runtime_error("FaultPlan: truncated schedule (missing 'end')");
  }
  return plan;
}

std::size_t FaultSession::dead_count() const {
  std::size_t count = 0;
  for (const char d : dead) count += (d != 0);
  return count;
}

std::vector<NodeId> FaultSession::detect_crashes(NodeId n) {
  std::vector<NodeId> newly;
  if (!active()) return newly;
  if (dead.size() < static_cast<std::size_t>(n)) {
    dead.resize(static_cast<std::size_t>(n), 0);
  }
  for (const CrashEvent& c : plan->crashes()) {
    if (c.clock > clock || c.node < 0 || c.node >= n) continue;
    auto& flag = dead[static_cast<std::size_t>(c.node)];
    if (flag == 0) {
      flag = 1;
      newly.push_back(c.node);
    }
  }
  std::sort(newly.begin(), newly.end());
  if (!newly.empty()) {
    if (TraceCollector* telemetry = active_telemetry()) {
      telemetry->metrics().counter_add("fault.crashes_detected", newly.size());
    }
  }
  return newly;
}

void FaultSession::charge_crash_timeout(RoundLedger& ledger,
                                        std::size_t newly_dead) {
  if (newly_dead == 0) return;
  // One missed-phase timeout window detects the whole batch of deaths:
  // survivors notice the silence concurrently on every edge.
  ledger.charge_exchange("crash-detect-timeout", 1.0, 0);
  ++crash_timeouts;
  if (TraceCollector* telemetry = active_telemetry()) {
    telemetry->metrics().counter_add("fault.crash_timeout_rounds", 1);
  }
}

void FaultSession::drop_dead_edges(const Graph& g, EdgeMask& mask) const {
  if (dead_count() == 0) return;
  // Collect first: mutation during for_each_set is not part of the mask's
  // contract.
  std::vector<EdgeId> doomed;
  mask.for_each_set([&](EdgeId e) {
    const Edge& ed = g.edge(e);
    if (is_dead(ed.u) || is_dead(ed.v)) doomed.push_back(e);
  });
  for (const EdgeId e : doomed) mask.set(e, false);
}

std::uint64_t FaultSession::inject(RoundLedger& ledger,
                                   const std::string& label,
                                   std::uint64_t messages) {
  if (!active()) return 0;
  const FaultPlan::PhaseFaults pf =
      plan->recover_phase(clock, FaultPlan::label_key(label), messages);
  ++clock;
  if (pf.retry_rounds > 0 || pf.retransmitted > 0) {
    ledger.charge_retry(label + " [retry]",
                        static_cast<double>(pf.retry_rounds),
                        pf.retransmitted);
  }
  if (pf.lost > 0) {
    lost_messages += pf.lost;
    ledger.note_lost(pf.lost);
    // Accounting-level pipelines cannot proceed without the phase's
    // knowledge, so losses beyond the retry budget escalate to the reliable
    // resend path: one extra timeout-triggered phase re-carrying the lost
    // messages. Output stays exact; the degradation is this charged cost.
    ledger.charge_exchange(label + " [resend]", 1.0, pf.lost);
  }
  if (TraceCollector* telemetry = active_telemetry()) {
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("fault.retry_rounds",
                        static_cast<std::uint64_t>(pf.retry_rounds));
    metrics.counter_add("fault.retransmitted", pf.retransmitted);
    metrics.counter_add("fault.lost", pf.lost);
  }
  return pf.lost;
}

std::uint64_t FaultSession::charge_exchange(RoundLedger& ledger,
                                            std::string label, double rounds,
                                            std::uint64_t messages) {
  if (!active()) {
    ledger.charge_exchange(std::move(label), rounds, messages);
    return 0;
  }
  ledger.charge_exchange(label, rounds, messages);
  return inject(ledger, label, messages);
}

}  // namespace dcl
