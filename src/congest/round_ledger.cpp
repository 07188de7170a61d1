#include "congest/round_ledger.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <utility>

namespace dcl {

const char* to_string(CostKind kind) {
  switch (kind) {
    case CostKind::exchange:
      return "exchange";
    case CostKind::routing:
      return "routing";
    case CostKind::analytic:
      return "analytic";
  }
  return "?";
}

double RoundLedger::total_rounds() const {
  double total = 0.0;
  for (const auto& e : entries_) total += e.rounds;
  return total;
}

std::uint64_t RoundLedger::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) total += e.messages;
  return total;
}

double RoundLedger::rounds_of_kind(CostKind kind) const {
  double total = 0.0;
  for (const auto& e : entries_) {
    if (e.kind == kind) total += e.rounds;
  }
  return total;
}

std::map<std::string, double> RoundLedger::rounds_by_label() const {
  std::map<std::string, double> by_label;
  for (const auto& e : entries_) by_label[e.label] += e.rounds;
  return by_label;
}

std::vector<RoundLedger::BreakdownRow> RoundLedger::breakdown() const {
  std::map<std::pair<std::string, int>, BreakdownRow> rows;
  for (const auto& e : entries_) {
    BreakdownRow& row = rows[{e.label, static_cast<int>(e.kind)}];
    if (row.label.empty()) {
      row.label = e.label;
      row.kind = e.kind;
    }
    row.rounds += e.rounds;
    row.messages += e.messages;
  }
  std::vector<BreakdownRow> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  return out;
}

void RoundLedger::merge(const RoundLedger& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
  retry_rounds_ += other.retry_rounds_;
  retransmitted_messages_ += other.retransmitted_messages_;
  lost_messages_ += other.lost_messages_;
}

void RoundLedger::print_audited(std::ostream& out) const {
  const std::vector<BreakdownRow> rows = breakdown();
  std::size_t label_width = 24;
  for (const auto& row : rows) {
    label_width = std::max(label_width, row.label.size());
  }
  const std::ios_base::fmtflags flags = out.flags();
  const std::streamsize precision = out.precision();
  out << "round ledger: total=" << std::fixed << std::setprecision(1)
      << total_rounds() << " rounds, " << total_messages() << " messages\n";
  out << "  " << std::left << std::setw(static_cast<int>(label_width))
      << "phase" << "  " << std::setw(8) << "kind" << std::right
      << std::setw(12) << "rounds" << std::setw(14) << "messages" << '\n';
  for (const auto& row : rows) {
    out << "  " << std::left << std::setw(static_cast<int>(label_width))
        << row.label << "  " << std::setw(8) << to_string(row.kind)
        << std::right << std::setw(12) << std::setprecision(1) << row.rounds
        << std::setw(14) << row.messages << '\n';
  }
  if (retry_rounds_ > 0.0 || retransmitted_messages_ > 0 ||
      lost_messages_ > 0) {
    out << "  recovery: " << std::setprecision(1) << retry_rounds_
        << " retry rounds, " << retransmitted_messages_ << " retransmitted, "
        << lost_messages_ << " lost\n";
  }
  out.flags(flags);
  out.precision(precision);
}

}  // namespace dcl
