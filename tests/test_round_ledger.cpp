#include "congest/round_ledger.h"

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.h"

namespace dcl {
namespace {

TEST(RoundLedger, TotalsAcrossKinds) {
  RoundLedger ledger;
  ledger.charge_exchange("phase-a", 10.0, 100);
  ledger.charge_routing("route-b", 5.5, 50);
  ledger.charge_analytic("decomp", 20.0);
  EXPECT_DOUBLE_EQ(ledger.total_rounds(), 35.5);
  EXPECT_EQ(ledger.total_messages(), 150u);
  EXPECT_DOUBLE_EQ(ledger.rounds_of_kind(CostKind::exchange), 10.0);
  EXPECT_DOUBLE_EQ(ledger.rounds_of_kind(CostKind::routing), 5.5);
  EXPECT_DOUBLE_EQ(ledger.rounds_of_kind(CostKind::analytic), 20.0);
}

TEST(RoundLedger, ByLabelAggregates) {
  RoundLedger ledger;
  ledger.charge_exchange("x", 1.0, 1);
  ledger.charge_exchange("x", 2.0, 1);
  ledger.charge_exchange("y", 4.0, 1);
  const auto by_label = ledger.rounds_by_label();
  EXPECT_DOUBLE_EQ(by_label.at("x"), 3.0);
  EXPECT_DOUBLE_EQ(by_label.at("y"), 4.0);
}

TEST(RoundLedger, MergeAppends) {
  RoundLedger a, b;
  a.charge_exchange("x", 1.0, 5);
  b.charge_routing("y", 2.0, 7);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total_rounds(), 3.0);
  EXPECT_EQ(a.total_messages(), 12u);
  EXPECT_EQ(a.entries().size(), 2u);
}

TEST(RoundLedger, EmptyLedger) {
  RoundLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.total_rounds(), 0.0);
  EXPECT_EQ(ledger.total_messages(), 0u);
  EXPECT_TRUE(ledger.rounds_by_label().empty());
}

TEST(RoundLedger, PrintBreakdownContainsLabels) {
  RoundLedger ledger;
  ledger.charge_exchange("alpha-phase", 3.0, 9);
  ledger.charge_analytic("beta-charge", 4.0);
  std::ostringstream os;
  ledger.print_audited(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha-phase"), std::string::npos);
  EXPECT_NE(text.find("beta-charge"), std::string::npos);
  EXPECT_NE(text.find("total=7.0"), std::string::npos);
}

TEST(RoundLedger, InvariantsHoldAcrossAllChannels) {
  RoundLedger ledger;
  expect_ledger_valid(ledger);  // empty ledger is trivially valid
  ledger.charge_exchange("exchange-phase", 3.0, 30);
  ledger.charge_routing("routing-phase", 2.5, 12);
  ledger.charge_analytic("analytic-phase", 7.0);
  ledger.charge_exchange("free-phase", 0.0, 0);  // zero-cost entries legal
  expect_ledger_valid(ledger);
}

TEST(RoundLedger, TotalIsMonotoneUnderAppendAndMerge) {
  // Appending entries or merging another ledger can only grow the total:
  // the audited cost of a longer execution is never smaller.
  RoundLedger ledger;
  double previous = ledger.total_rounds();
  for (int i = 0; i < 16; ++i) {
    if (i % 3 == 0) {
      ledger.charge_exchange("e", static_cast<double>(i), 1);
    } else if (i % 3 == 1) {
      ledger.charge_routing("r", 0.5 * i, 2);
    } else {
      ledger.charge_analytic("a", 1.25 * i);
    }
    EXPECT_GE(ledger.total_rounds(), previous) << "entry " << i;
    previous = ledger.total_rounds();
  }
  RoundLedger other;
  other.charge_exchange("tail", 4.0, 4);
  ledger.merge(other);
  EXPECT_GE(ledger.total_rounds(), previous);
  expect_ledger_valid(ledger);
}

TEST(RoundLedger, BreakdownKeepsOneRowPerLabelAndKind) {
  RoundLedger ledger;
  ledger.charge_exchange("x", 1.0, 10);
  ledger.charge_exchange("x", 2.0, 5);
  ledger.charge_routing("x", 4.0, 2);  // same label, different kind
  ledger.charge_analytic("y", 7.0);
  const auto rows = ledger.breakdown();
  ASSERT_EQ(rows.size(), 3u);
  // Sorted by (label, kind declaration order).
  EXPECT_EQ(rows[0].label, "x");
  EXPECT_EQ(rows[0].kind, CostKind::exchange);
  EXPECT_DOUBLE_EQ(rows[0].rounds, 3.0);
  EXPECT_EQ(rows[0].messages, 15u);
  EXPECT_EQ(rows[1].label, "x");
  EXPECT_EQ(rows[1].kind, CostKind::routing);
  EXPECT_DOUBLE_EQ(rows[1].rounds, 4.0);
  EXPECT_EQ(rows[1].messages, 2u);
  EXPECT_EQ(rows[2].label, "y");
  EXPECT_EQ(rows[2].kind, CostKind::analytic);
  EXPECT_DOUBLE_EQ(rows[2].rounds, 7.0);
  EXPECT_EQ(rows[2].messages, 0u);
  // rounds_by_label folds the x rows into one — breakdown must not.
  EXPECT_DOUBLE_EQ(ledger.rounds_by_label().at("x"), 7.0);
}

TEST(RoundLedger, BreakdownCoversRetryEntriesAndMerge) {
  RoundLedger a;
  a.charge_exchange("phase", 10.0, 100);
  a.charge_retry("phase [retry]", 3.0, 6);
  RoundLedger b;
  b.charge_retry("phase [retry]", 2.0, 4);
  b.note_lost(1);
  a.merge(b);
  // Retry entries ride the exchange kind and aggregate across the merge.
  const auto rows = a.breakdown();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].label, "phase [retry]");
  EXPECT_EQ(rows[1].kind, CostKind::exchange);
  EXPECT_DOUBLE_EQ(rows[1].rounds, 5.0);
  EXPECT_EQ(rows[1].messages, 10u);
  // The dedicated retry counters merged too, and the breakdown totals
  // stay consistent with the ledger totals.
  EXPECT_DOUBLE_EQ(a.retry_rounds(), 5.0);
  EXPECT_EQ(a.retransmitted_messages(), 10u);
  EXPECT_EQ(a.lost_messages(), 1u);
  double rounds = 0.0;
  std::uint64_t messages = 0;
  for (const auto& row : rows) {
    rounds += row.rounds;
    messages += row.messages;
  }
  EXPECT_DOUBLE_EQ(rounds, a.total_rounds());
  EXPECT_EQ(messages, a.total_messages());
}

TEST(RoundLedger, PrintAuditedAlignsLongLabelsAndRestoresStream) {
  RoundLedger ledger;
  const std::string long_label(48, 'L');  // wider than the default column
  ledger.charge_exchange(long_label, 2.0, 8);
  ledger.charge_analytic("short", 1.5);
  ledger.charge_retry("short [retry]", 0.5, 3);
  std::ostringstream os;
  os << std::setprecision(6);
  const std::ios_base::fmtflags flags_before = os.flags();
  ledger.print_audited(os);
  // Stream state is restored: the printer must not leak std::fixed or its
  // precision into the caller's stream.
  EXPECT_EQ(os.flags(), flags_before);
  EXPECT_EQ(os.precision(), 6);
  const std::string text = os.str();
  EXPECT_NE(text.find(long_label), std::string::npos);
  EXPECT_NE(text.find("exchange"), std::string::npos);
  EXPECT_NE(text.find("analytic"), std::string::npos);
  EXPECT_NE(text.find("recovery: 0.5 retry rounds, 3 retransmitted"),
            std::string::npos);
  // The header and every row share the same label column width, so the
  // "kind" column starts at one fixed offset on every line.
  std::istringstream lines(text);
  std::string line;
  std::getline(lines, line);  // totals line
  std::vector<std::size_t> kind_columns;
  while (std::getline(lines, line)) {
    if (line.find("recovery:") != std::string::npos) continue;
    std::size_t column = std::string::npos;
    for (const char* kind : {"kind", "exchange", "routing", "analytic"}) {
      column = std::min(column, line.find(kind));
    }
    ASSERT_NE(column, std::string::npos) << line;
    kind_columns.push_back(column);
  }
  ASSERT_GE(kind_columns.size(), 4u);
  for (const std::size_t column : kind_columns) {
    EXPECT_EQ(column, kind_columns.front());
  }
}

TEST(CostKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(CostKind::exchange), "exchange");
  EXPECT_STREQ(to_string(CostKind::routing), "routing");
  EXPECT_STREQ(to_string(CostKind::analytic), "analytic");
}

}  // namespace
}  // namespace dcl
