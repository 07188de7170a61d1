// Tests for the deterministic observability plane (src/common/telemetry.h):
// span collection on the virtual clock, the metrics registry and its
// shard-cell merge, exporter byte-stability across DCL_THREADS, and the
// contract that ArbIterationTrace's tail diagnostics and the telemetry
// span work units are the same numbers from the same source.
#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "congest/round_ledger.h"
#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "graph/generators.h"
#include "graph/workloads.h"

namespace dcl {
namespace {

TEST(Telemetry, DisabledPlaneHasNoActiveCollector) {
  EXPECT_EQ(active_telemetry(), nullptr);
  // A SpanGuard over the null collector is a no-op on every method.
  SpanGuard guard(nullptr, "noop", "test");
  guard.add_work(10);
  guard.sync_to(5.0, 100);
  EXPECT_EQ(active_telemetry(), nullptr);
}

TEST(Telemetry, ScopeInstallsAndRestores) {
  TraceCollector outer;
  {
    TelemetryScope outer_scope(outer);
    EXPECT_EQ(active_telemetry(), &outer);
    {
      TraceCollector inner;
      TelemetryScope inner_scope(inner);
      EXPECT_EQ(active_telemetry(), &inner);
    }
    EXPECT_EQ(active_telemetry(), &outer);
  }
  EXPECT_EQ(active_telemetry(), nullptr);
}

TEST(Telemetry, ClockSyncIsElementwiseMax) {
  TraceCollector collector;
  collector.sync_to(10.0, 100);
  collector.sync_to(5.0, 250);  // lower rounds, higher messages
  EXPECT_DOUBLE_EQ(collector.clock().rounds, 10.0);
  EXPECT_EQ(collector.clock().messages, 250u);
  collector.add_work(7);
  collector.add_work(3);
  EXPECT_EQ(collector.clock().work, 10u);
}

TEST(Telemetry, SpansNestWithParentAndDepth) {
  TraceCollector collector;
  const std::int32_t a = collector.begin_span("a", "test");
  const std::int32_t b = collector.begin_span("b", "test");
  collector.end_span(b);
  collector.end_span(a);
  const auto& spans = collector.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[static_cast<std::size_t>(a)].parent, -1);
  EXPECT_EQ(spans[static_cast<std::size_t>(a)].depth, 0);
  EXPECT_EQ(spans[static_cast<std::size_t>(b)].parent, a);
  EXPECT_EQ(spans[static_cast<std::size_t>(b)].depth, 1);
  EXPECT_FALSE(spans[static_cast<std::size_t>(a)].open);
  EXPECT_FALSE(spans[static_cast<std::size_t>(b)].open);
}

TEST(Telemetry, EndSpanOnClosedSpanIsIgnored) {
  TraceCollector collector;
  const std::int32_t a = collector.begin_span("a", "test");
  const std::int32_t b = collector.begin_span("b", "test");
  collector.end_span(b);
  collector.end_span(b);  // double close must not pop `a`
  EXPECT_TRUE(collector.spans()[static_cast<std::size_t>(a)].open);
  collector.end_span(a);
  EXPECT_FALSE(collector.spans()[static_cast<std::size_t>(a)].open);
  collector.end_span(-1);  // the "telemetry was off at begin" sentinel
}

TEST(Telemetry, MergedShardCellsMatchSequentialRecording) {
  // Whatever the shard bodies recorded, merging the cells in shard order
  // must equal recording the same values sequentially into the registry.
  MetricsRegistry sequential;
  std::vector<MetricsRegistry::ShardCell> cells(3);
  const std::uint64_t values[] = {5, 0, 17, 2, 9, 31};
  for (std::size_t i = 0; i < 6; ++i) {
    sequential.counter_add("work", values[i]);
    sequential.histogram_record("sizes", values[i]);
    sequential.gauge_max("peak", static_cast<std::int64_t>(values[i]));
    auto& cell = cells[i % 3];
    cell.counter_add("work", values[i]);
    cell.histogram_record("sizes", values[i]);
    cell.gauge_max("peak", static_cast<std::int64_t>(values[i]));
  }
  MetricsRegistry merged;
  merged.merge_cells(cells);
  EXPECT_EQ(merged.counters(), sequential.counters());
  EXPECT_EQ(merged.gauges(), sequential.gauges());
  ASSERT_EQ(merged.histograms().size(), 1u);
  const HistogramStats& h = merged.histograms().at("sizes");
  const HistogramStats& hs = sequential.histograms().at("sizes");
  EXPECT_EQ(h.count, hs.count);
  EXPECT_EQ(h.sum, hs.sum);
  EXPECT_EQ(h.min, hs.min);
  EXPECT_EQ(h.max, hs.max);
  EXPECT_EQ(h.buckets, hs.buckets);
}

TEST(Telemetry, HistogramBucketsKeyedByBitWidth) {
  MetricsRegistry metrics;
  metrics.histogram_record("h", 0);  // bucket 0: zeros
  metrics.histogram_record("h", 1);  // bit_width 1
  metrics.histogram_record("h", 2);  // bit_width 2
  metrics.histogram_record("h", 3);  // bit_width 2
  metrics.histogram_record("h", 8);  // bit_width 4
  const HistogramStats& h = metrics.histograms().at("h");
  EXPECT_EQ(h.count, 5u);
  EXPECT_EQ(h.sum, 14u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 8u);
  EXPECT_EQ(h.buckets.at(0), 1u);
  EXPECT_EQ(h.buckets.at(1), 1u);
  EXPECT_EQ(h.buckets.at(2), 2u);
  EXPECT_EQ(h.buckets.at(4), 1u);
}

/// Single-cluster ER fixture dense enough to drive the iterated ARB-LIST
/// pipeline (degeneracy above the stop bound) — the regime in which the
/// step-5 tail scheduler actually plans and enumerates work items.
Graph tail_fixture() {
  Rng rng(21);
  return erdos_renyi_gnm(120, 6000, rng);
}

KpConfig tail_config() {
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 7;
  return cfg;
}

TEST(Telemetry, TailSpanWorkUnitsEqualArbTraceTailFields) {
  const Graph g = tail_fixture();
  const KpConfig cfg = tail_config();
  TraceCollector collector;
  ListingOutput out(g.node_count());
  KpListResult result = [&] {
    TelemetryScope scope(collector);
    return list_kp_collect(g, cfg, out);
  }();
  ASSERT_FALSE(result.arb_traces.empty());

  // One source of truth: per ARB iteration, the trace's estimated tail
  // work must equal the sum of the per-shard work estimates AND the work
  // units attributed to that iteration's arb/tail-enumerate span.
  const auto tail_spans = collector.find_spans("arb/tail-enumerate");
  ASSERT_EQ(tail_spans.size(), result.arb_traces.size());
  for (std::size_t i = 0; i < result.arb_traces.size(); ++i) {
    const ArbIterationTrace& trace = result.arb_traces[i];
    std::uint64_t shard_sum = 0;
    for (const std::uint64_t w : trace.tail_shard_work) shard_sum += w;
    EXPECT_EQ(trace.tail_est_work_total, shard_sum) << "iteration " << i;
    EXPECT_EQ(tail_spans[i]->work_units(), trace.tail_est_work_total)
        << "iteration " << i;
  }

  // The per-item histogram agrees with the same totals.
  const auto& histos = collector.metrics().histograms();
  ASSERT_TRUE(histos.count("arb.tail.item_est_work"));
  std::uint64_t est_total = 0;
  for (const ArbIterationTrace& trace : result.arb_traces) {
    est_total += trace.tail_est_work_total;
  }
  EXPECT_EQ(histos.at("arb.tail.item_est_work").sum, est_total);
}

TEST(Telemetry, RunReportAndTraceAreByteIdenticalAcrossShardCounts) {
  // The single-cluster fixture plus two multi-cluster inputs, whose tail
  // plan shards over several clusters and whose clique table fills through
  // different per-shard buffers at each thread count.
  KpConfig multi = tail_config();
  multi.stop_scale = 0.1;
  Rng er_rng(14);
  Rng ring_rng(15);
  const std::pair<Graph, KpConfig> inputs[] = {
      {tail_fixture(), tail_config()},
      {erdos_renyi_gnm(90, 1400, er_rng), multi},
      {ring_of_cliques_workload(240, ring_rng, 6), multi},
  };
  const int previous = shard_threads();
  for (const auto& [g, cfg] : inputs) {
    std::string reports[2];
    std::string traces[2];
    const int counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      set_shard_threads(counts[i]);
      TraceCollector collector;
      ListingOutput out(g.node_count());
      KpListResult result = [&] {
        TelemetryScope scope(collector);
        return list_kp_collect(g, cfg, out);
      }();
      std::ostringstream report;
      write_run_report(report, collector, &result.ledger, "test");
      reports[i] = report.str();
      std::ostringstream trace;
      collector.write_chrome_trace(trace);
      traces[i] = trace.str();
    }
    EXPECT_EQ(reports[0], reports[1]) << "n=" << g.node_count();
    EXPECT_EQ(traces[0], traces[1]) << "n=" << g.node_count();
    // The report is virtual-time only: no wall-clock field may appear at
    // any thread count.
    EXPECT_EQ(reports[0].find("wall"), std::string::npos);
  }
  set_shard_threads(previous);
}

TEST(Telemetry, SparseCcListSpanIsThreadInvariant) {
  // The CONGESTED-CLIQUE pipeline's listing child span: it opens after
  // every charged phase (no rounds or messages of its own), its work units
  // are the cliques of the one listing, and the run report and trace stay
  // byte-identical at 1 vs 4 shards.
  Rng rng(21);
  const Graph g = erdos_renyi_gnm(200, 3000, rng);
  SparseCcConfig cfg;
  cfg.p = 4;
  cfg.seed = 7;
  const int previous = shard_threads();
  std::string reports[2];
  std::string traces[2];
  const int counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    set_shard_threads(counts[i]);
    TraceCollector collector;
    ListingOutput out(g.node_count());
    const SparseCcResult result = [&] {
      TelemetryScope scope(collector);
      return sparse_cc_list(g, cfg, out);
    }();
    const TraceSpan* run = collector.find_span("sparse-cc");
    const TraceSpan* list = collector.find_span("sparse-cc/list");
    ASSERT_NE(run, nullptr);
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(collector.spans()[static_cast<std::size_t>(list->parent)].name,
              "sparse-cc");
    EXPECT_EQ(list->begin.rounds, result.total_rounds());
    EXPECT_EQ(list->begin.messages, result.ledger.total_messages());
    EXPECT_EQ(list->rounds_delta(), 0.0);
    EXPECT_EQ(list->messages_delta(), 0u);
    EXPECT_EQ(list->work_units(), out.unique_count());
    EXPECT_GT(out.unique_count(), 0u);
    std::ostringstream report;
    write_run_report(report, collector, &result.ledger, "test");
    reports[i] = report.str();
    std::ostringstream trace;
    collector.write_chrome_trace(trace);
    traces[i] = trace.str();
  }
  set_shard_threads(previous);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(Telemetry, CollectionDoesNotPerturbLedgerOrOutput) {
  const Graph g = tail_fixture();
  const KpConfig cfg = tail_config();
  ListingOutput out_off(g.node_count());
  const KpListResult off = list_kp_collect(g, cfg, out_off);
  TraceCollector collector;
  ListingOutput out_on(g.node_count());
  const KpListResult on = [&] {
    TelemetryScope scope(collector);
    return list_kp_collect(g, cfg, out_on);
  }();
  ASSERT_EQ(off.ledger.entries().size(), on.ledger.entries().size());
  for (std::size_t i = 0; i < off.ledger.entries().size(); ++i) {
    EXPECT_EQ(off.ledger.entries()[i].label, on.ledger.entries()[i].label);
    EXPECT_DOUBLE_EQ(off.ledger.entries()[i].rounds,
                     on.ledger.entries()[i].rounds);
    EXPECT_EQ(off.ledger.entries()[i].messages, on.ledger.entries()[i].messages);
  }
  EXPECT_EQ(out_off.cliques().fingerprint(), out_on.cliques().fingerprint());
  // And the run actually produced a span tree.
  EXPECT_NE(collector.find_span("list-kp"), nullptr);
  EXPECT_NE(collector.find_span("arb/tail-enumerate"), nullptr);
}

TEST(Telemetry, ChromeTraceIsWellFormedJson) {
  TraceCollector collector;
  collector.sync_to(2.0, 10);
  const std::int32_t a = collector.begin_span("outer \"quoted\"", "test");
  collector.instant("marker", "test");
  collector.sync_to(4.0, 20);
  collector.end_span(a);
  std::ostringstream os;
  collector.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("outer \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  // Balanced braces — cheap structural sanity without a JSON parser.
  std::int64_t depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace dcl
