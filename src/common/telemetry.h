// Deterministic observability plane: phase-span tracing + metrics registry.
//
// Every coordinate this module records is *virtual time*: cumulative ledger
// rounds, cumulative ledger messages, and a cumulative 64-bit work-unit
// counter. No wall clock is ever consulted here — traces, metrics, and the
// exported run report are pure functions of the (deterministic) execution,
// so they are bit-identical at any DCL_THREADS setting and the dcl-lint
// wallclock rule stays clean. An *optional* wall-clock overlay lives in the
// ONE allowlisted translation unit src/common/telemetry_wallclock.cpp; it
// is off by default and its nanosecond stamps never enter the ledger, the
// run report, or any fingerprint (docs/OBSERVABILITY.md).
//
// Scoping model: telemetry is process-wide but explicitly scoped. Nothing
// is recorded unless a `TelemetryScope` has installed a `TraceCollector`;
// with no collector installed, every instrumentation site reduces to one
// relaxed atomic load and a null check — the disabled plane costs nothing
// (proven by the committed `list_kp_hooks_a/_b` bench counters).
//
// Threading contract (mirrors parallel_for.h): spans begin and end only in
// sequential orchestration code, between parallel regions — the span tree
// is therefore identical at any shard count. Shard *bodies* never touch the
// collector directly; they write into `MetricsRegistry::ShardCell` buffers
// that the owning sequential code merges in shard order, exactly like every
// other per-shard buffer in the codebase. Instant events (e.g. routed log
// lines) may arrive from any thread and are serialized by a mutex; the
// standard pipelines emit none from shard bodies, so exported traces stay
// deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dcl {

class RoundLedger;

/// A point on the virtual-time axis: cumulative ledger rounds + messages
/// (advanced by `sync_to`, monotone max over the ledgers a pipeline
/// charges) and cumulative work units (advanced additively by `add_work`).
struct VirtualClock {
  double rounds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t work = 0;
};

/// One closed (or still-open) phase span. `parent` indexes `spans()`,
/// -1 for roots; `seq_begin`/`seq_end` order events globally (every
/// begin/end/instant draws from one sequence counter). The wall_ns fields
/// stay 0 unless the telemetry_wallclock.cpp overlay is enabled.
struct TraceSpan {
  std::int32_t parent = -1;
  std::int32_t depth = 0;
  std::string name;
  std::string category;
  VirtualClock begin;
  VirtualClock end;
  std::uint64_t seq_begin = 0;
  std::uint64_t seq_end = 0;
  std::uint64_t wall_ns_begin = 0;
  std::uint64_t wall_ns_end = 0;
  bool open = true;

  std::uint64_t work_units() const { return end.work - begin.work; }
  double rounds_delta() const { return end.rounds - begin.rounds; }
  std::uint64_t messages_delta() const { return end.messages - begin.messages; }
};

/// A zero-duration event (log line, fallback taken, crash detected).
struct TraceInstant {
  std::int32_t parent = -1;
  std::string name;
  std::string category;
  VirtualClock at;
  std::uint64_t seq = 0;
};

/// Exact-integer histogram: count/sum/min/max plus log2 buckets (bucket
/// index = bit_width(value); bucket 0 holds zeros). Bucket merges are
/// commutative integer adds, so shard merge order cannot change them.
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::map<int, std::uint64_t> buckets;

  void record(std::uint64_t value);
  void merge(const HistogramStats& other);
};

/// Named counters / gauges / histograms. Storage is ordered (std::map) so
/// every export iterates in name order — no container-order nondeterminism
/// can reach the report. The registry itself must only be touched from
/// sequential orchestration code; parallel shard bodies record into
/// `ShardCell` buffers merged in shard order via `merge_cells`.
class MetricsRegistry {
 public:
  void counter_add(std::string_view name, std::uint64_t delta);
  /// Overwrites (last write wins — sequential callers only).
  void gauge_set(std::string_view name, std::int64_t value);
  /// Keeps the maximum seen (high-water marks).
  void gauge_max(std::string_view name, std::int64_t value);
  void histogram_record(std::string_view name, std::uint64_t value);

  /// Counter value, 0 when never touched.
  std::uint64_t counter(std::string_view name) const;

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, std::int64_t, std::less<>>& gauges() const {
    return gauges_;
  }
  const std::map<std::string, HistogramStats, std::less<>>& histograms()
      const {
    return histograms_;
  }

  /// Per-shard metric sink, parallel_for_shards-compatible: allocate one
  /// cell per shard, let each shard body write only its own cell, then
  /// fold them back with `merge_cells` *in shard order* from the calling
  /// thread — the same merge contract as every other per-shard buffer
  /// (parallel_for.h), so DCL_SHARD_AUDIT permutations cannot change the
  /// merged values.
  struct ShardCell {
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, std::int64_t, std::less<>> gauge_maxes;
    std::map<std::string, HistogramStats, std::less<>> histograms;

    void counter_add(std::string_view name, std::uint64_t delta);
    void gauge_max(std::string_view name, std::int64_t value);
    void histogram_record(std::string_view name, std::uint64_t value);
  };
  /// Folds cells[0], cells[1], ... into the registry in index (= shard)
  /// order.
  void merge_cells(const std::vector<ShardCell>& cells);

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, HistogramStats, std::less<>> histograms_;
};

/// Collects nested phase spans + instants on the virtual-time axis and
/// owns the run's MetricsRegistry. All span/instant/clock state is guarded
/// by one mutex: begin/end come from sequential orchestration code (rare,
/// a lock there is noise), instants may come from any thread (log routing).
class TraceCollector {
 public:
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // ---- Virtual clock ----
  /// Advances the rounds/messages axes to at least the given cumulative
  /// totals (elementwise max: one collector may trace several runs, each
  /// with a ledger counting from zero, and the clock must stay monotone
  /// across all of them).
  void sync_to(double total_rounds, std::uint64_t total_messages);
  /// Advances the work axis by `units` (additive).
  void add_work(std::uint64_t units);
  // dcl-lint: allow(wallclock): virtual-clock accessor, not the C clock() API
  VirtualClock clock() const;

  // ---- Spans / instants ----
  /// Opens a span nested under the innermost open span; returns its index.
  std::int32_t begin_span(std::string_view name, std::string_view category);
  /// Closes `id` (and, defensively, any span opened after it).
  void end_span(std::int32_t id);
  void instant(std::string_view name, std::string_view category);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<TraceInstant>& instants() const { return instants_; }
  /// First span with the given name, nullptr when absent.
  const TraceSpan* find_span(std::string_view name) const;
  /// Spans with the given name, in begin order.
  std::vector<const TraceSpan*> find_spans(std::string_view name) const;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // ---- Exporters ----
  /// Chrome trace-event JSON (Perfetto-loadable): one "X" complete event
  /// per span on a synthetic timeline where 1 round = 1 ms and the global
  /// event sequence breaks ties, plus exact virtual coordinates in args.
  /// Wall-clock stamps are attached to args only when the overlay TU is
  /// enabled; they never affect ts/dur.
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::int32_t begin_span_locked(std::string_view name,
                                 std::string_view category);

  mutable std::mutex mutex_;
  VirtualClock clock_;
  std::uint64_t next_seq_ = 0;
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  std::vector<std::int32_t> open_stack_;
  MetricsRegistry metrics_;
};

/// The collector instrumentation sites record into, nullptr when telemetry
/// is off. One relaxed atomic load: the whole cost of the disabled plane.
TraceCollector* active_telemetry();

/// RAII installer: makes `collector` the active one for its lifetime and
/// restores the previous (usually nullptr) on destruction. Install from
/// the thread that orchestrates the run, outside parallel regions.
class TelemetryScope {
 public:
  explicit TelemetryScope(TraceCollector& collector);
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  TraceCollector* previous_;
};

/// RAII span: no-op when telemetry is off.
class SpanGuard {
 public:
  SpanGuard(std::string_view name, std::string_view category)
      : SpanGuard(active_telemetry(), name, category) {}
  SpanGuard(TraceCollector* collector, std::string_view name,
            std::string_view category)
      : collector_(collector) {
    if (collector_ != nullptr) id_ = collector_->begin_span(name, category);
  }
  ~SpanGuard() {
    if (collector_ != nullptr) collector_->end_span(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  TraceCollector* collector() const { return collector_; }
  void add_work(std::uint64_t units) const {
    if (collector_ != nullptr) collector_->add_work(units);
  }
  void sync_to(double total_rounds, std::uint64_t total_messages) const {
    if (collector_ != nullptr) collector_->sync_to(total_rounds,
                                                   total_messages);
  }

 private:
  TraceCollector* collector_;
  std::int32_t id_ = -1;
};

/// Versioned machine-readable run report ("dcl-run-report", version 1):
/// ledger breakdown by (label, kind) + retry counters, metrics snapshot,
/// and a span-tree summary. Content is purely virtual-time — byte-identical
/// at any DCL_THREADS. `ledger` may be null (report carries no ledger
/// section body). Schema documented in docs/OBSERVABILITY.md; validated by
/// tools/trace_report.py.
void write_run_report(std::ostream& out, const TraceCollector& collector,
                      const RoundLedger* ledger, std::string_view command);

// ---- Wall-clock overlay (src/common/telemetry_wallclock.cpp) ----
// The ONE translation unit allowed to read a clock (dcl_lint wallclock
// allowlist). Disabled unless DCL_TRACE_WALLCLOCK=1 is set in the
// environment; when disabled, now_ns() returns 0 and the exporters emit
// no wall fields.
bool telemetry_wallclock_enabled();
std::uint64_t telemetry_wallclock_now_ns();

}  // namespace dcl
