// bench_core — the perf trajectory baseline (see docs/PERFORMANCE.md).
//
// Times the hot kernels every listing algorithm runs on (sequential
// enumeration over ER and planted-clique inputs) plus the end-to-end
// distributed Kp lister, and records fixed-seed round-ledger totals so a
// refactor can prove it changed *speed* without changing the *cost model*:
// the counters in the emitted JSON must stay bit-identical across perf PRs.
//
// Usage: bench_core [--out FILE]    (FILE defaults to "-" = stdout table +
// no JSON; tools/run_bench.sh writes BENCH_core.json). The timing loop is
// shrunk for CI smoke runs via DCL_BENCH_REPS / DCL_BENCH_MIN_MS.
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "bench_util.h"
#include "common/parallel_for.h"
#include "common/telemetry.h"
#include "congest/fault_plan.h"
#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "expander/decomposition.h"
#include "graph/generators.h"

namespace dcl::bench {
namespace {

void enumeration_benchmarks(BenchReport& report, const char* input_name,
                            const Graph& g) {
  for (const int p : {3, 4}) {
    const std::uint64_t cliques = count_k_cliques(g, p);
    {
      auto& t = report.add(time_kernel(
          std::string("count_k_cliques/p=") + std::to_string(p) + "/" +
              input_name,
          [&] { return count_k_cliques(g, p); },
          static_cast<double>(cliques)));
      t.counters.emplace_back("cliques", static_cast<double>(cliques));
    }
    {
      auto& t = report.add(time_kernel(
          std::string("list_k_cliques/p=") + std::to_string(p) + "/" +
              input_name,
          [&] { return static_cast<std::uint64_t>(list_k_cliques(g, p).size()); },
          static_cast<double>(cliques)));
      t.counters.emplace_back("cliques", static_cast<double>(cliques));
    }
  }
}

/// Attaches a machine-readable dcl-run-report to a bench entry: when
/// DCL_BENCH_REPORT_DIR is set, the collector gathered during the entry's
/// untimed reference run is written to <dir>/<name>.report.json (slashes
/// in the entry name become underscores). The timing loops never collect,
/// so attachment cannot perturb the measurement.
void maybe_attach_report(const std::string& entry_name,
                         const TraceCollector& collector,
                         const RoundLedger* ledger) {
  const char* dir = std::getenv("DCL_BENCH_REPORT_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::string file = entry_name;
  for (char& c : file) {
    if (c == '/') c = '_';
  }
  const std::string path = std::string(dir) + "/" + file + ".report.json";
  std::ofstream out(path);
  if (!out) return;
  write_run_report(out, collector, ledger, entry_name);
}

/// Folds a 64-bit fingerprint into 32 bits so the JSON double (%.17g)
/// round-trips it bit-exactly (doubles hold integers < 2^53 exactly).
double fold_fingerprint(std::uint64_t fp) {
  return static_cast<double>((fp ^ (fp >> 32)) & 0xffffffffULL);
}

/// The expander decomposition alone (ARB-LIST step 1's Theorem 2.3
/// construction) on a list_kp input at cluster degree 2, er1c-p4's. Its
/// counters pin the Em/Es/Er split and a folded FNV-1a hash of every
/// edge's part and every node's cluster id.
void expander_decompose_benchmark(BenchReport& report, const char* input_name,
                                  const Graph& g) {
  DecompositionConfig cfg;
  cfg.absolute_degree = 2;
  Rng ref_rng(7);
  const ExpanderDecomposition ref =
      expander_decompose(g, g.node_count(), cfg, ref_rng);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const EdgePart p : ref.part) {
    h = (h ^ static_cast<std::uint64_t>(p)) * 0x100000001b3ULL;
  }
  for (const int c : ref.cluster_of) {
    h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  }
  auto& t = report.add(time_kernel(
      std::string("expander_decompose/") + input_name,
      [&] {
        Rng rng(7);
        return static_cast<std::uint64_t>(
            expander_decompose(g, g.node_count(), cfg, rng).em_count);
      },
      static_cast<double>(g.edge_count())));
  t.counters.emplace_back("clusters",
                          static_cast<double>(ref.clusters.size()));
  t.counters.emplace_back("em_edges", static_cast<double>(ref.em_count));
  t.counters.emplace_back("es_edges", static_cast<double>(ref.es_count));
  t.counters.emplace_back("er_edges", static_cast<double>(ref.er_count));
  t.counters.emplace_back("partition_fold32", fold_fingerprint(h));
}

void list_kp_benchmark(BenchReport& report, const char* input_name,
                       const Graph& g, int p, double stop_scale = 0.1) {
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = 7;
  cfg.stop_scale = stop_scale;  // drive the iterated pipeline, not just the
                                // final broadcast, so the masks and dedup
                                // paths are hot
  const std::string suffix =
      std::string("/p=") + std::to_string(p) + "/" + input_name;
  // The counters also pin who reports what: the folded clique fingerprint
  // and the largest per-node report total, as the sparse_cc entries do.
  const auto add_counters = [](Timing& t, const KpListResult& ref,
                               const ListingOutput& ref_out) {
    t.counters.emplace_back("ledger_total_rounds", ref.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(ref_out.unique_count()));
    t.counters.emplace_back("total_reports",
                            static_cast<double>(ref.total_reports));
    t.counters.emplace_back(
        "max_reports_per_node",
        static_cast<double>(ref_out.max_reports_per_node()));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(ref_out.cliques().fingerprint()));
  };
  // One fixed-seed reference run: the ledger totals are the cost-model
  // fingerprint that perf refactors must keep bit-identical. It runs under
  // a collector (collection is non-perturbing — the list_kp_hooks A/B
  // entries prove it) so the entry can attach a run report.
  TraceCollector ref_trace;
  ListingOutput ref_out(g.node_count());
  const KpListResult ref = [&] {
    TelemetryScope scope(ref_trace);
    return list_kp_collect(g, cfg, ref_out);
  }();
  maybe_attach_report("list_kp" + suffix, ref_trace, &ref.ledger);
  add_counters(report.add(time_kernel(
                   "list_kp" + suffix,
                   [&] { return list_kp(g, cfg).total_reports; },
                   static_cast<double>(ref_out.unique_count()))),
               ref, ref_out);
  {
    // The same end-to-end run at 4 shards. DCL_THREADS is a pure speed
    // knob, so this entry's counters must be bit-identical to the
    // single-thread entry above — committing both makes the thread
    // invariance part of the CI-enforced fingerprint surface, and the
    // ns_per_op gap is the measured cluster-parallel speedup.
    const int previous = shard_threads();
    set_shard_threads(4);
    TraceCollector ref4_trace;
    ListingOutput ref4_out(g.node_count());
    const KpListResult ref4 = [&] {  // counters from a 4-shard run
      TelemetryScope scope(ref4_trace);
      return list_kp_collect(g, cfg, ref4_out);
    }();
    maybe_attach_report("list_kp_t4" + suffix, ref4_trace, &ref4.ledger);
    auto& t = report.add(time_kernel(
        "list_kp_t4" + suffix,
        [&] { return list_kp(g, cfg).total_reports; },
        static_cast<double>(ref4_out.unique_count())));
    set_shard_threads(previous);
    add_counters(t, ref4, ref4_out);
  }
}

/// The Section 4 CONGESTED-CLIQUE lister end to end. Its counters pin the
/// simulated cost (ledger rounds and messages) and the output contract:
/// the clique set (count and folded fingerprint) plus the per-node report
/// multiset's totals and maximum, so a change to how representatives list
/// their cliques cannot move who reports what without failing the diff.
void sparse_cc_benchmark(BenchReport& report, const std::string& name,
                         const Graph& g, const SparseCcConfig& cfg) {
  TraceCollector ref_trace;
  ListingOutput ref_out(g.node_count());
  const SparseCcResult ref = [&] {
    TelemetryScope scope(ref_trace);
    return sparse_cc_list(g, cfg, ref_out);
  }();
  maybe_attach_report(name, ref_trace, &ref.ledger);
  auto& t = report.add(time_kernel(
      name,
      [&] {
        ListingOutput out(g.node_count());
        return sparse_cc_list(g, cfg, out).total_reports;
      },
      static_cast<double>(ref_out.unique_count())));
  t.counters.emplace_back("ledger_total_rounds", ref.total_rounds());
  t.counters.emplace_back("ledger_total_messages",
                          static_cast<double>(ref.ledger.total_messages()));
  t.counters.emplace_back("unique_cliques",
                          static_cast<double>(ref_out.unique_count()));
  t.counters.emplace_back("total_reports",
                          static_cast<double>(ref.total_reports));
  t.counters.emplace_back("max_reports_per_node",
                          static_cast<double>(ref_out.max_reports_per_node()));
  t.counters.emplace_back("fingerprint_fold32",
                          fold_fingerprint(ref_out.cliques().fingerprint()));
}

void sparse_cc_benchmarks(BenchReport& report) {
  // The perfbench cc-p4 input and configuration.
  Rng cc_rng(21);
  const Graph cc_input = erdos_renyi_gnm(1000, 20000, cc_rng);
  SparseCcConfig cc_cfg;
  cc_cfg.p = 4;
  cc_cfg.seed = 7;
  sparse_cc_benchmark(report, "sparse_cc/p=4/er_n1000_m20000", cc_input,
                      cc_cfg);
  // Section 4's fake-edge padding: about 5 600 fake edges join the 2 000
  // real ones, so the loads count them while the listing must skip them.
  Rng pad_rng(22);
  const Graph pad_input = erdos_renyi_gnm(200, 2000, pad_rng);
  SparseCcConfig pad_cfg;
  pad_cfg.p = 3;
  pad_cfg.seed = 7;
  pad_cfg.pad_factor = 1.0;
  sparse_cc_benchmark(report, "sparse_cc/p=3/er_n200_m2000_pad1", pad_input,
                      pad_cfg);
}

/// Disabled-hooks A/B: the same fixed-seed list_kp run with every optional
/// plane off (A: cfg.faults left null, no collector installed — every
/// telemetry probe is one relaxed atomic load) and with the hooks of both
/// planes attached (B: an *inert* FaultPlan attached and a TraceCollector
/// installed around each run). The two entries are measured back to back
/// on the identical input (re-run them alone via
/// DCL_BENCH_FILTER=list_kp_hooks for a tighter interleave); their
/// counters — ledger totals, clique counts, folded clique fingerprints,
/// B's retry rounds and span count, and the explicit ab_*_equal flags —
/// are committed to BENCH_core.json, so CI enforces that neither plane
/// changes the cost model or the output, and the ns_per_op gap measures
/// what the attached hooks cost.
void hooks_ab_benchmark(BenchReport& report) {
  Rng rng(16);
  const Graph g = erdos_renyi_gnm(140, 3200, rng);
  KpConfig cfg_a;
  cfg_a.p = 4;
  cfg_a.seed = 7;
  cfg_a.stop_scale = 0.1;
  FaultPlan inert;  // default spec: active() == false, every hook dormant
  KpConfig cfg_b = cfg_a;
  cfg_b.faults = &inert;

  ListingOutput out_a(g.node_count());
  const KpListResult ref_a = list_kp_collect(g, cfg_a, out_a);
  TraceCollector collector;
  ListingOutput out_b(g.node_count());
  const KpListResult ref_b = [&] {
    TelemetryScope scope(collector);
    return list_kp_collect(g, cfg_b, out_b);
  }();
  const bool ledgers_equal = [&] {
    const auto& ea = ref_a.ledger.entries();
    const auto& eb = ref_b.ledger.entries();
    if (ea.size() != eb.size()) return false;
    for (std::size_t i = 0; i < ea.size(); ++i) {
      if (ea[i].label != eb[i].label || ea[i].rounds != eb[i].rounds ||
          ea[i].messages != eb[i].messages) {
        return false;
      }
    }
    return true;
  }();
  const bool fingerprints_equal =
      out_a.cliques().fingerprint() == out_b.cliques().fingerprint();
  maybe_attach_report("list_kp_hooks_b/p=4/er_n140_m3200", collector,
                      &ref_b.ledger);

  {
    auto& t = report.add(time_kernel(
        "list_kp_hooks_a/p=4/er_n140_m3200",
        [&] { return list_kp(g, cfg_a).total_reports; },
        static_cast<double>(out_a.unique_count())));
    t.counters.emplace_back("ledger_total_rounds", ref_a.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(out_a.unique_count()));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(out_a.cliques().fingerprint()));
  }
  {
    auto& t = report.add(time_kernel(
        "list_kp_hooks_b/p=4/er_n140_m3200",
        [&] {
          TraceCollector per_run;
          TelemetryScope scope(per_run);
          return list_kp(g, cfg_b).total_reports;
        },
        static_cast<double>(out_b.unique_count())));
    t.counters.emplace_back("ledger_total_rounds", ref_b.total_rounds());
    t.counters.emplace_back("unique_cliques",
                            static_cast<double>(out_b.unique_count()));
    t.counters.emplace_back("fingerprint_fold32",
                            fold_fingerprint(out_b.cliques().fingerprint()));
    t.counters.emplace_back("retry_rounds", ref_b.ledger.retry_rounds());
    t.counters.emplace_back("span_count",
                            static_cast<double>(collector.spans().size()));
    t.counters.emplace_back("ab_ledgers_equal", ledgers_equal ? 1.0 : 0.0);
    t.counters.emplace_back("ab_fingerprints_equal",
                            fingerprints_equal ? 1.0 : 0.0);
  }
}

int run(const char* out_path) {
  BenchReport report("bench_core");

  Rng er_rng(1);
  const Graph er2000 = erdos_renyi_gnm(2000, 30000, er_rng);
  enumeration_benchmarks(report, "er_n2000_m30000", er2000);

  Rng planted_rng(2);
  const Graph planted = planted_clique(2000, 24, 0.01, planted_rng).graph;
  enumeration_benchmarks(report, "planted_n2000_k24", planted);

  Rng kp_rng(3);
  const Graph kp_input = erdos_renyi_gnm(140, 3200, kp_rng);
  list_kp_benchmark(report, "er_n140_m3200", kp_input, 4);
  Rng kp5_rng(4);
  const Graph kp5_input = erdos_renyi_gnm(120, 2200, kp5_rng);
  list_kp_benchmark(report, "er_n120_m2200", kp5_input, 5);
  // Multi-cluster instance: the ER inputs above decompose into ONE
  // cluster, so they cannot exercise the cluster-parallel ARB-LIST tail.
  // The ring-of-cliques workload splits into 8 clusters in the first
  // iteration — the shape the per-cluster sharding (and its fingerprint
  // surface) actually covers.
  Rng ring_rng(13);
  const Graph ring_input = ring_of_cliques_workload(480, ring_rng, 8);
  list_kp_benchmark(report, "ring8_n480", ring_input, 4);
  // The q=1 one-huge-cluster regime at real scale: this ER input
  // decomposes into a SINGLE cluster, so the cluster-level sharding above
  // has nothing to split — the entry covers the two-level scheduler's
  // intra-cluster DAG-root-range shards instead (stop_scale 0.01
  // forces the iterated pipeline at n=2000; the default 0.1 threshold
  // stops before ARB-LIST on this input). Its t4 twin pins the
  // thread-invariance fingerprint for exactly the regime ISSUE 6 cracked.
  Rng q1_rng(14);
  const Graph q1_input = erdos_renyi_gnm(2000, 30000, q1_rng);
  list_kp_benchmark(report, "er1c_n2000_m30000", q1_input, 4, 0.01);
  expander_decompose_benchmark(report, "er1c_n2000_m30000", q1_input);
  expander_decompose_benchmark(report, "ring8_n480", ring_input);
  sparse_cc_benchmarks(report);

  hooks_ab_benchmark(report);

  return finish_report(report, out_path);
}

}  // namespace
}  // namespace dcl::bench

int main(int argc, char** argv) {
  return dcl::bench::bench_main(argc, argv, dcl::bench::run);
}
