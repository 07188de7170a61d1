// dcl — command-line front end for the distributed clique listing library.
//
// Subcommands:
//   generate <family> <n> [seed]        write an edge list to stdout
//       families: gnm:<m> | gnp:<p> | clustered | periphery | ring |
//                 powerlaw:<avg_deg> | complete
//   info <file>                         basic graph statistics
//   list <file> <p> [general|k4fast|cc|trivial] [seed]
//        [--faults SPEC | --fault-replay FILE] [--fault-record FILE]
//        [--stop-scale X] [--trace FILE] [--report FILE]
//                                       run a lister; print rounds + count;
//                                       with faults, the oracle degrades to
//                                       the survivor contract (docs/
//                                       ROBUSTNESS.md); --stop-scale sets
//                                       KpConfig::stop_scale (general and
//                                       k4fast; default 1.0)
//   count <file> <p>                    sequential exact count (oracle)
//   decompose <file> <delta>            expander decomposition statistics
//
// Examples:
//   dcl generate clustered 256 7 > g.txt
//   dcl list g.txt 4 k4fast
//   dcl decompose g.txt 0.55
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <algorithm>

#include "baselines/baselines.h"
#include "congest/fault_plan.h"
#include "common/math_util.h"
#include "common/telemetry.h"
#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "expander/decomposition.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/orientation.h"
#include "graph/workloads.h"

namespace {

using namespace dcl;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  dcl generate <family> <n> [seed]   (family: gnm:<m> | "
               "gnp:<p> | clustered | periphery | ring | powerlaw:<deg> | "
               "complete)\n"
               "  dcl info <file>\n"
               "  dcl list <file> <p> [general|k4fast|cc|trivial] [seed]\n"
               "           [--faults SPEC | --fault-replay FILE] "
               "[--fault-record FILE]\n"
               "           [--stop-scale X] [--trace FILE] [--report FILE]\n"
               "           (SPEC e.g. drop=0.1,dup=0.05,delay=0.02:3,"
               "retries=4,seed=7,crash=5@2)\n"
               "  dcl count <file> <p>\n"
               "  dcl decompose <file> <delta>\n");
  return 2;
}

/// `text` read as a T in full, or an error that names `what` and quotes
/// `text`, which `main` prints as one line before exiting 1. Where atoi
/// and atof would read "3x" as 3 and "abc" as 0, this rejects both, and
/// it rejects "nan" and "inf", which no parameter here can take.
template <typename T>
T parse_number(const std::string& text, const std::string& what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool finite = true;
  if constexpr (std::is_floating_point_v<T>) finite = std::isfinite(value);
  if (text.empty() || ec != std::errc{} || ptr != end || !finite) {
    throw std::runtime_error(what + " must be a number, got '" + text + "'");
  }
  return value;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string family = argv[0];
  const auto n = parse_number<NodeId>(argv[1], "n");
  const std::uint64_t seed =
      (argc > 2) ? parse_number<std::uint64_t>(argv[2], "seed") : 1;
  Rng rng(seed);
  Graph g;
  if (family.rfind("gnm:", 0) == 0) {
    g = erdos_renyi_gnm(n, parse_number<EdgeId>(family.substr(4), "gnm:<m>"),
                        rng);
  } else if (family.rfind("gnp:", 0) == 0) {
    g = erdos_renyi_gnp(n, parse_number<double>(family.substr(4), "gnp:<p>"),
                        rng);
  } else if (family == "clustered") {
    g = clustered_workload(n, rng);
  } else if (family == "periphery") {
    g = periphery_workload(n, rng);
  } else if (family == "ring") {
    g = ring_of_cliques_workload(n, rng);
  } else if (family.rfind("powerlaw:", 0) == 0) {
    g = power_law_chung_lu(
        n, 2.5, parse_number<double>(family.substr(9), "powerlaw:<deg>"), rng);
  } else if (family == "complete") {
    g = complete_graph(n);
  } else {
    std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
    return usage();
  }
  write_edge_list(g, std::cout);
  std::fprintf(stderr, "generated %s graph: n=%d m=%lld\n", family.c_str(),
               g.node_count(), static_cast<long long>(g.edge_count()));
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 1) return usage();
  const Graph g = load_edge_list(argv[0]);
  const auto dec = degeneracy_order(g);
  const auto [comp, components] = g.connected_components();
  (void)comp;
  std::printf("nodes:       %d\n", g.node_count());
  std::printf("edges:       %lld\n", static_cast<long long>(g.edge_count()));
  std::printf("max degree:  %d\n", g.max_degree());
  std::printf("avg degree:  %.2f\n", g.average_degree());
  std::printf("degeneracy:  %d\n", dec.degeneracy);
  std::printf("components:  %d\n", components);
  std::printf("triangles:   %llu\n",
              static_cast<unsigned long long>(count_k_cliques(g, 3)));
  return 0;
}

int cmd_list(int argc, char** argv) {
  // Split option flags from the positional arguments.
  std::string fault_spec, fault_replay, fault_record;
  std::string trace_path, report_path;
  std::optional<double> stop_scale;
  std::vector<char*> pos;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto flag_value = [&](const char* name) -> std::string {
      const std::size_t len = std::strlen(name);
      if (a.compare(0, len + 1, std::string(name) + "=") == 0) {
        return a.substr(len + 1);
      }
      if (++i >= argc) {
        throw std::runtime_error(std::string(name) + " requires a value");
      }
      return argv[i];
    };
    if (a.rfind("--faults", 0) == 0 && (a.size() == 8 || a[8] == '=')) {
      fault_spec = flag_value("--faults");
    } else if (a.rfind("--fault-replay", 0) == 0 &&
               (a.size() == 14 || a[14] == '=')) {
      fault_replay = flag_value("--fault-replay");
    } else if (a.rfind("--fault-record", 0) == 0 &&
               (a.size() == 14 || a[14] == '=')) {
      fault_record = flag_value("--fault-record");
    } else if (a.rfind("--trace", 0) == 0 && (a.size() == 7 || a[7] == '=')) {
      trace_path = flag_value("--trace");
    } else if (a.rfind("--report", 0) == 0 && (a.size() == 8 || a[8] == '=')) {
      report_path = flag_value("--report");
    } else if (a.rfind("--stop-scale", 0) == 0 &&
               (a.size() == 12 || a[12] == '=')) {
      const std::string value = flag_value("--stop-scale");
      const double x = parse_number<double>(value, "--stop-scale");
      if (!(x > 0.0)) {
        throw std::runtime_error(
            "--stop-scale must be a positive number, got '" + value + "'");
      }
      stop_scale = x;
    } else if (a.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
      return usage();
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (pos.size() < 2) return usage();
  if (!fault_spec.empty() && !fault_replay.empty()) {
    throw std::runtime_error(
        "--faults and --fault-replay are mutually exclusive");
  }

  const Graph g = load_edge_list(pos[0]);
  const int p = parse_number<int>(pos[1], "p");
  const std::string algo = (pos.size() > 2) ? pos[2] : "general";
  const std::uint64_t seed =
      (pos.size() > 3) ? parse_number<std::uint64_t>(pos[3], "seed") : 1;

  FaultPlan plan;
  if (!fault_replay.empty()) {
    std::ifstream in(fault_replay);
    if (!in) {
      throw std::runtime_error("cannot open fault schedule '" + fault_replay +
                               "'");
    }
    plan = FaultPlan::deserialize(in);
  } else if (!fault_spec.empty()) {
    plan = FaultPlan(FaultSpec::parse(fault_spec));
  }
  const bool faulty = plan.enabled() || plan.replaying();

  // Telemetry is collected only when asked for: the collector is installed
  // for the duration of the run, and the disabled plane costs one relaxed
  // atomic load per probe otherwise.
  const bool tracing = !trace_path.empty() || !report_path.empty();
  TraceCollector collector;
  std::optional<TelemetryScope> scope;
  if (tracing) scope.emplace(collector);
  std::string command = "list";
  for (char* const* a = pos.data(); a != pos.data() + pos.size(); ++a) {
    command += ' ';
    command += *a;
  }

  ListingOutput out(g.node_count());
  double rounds = 0;
  std::vector<NodeId> crashed;
  bool crash_degraded = false;
  std::uint64_t lost = 0;
  double retry_rounds = 0.0;
  std::uint64_t retransmitted = 0;
  RoundLedger report_ledger;
  if (algo == "general" || algo == "k4fast") {
    KpConfig cfg;
    cfg.p = p;
    cfg.k4_fast = (algo == "k4fast");
    cfg.seed = seed;
    cfg.faults = faulty ? &plan : nullptr;
    if (stop_scale) cfg.stop_scale = *stop_scale;
    const auto result = list_kp_collect(g, cfg, out);
    rounds = result.total_rounds();
    crashed = result.crashed_nodes;
    crash_degraded = result.crash_degraded;
    lost = result.lost_messages;
    retry_rounds = result.ledger.retry_rounds();
    retransmitted = result.ledger.retransmitted_messages();
    report_ledger = result.ledger;
    result.ledger.print_audited(std::cout);
  } else if (stop_scale) {
    throw std::runtime_error("--stop-scale applies to general and k4fast only");
  } else if (algo == "cc") {
    if (faulty && !plan.crashes().empty()) {
      throw std::runtime_error(
          "cc is accounting-level only: crash=... faults are not supported "
          "(use drop/dup/delay)");
    }
    SparseCcConfig cfg;
    cfg.p = p;
    cfg.seed = seed;
    cfg.faults = faulty ? &plan : nullptr;
    const auto result = sparse_cc_list(g, cfg, out);
    rounds = result.total_rounds();
    lost = result.lost_messages;
    retry_rounds = result.ledger.retry_rounds();
    retransmitted = result.ledger.retransmitted_messages();
    report_ledger = result.ledger;
    result.ledger.print_audited(std::cout);
  } else if (algo == "trivial") {
    if (faulty) {
      throw std::runtime_error(
          "the trivial baseline does not support fault injection");
    }
    const auto result = trivial_broadcast_list(g, p, out);
    rounds = result.total_rounds();
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algo.c_str());
    return usage();
  }

  if (!fault_record.empty()) {
    std::ofstream rec(fault_record);
    if (!rec) {
      throw std::runtime_error("cannot write fault schedule '" + fault_record +
                               "'");
    }
    plan.serialize(rec);
    std::fprintf(stderr, "fault schedule (%zu events) written to %s\n",
                 plan.schedule().size(), fault_record.c_str());
  }

  if (tracing) {
    scope.reset();  // stop collecting before exporting
    if (!trace_path.empty()) {
      std::ofstream tr(trace_path);
      if (!tr) {
        throw std::runtime_error("cannot write trace '" + trace_path + "'");
      }
      collector.write_chrome_trace(tr);
      std::fprintf(stderr, "chrome trace (%zu spans) written to %s\n",
                   collector.spans().size(), trace_path.c_str());
    }
    if (!report_path.empty()) {
      std::ofstream rp(report_path);
      if (!rp) {
        throw std::runtime_error("cannot write report '" + report_path + "'");
      }
      write_run_report(rp, collector, &report_ledger, command);
      std::fprintf(stderr, "run report written to %s\n", report_path.c_str());
    }
  }

  std::printf("algorithm:      %s\n", algo.c_str());
  std::printf("K%d instances:   %llu (unique; %llu reports)\n", p,
              static_cast<unsigned long long>(out.unique_count()),
              static_cast<unsigned long long>(out.total_reports()));
  std::printf("rounds:         %.1f\n", rounds);
  if (faulty) {
    std::printf("faults:         %.1f retry rounds, %llu retransmitted, "
                "%llu lost, %zu crashed%s\n",
                retry_rounds,
                static_cast<unsigned long long>(retransmitted),
                static_cast<unsigned long long>(lost), crashed.size(),
                crash_degraded ? " (degraded fallback used)" : "");
  }

  const auto truth = count_k_cliques(g, p);
  if (crashed.empty()) {
    // Fault-free / recoverable regime: the output is exact.
    std::printf("oracle check:   %llu — %s\n",
                static_cast<unsigned long long>(truth),
                truth == out.unique_count() ? "match" : "MISMATCH");
    return truth == out.unique_count() ? 0 : 1;
  }

  // Survivor contract (docs/ROBUSTNESS.md): every Kp of G[alive] must be
  // listed, everything listed must be a Kp of G (cliques touching a crashed
  // node may legitimately appear — they were listed before the crash).
  std::vector<char> dead(static_cast<std::size_t>(g.node_count()), 0);
  for (const NodeId v : crashed) dead[static_cast<std::size_t>(v)] = 1;
  EdgeMask alive_edges(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    alive_edges.set(e, !dead[static_cast<std::size_t>(ed.u)] &&
                           !dead[static_cast<std::size_t>(ed.v)]);
  }
  const auto alive_cliques =
      list_k_cliques(subgraph(g, {}, alive_edges).graph, p);
  const CliqueSet& listed = out.cliques();
  std::uint64_t missing = 0;
  for (const auto& c : alive_cliques) {
    if (!listed.contains(c)) ++missing;
  }
  bool sound = true;
  listed.for_each_span([&](std::span<const NodeId> c) {
    sound = sound && c.size() == static_cast<std::size_t>(p) && is_clique(g, c);
  });
  std::printf("oracle check:   survivor contract — %llu/%zu alive K%d "
              "listed, %llu total (<= %llu in G) — %s\n",
              static_cast<unsigned long long>(alive_cliques.size() - missing),
              alive_cliques.size(), p,
              static_cast<unsigned long long>(out.unique_count()),
              static_cast<unsigned long long>(truth),
              (missing == 0 && sound) ? "match" : "MISMATCH");
  return (missing == 0 && sound) ? 0 : 1;
}

int cmd_count(int argc, char** argv) {
  if (argc < 2) return usage();
  const Graph g = load_edge_list(argv[0]);
  const int p = parse_number<int>(argv[1], "p");
  std::printf("%llu\n",
              static_cast<unsigned long long>(count_k_cliques(g, p)));
  return 0;
}

int cmd_decompose(int argc, char** argv) {
  if (argc < 2) return usage();
  const Graph g = load_edge_list(argv[0]);
  const double delta = parse_number<double>(argv[1], "delta");
  DecompositionConfig cfg;
  cfg.delta = delta;
  Rng rng(1);
  const auto d = expander_decompose(g, g.node_count(), cfg, rng);
  std::printf("delta:           %.3f (n^delta = %lld)\n", delta,
              static_cast<long long>(ceil_pow(g.node_count(), delta)));
  std::printf("charged rounds:  %.1f (T2.3: Õ(n^{1-delta}))\n",
              d.charged_rounds);
  std::printf("|Em| (clusters): %lld\n", static_cast<long long>(d.em_count));
  std::printf("|Es| (sparse):   %lld\n", static_cast<long long>(d.es_count));
  std::printf("|Er| (removed):  %lld (budget |E|/6 = %lld)\n",
              static_cast<long long>(d.er_count),
              static_cast<long long>(g.edge_count() / 6));
  std::printf("clusters:        %zu\n", d.clusters.size());
  for (const auto& c : d.clusters) {
    std::printf("  cluster %d: %zu nodes, min degree %d, %lld internal "
                "edges, mixing ≈ %.1f\n",
                c.id, c.nodes.size(), c.min_internal_degree,
                static_cast<long long>(c.internal_edges),
                cluster_mixing_time(g, d, c));
  }
  const auto errors = verify_decomposition(
      g, g.node_count(), cfg, d, polylog_mixing_bound(g.edge_count()));
  std::printf("verification:    %s\n",
              errors.empty() ? "all Definition 2.2 guarantees hold"
                             : errors.front().c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc - 2, argv + 2);
    if (cmd == "info") return cmd_info(argc - 2, argv + 2);
    if (cmd == "list") return cmd_list(argc - 2, argv + 2);
    if (cmd == "count") return cmd_count(argc - 2, argv + 2);
    if (cmd == "decompose") return cmd_decompose(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcl %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
