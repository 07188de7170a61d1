// E2 — Theorem 1.2: the K4-specialized algorithm in Õ(n^{2/3}) rounds.
//
// Side-by-side with the general Theorem 1.1 algorithm at p = 4. The two
// variants share every phase except how outside edges become known:
//   * general (§2.4.1): C-light neighbor lists are broadcast and answered,
//     and the learned edges are shipped through the cluster — this is the
//     Θ̃(n^{3/4}) "Challenge 1" term;
//   * k4_fast (§3): no C-light edges ever enter the cluster; C-light nodes
//     list their own K4s in a sequential per-cluster probe — removing the
//     n^{3/4} term and leaving Õ(n^{2/3}).
// At simulable n the shared phases dominate absolute totals (the light
// traffic is capped near n^{0.45} on any instance this small), so we report
// the *variant-specific* phase costs, which must favour the k4_fast side as
// n grows, alongside the totals.
#include <cstdio>

#include "bench_util.h"
#include "core/kp_lister.h"

namespace dcl {
namespace {

double labels_sum(const KpListResult& r,
                  std::initializer_list<const char*> labels) {
  const auto by_label = r.ledger.rounds_by_label();
  double total = 0.0;
  for (const char* label : labels) {
    const auto it = by_label.find(label);
    if (it != by_label.end()) total += it->second;
  }
  return total;
}

}  // namespace
}  // namespace dcl

int main() {
  using namespace dcl;
  std::printf(
      "E2: Theorem 1.2 — K4 listing in Õ(n^{2/3}) vs the general "
      "Õ(n^{3/4} + n^{2/3}) algorithm.\n"
      "'variant phases' = light-list broadcast+response (general) vs "
      "light-probe (k4-fast).\n");
  const std::vector<NodeId> sizes = {181, 256, 362, 512, 724, 1024};
  Table table({"n", "m", "general total", "k4-fast total", "general variant",
               "k4-fast variant"});
  std::vector<double> ns, general_variant, fast_variant;
  for (const NodeId n : sizes) {
    double general = 0.0, fast = 0.0, gvar = 0.0, fvar = 0.0;
    EdgeId m = 0;
    const int seeds = 2;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      Rng rng(seed * 104729 + static_cast<std::uint64_t>(n));
      const Graph g = bench::periphery_workload(n, rng);
      m = g.edge_count();
      KpConfig cfg;
      cfg.p = 4;
      cfg.seed = seed;
      cfg.stop_scale = 0.15;
      cfg.coupling_scale = 0.25;  // keeps the periphery below the peel bar
      const auto rg = list_kp(g, cfg);
      general += rg.total_rounds();
      gvar += labels_sum(rg, {"light-list-broadcast", "light-list-response"});
      KpConfig fast_cfg = cfg;
      fast_cfg.k4_fast = true;
      const auto rf = list_kp(g, fast_cfg);
      fast += rf.total_rounds();
      fvar += labels_sum(rf, {"k4-light-probe"});
    }
    general /= seeds;
    fast /= seeds;
    gvar /= seeds;
    fvar /= seeds;
    ns.push_back(static_cast<double>(n));
    general_variant.push_back(std::max(1.0, gvar));
    fast_variant.push_back(std::max(1.0, fvar));
    table.row()
        .add(static_cast<std::int64_t>(n))
        .add(m)
        .add(general, 1)
        .add(fast, 1)
        .add(gvar, 1)
        .add(fvar, 1);
  }
  table.print();
  bench::print_exponent("  general variant phases", ns, general_variant, 0.75);
  bench::print_exponent("  k4-fast variant phases", ns, fast_variant,
                        2.0 / 3.0);
  return 0;
}
