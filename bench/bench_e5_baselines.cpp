// E5 — the paper's §1 comparison landscape.
//
// Head-to-head measured rounds: our Theorem 1.1 lister vs the Eden-style
// one-shot baseline vs the trivial Δ-round broadcast (the only prior
// sub-quadratic option for p ≥ 6). We report absolute rounds, the
// message-level (exchange-kind) rounds — which carry none of the Õ(·)
// polylog charges — and fitted exponents. The reproduction claim is about
// *scaling*: our exponent must sit below the baselines'; at simulable n the
// polylog factors inside T2.3/T2.4 keep absolute totals above Δ.
#include <cstdio>

#include "baselines/baselines.h"
#include "bench_util.h"
#include "core/kp_lister.h"

int main() {
  using namespace dcl;
  std::printf("E5: §1 comparison — ours vs one-shot (Eden-style) vs trivial "
              "broadcast.\n");
  const std::vector<NodeId> sizes = {181, 256, 362, 512};
  for (const int p : {4, 6}) {
    std::printf("\n-- p = %d --\n", p);
    Table table({"n", "m", "ours total", "ours msg-level", "one-shot",
                 "trivial (Δ)", "msg-level/Δ"});
    std::vector<double> ns, ours_series, oneshot_series, trivial_series,
        msg_series;
    for (const NodeId n : sizes) {
      Rng rng(static_cast<std::uint64_t>(n) * 13 + static_cast<std::uint64_t>(p));
      const Graph g = erdos_renyi_gnp(n, 0.12, rng);  // dense regime
      KpConfig cfg;
      cfg.p = p;
      cfg.stop_scale = 0.15;
      const auto ours = list_kp(g, cfg);
      ListingOutput o1(n), o2(n);
      // δ = 0.5 keeps the one-shot decomposition in its cluster-forming
      // regime across the whole sweep (at δ = 2/3 the n ≤ ~200 points
      // degenerate to pure broadcast and the series is bimodal).
      const auto oneshot = one_shot_list(g, p, o1, /*delta=*/0.5);
      const auto trivial = trivial_broadcast_list(g, p, o2);
      const double msg_level = ours.ledger.rounds_of_kind(CostKind::exchange);
      table.row()
          .add(static_cast<std::int64_t>(n))
          .add(g.edge_count())
          .add(ours.total_rounds(), 1)
          .add(msg_level, 1)
          .add(oneshot.total_rounds(), 1)
          .add(trivial.total_rounds(), 1)
          .add(msg_level / trivial.total_rounds(), 3);
      ns.push_back(static_cast<double>(n));
      ours_series.push_back(ours.total_rounds());
      msg_series.push_back(msg_level);
      oneshot_series.push_back(oneshot.total_rounds());
      trivial_series.push_back(trivial.total_rounds());
    }
    table.print();
    const double ours_pred = std::max(0.75, static_cast<double>(p) / (p + 2));
    bench::print_exponent("  ours (total)    ", ns, ours_series, ours_pred);
    bench::print_exponent("  one-shot        ", ns, oneshot_series,
                          p == 4 ? 5.0 / 6.0 : 1.0);
    bench::print_exponent("  trivial         ", ns, trivial_series, 1.0);
    // Crossover extrapolation: with ours ~ a·n^x and trivial ~ b·n^y
    // (y > x), ours wins beyond n* = (a/b)^{1/(y-x)}. At simulable n the
    // polylog constants inside T2.3/T2.4 keep a ≫ b, so n* lies beyond the
    // sweep — the scaling, not the absolute total, is the reproduced claim.
    const auto fo = fit_power_law(ns, ours_series);
    const auto ft = fit_power_law(ns, trivial_series);
    if (ft.slope > fo.slope) {
      const double log_nstar =
          (fo.intercept - ft.intercept) / (ft.slope - fo.slope);
      std::printf("  extrapolated ours-vs-trivial crossover: n* ≈ %.2e\n",
                  std::exp(log_nstar));
    }
  }
  return 0;
}
