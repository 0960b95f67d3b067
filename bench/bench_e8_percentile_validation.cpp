// E8 — Percentile-SLA extension: analytic 95th-percentile E2E delay vs
// the simulator's streaming P^2 estimate.
//
// The paper's SLA line of work (Xiong & Perros) contracts on response-time
// PERCENTILES, not just means. The analytic side fits a gamma to the
// per-class E2E (mean, variance) obtained from Takács second moments at
// single-server FCFS stations and an exponential-shape approximation
// elsewhere. Expected shape: a few percent error at practical loads,
// degrading near saturation like E1.
#include <iostream>

#include "scenarios.hpp"

int main() {
  using namespace cpm;

  print_banner(std::cout, "E8: p95 E2E delay, analytic (gamma fit) vs simulated");
  Table t({"load", "class", "p95 analytic s", "p95 simulated s", "err %"});

  const core::SimSettings settings = bench::validation_settings();

  double worst = 0.0;
  for (double load : {0.3, 0.5, 0.7, 0.8, 0.9}) {
    const auto model = core::make_enterprise_model(load);
    const auto v = core::validate_model(model, model.max_frequencies(), settings);
    for (std::size_t k = 0; k < model.num_classes(); ++k) {
      const double analytic =
          queueing::percentile_e2e_delay(v.analytic.net, k, 0.95).value();
      const double simulated = v.sim.classes[k].p95_e2e_delay.mean;
      const double err =
          simulated > 0.0 ? 100.0 * std::abs(analytic - simulated) / simulated
                          : 0.0;
      worst = std::max(worst, err);
      t.row()
          .add(load, 2)
          .add(model.classes()[k].name)
          .add(analytic)
          .add(simulated)
          .add(err, 2);
    }
  }
  t.print(std::cout);
  std::cout << "\nworst p95 error: " << format_double(worst, 2)
            << "% (gamma two-moment fit + independence across tiers)\n";
  return 0;
}
