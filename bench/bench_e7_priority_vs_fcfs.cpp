// E7 — Priority vs FCFS per-class delay across load (reconstructs the
// motivation figure for priority-type scheduling), with both analytic and
// simulated series.
//
// Expected shape: under FCFS all classes share one growth curve; under
// priority the gold curve stays nearly flat to saturation while bronze
// absorbs the congestion. Simulation confirms the analytic curves.
#include <iostream>

#include "scenarios.hpp"

int main() {
  using namespace cpm;

  print_banner(std::cout, "E7: per-class delay vs load, priority vs FCFS");
  Table t({"load", "sched", "gold (an)", "gold (sim)", "bronze (an)",
           "bronze (sim)"});

  core::SimSettings settings = bench::validation_settings();
  settings.end_time = 600.0;  // lighter than E1: two disciplines per load

  for (double load : {0.3, 0.5, 0.7, 0.85, 0.95}) {
    for (auto d : {queueing::Discipline::kNonPreemptivePriority,
                   queueing::Discipline::kFcfs}) {
      const auto model = core::make_enterprise_model(load, d);
      const auto v = core::validate_model(model, model.max_frequencies(), settings);
      t.row()
          .add(load, 2)
          .add(queueing::discipline_name(d))
          .add(v.analytic.net.e2e_delay[0].value())
          .add(v.sim.classes[0].mean_e2e_delay.mean)
          .add(v.analytic.net.e2e_delay[2].value())
          .add(v.sim.classes[2].mean_e2e_delay.mean);
    }
  }
  t.print(std::cout);
  std::cout << "\nGold under priority is load-insensitive; under FCFS it tracks\n"
               "the aggregate and blows up with everyone else.\n";
  return 0;
}
