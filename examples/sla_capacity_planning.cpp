// Capacity planning under priority SLAs (the paper's P-C problem).
//
// A service provider signs gold/silver/bronze SLAs and must provision the
// cheapest cluster that honours all of them. This example sizes the
// 3-tier enterprise application at several demand forecasts, comparing
// priority scheduling against plain FCFS — quantifying how much hardware
// the priority discipline saves.
#include <iostream>

#include "cpm/core/cpm.hpp"

int main() {
  using namespace cpm;

  print_banner(std::cout, "SLA-driven capacity planning (P-C)");
  std::cout << "SLAs: gold 0.25 s, silver 0.6 s, bronze 2.0 s mean E2E delay\n";

  Table t({"demand x", "sched", "web", "app", "db", "cost", "gold delay",
           "bronze delay"});

  for (double demand : {1.0, 1.5, 2.0, 3.0}) {
    // make_enterprise_model(load) fixes db utilisation = load at the base
    // single-server sizing; scaling demand beyond 1.0 forces extra servers.
    const auto base = core::make_enterprise_model(0.55);
    const auto model = base.with_rate_scale(demand);

    for (bool fcfs : {false, true}) {
      const auto sized =
          fcfs ? model.with_discipline(queueing::Discipline::kFcfs) : model;
      const auto r = core::minimize_cost_for_slas(sized);
      if (!r.feasible) {
        t.row()
            .add(demand, 2)
            .add(fcfs ? "fcfs" : "priority")
            .add("-")
            .add("-")
            .add("-")
            .add("infeasible")
            .add("-")
            .add("-");
        continue;
      }
      t.row()
          .add(demand, 2)
          .add(fcfs ? "fcfs" : "priority")
          .add(r.servers[0])
          .add(r.servers[1])
          .add(r.servers[2])
          .add(r.total_cost, 2)
          .add(r.evaluation.net.e2e_delay[0].value(), 4)
          .add(r.evaluation.net.e2e_delay[2].value(), 4);
    }
  }
  t.print(std::cout);

  std::cout << "\nPriority scheduling meets the same SLAs with at most the\n"
               "FCFS cost: FCFS must over-provision every tier to protect\n"
               "gold traffic it cannot distinguish from bronze.\n";

  // Confirm the tightest plan by simulation.
  print_banner(std::cout, "simulation check of the 3x priority plan");
  const auto model = core::make_enterprise_model(0.55).with_rate_scale(3.0);
  const auto plan = core::minimize_cost_for_slas(model);
  if (plan.feasible) {
    const auto sized = model.with_servers(plan.servers);
    core::SimSettings settings;
    settings.replications = 6;
    settings.seed = 1;
    const auto report = core::validate_model(sized, sized.max_frequencies(), settings);
    Table v({"class", "SLA", "analytic", "simulated"});
    for (std::size_t k = 0; k < model.num_classes(); ++k) {
      v.row()
          .add(model.classes()[k].name)
          .add(model.classes()[k].sla.max_mean_e2e_delay.value(), 2)
          .add(report.analytic.net.e2e_delay[k].value())
          .add(report.sim.classes[k].mean_e2e_delay.mean);
    }
    v.print(std::cout);
  }
  return 0;
}
