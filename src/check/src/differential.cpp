#include "cpm/check/differential.hpp"

#include <string>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"
#include "cpm/queueing/erlang.hpp"
#include "cpm/queueing/gg.hpp"
#include "cpm/queueing/priority.hpp"

namespace cpm::check {

namespace {

// cross_validate's agreement envelopes (relative).
constexpr double kDelayTolerance = 0.25;
constexpr double kPowerTolerance = 0.03;
constexpr double kUtilizationTolerance = 0.06;

// check_reductions' tolerance: its identities are exact up to roundoff.
constexpr double kReductionTolerance = 1e-9;

}  // namespace

Report cross_validate(const core::ClusterModel& model,
                      const std::vector<double>& frequencies,
                      const core::SimSettings& settings) {
  const core::ValidationReport v = core::validate_model(model, frequencies, settings);
  const core::Evaluation& ev = v.analytic;
  Report report;

  CheckResult delay{"diff-delay", true, 0.0, kDelayTolerance, ""};
  for (std::size_t k = 0; k < model.num_classes(); ++k)
    observe(delay,
            residual(v.sim.classes[k].mean_e2e_delay.mean,
                     ev.net.e2e_delay[k].value(), 0.05),
            "class '" + model.classes()[k].name + "' E2E delay");
  report.add(std::move(delay));

  CheckResult power{"diff-power", true, 0.0, kPowerTolerance, ""};
  observe(power,
          residual(v.sim.cluster_avg_power.mean,
                   ev.energy.cluster_avg_power.value(), 1.0),
          "cluster average power");
  report.add(std::move(power));

  CheckResult util{"diff-utilization", true, 0.0, kUtilizationTolerance, ""};
  for (std::size_t s = 0; s < model.num_tiers(); ++s)
    observe(util,
            residual(v.sim.station_utilization[s].mean,
                     ev.net.station_utilization[s], 0.5),
            "tier '" + model.tiers()[s].name + "' utilization");
  report.add(std::move(util));

  // One audited single run for the exact sim-side oracles (the replicated
  // aggregate does not carry the per-run flow counters).
  sim::SimConfig cfg = model.to_sim_config(frequencies, settings.warmup_time,
                                           settings.end_time, settings.seed);
  cfg.audit = true;
  report.merge(check_simulation(cfg, sim::simulate(cfg)));
  return report;
}

Report check_reductions() {
  using queueing::ClassFlow;
  using queueing::Discipline;
  Report report;

  const double mean_service = 0.1;
  const std::vector<double> loads = {0.3, 0.7, 0.9};
  const std::vector<int> server_counts = {1, 2, 4};

  // G/G/c at arrival SCV 1 with exponential service must collapse to the
  // independent Erlang-C M/M/c path.
  CheckResult ggc_mmc{"reduction-ggc-mmc", true, 0.0, kReductionTolerance, ""};
  for (int c : server_counts) {
    for (double rho : loads) {
      const double lambda = rho * c / mean_service;
      const auto gg = queueing::ggc(c, lambda, 1.0,
                                    Distribution::exponential(mean_service));
      const double mmc = queueing::mmc_mean_wait(c, lambda, 1.0 / mean_service);
      observe(ggc_mmc, residual(gg.mean_wait, mmc, 1e-9),
              "c=" + std::to_string(c) + " rho=" + std::to_string(rho));
    }
  }
  report.add(std::move(ggc_mmc));

  // G/G/1 at arrival SCV 1 must collapse to Pollaczek-Khinchine for any
  // service law (Kingman's correction factor is exactly (1+Cs^2)/2).
  CheckResult gg1_mg1{"reduction-gg1-mg1", true, 0.0, kReductionTolerance, ""};
  for (double scv : {0.5, 1.0, 2.0}) {
    for (double rho : loads) {
      const double lambda = rho / mean_service;
      const auto service = Distribution::from_mean_scv(mean_service, scv);
      const auto gg = queueing::gg1(lambda, 1.0, service);
      const auto mg = queueing::mg1(lambda, service);
      observe(gg1_mg1, residual(gg.mean_wait, mg.mean_wait, 1e-9),
              "scv=" + std::to_string(scv) + " rho=" + std::to_string(rho));
    }
  }
  report.add(std::move(gg1_mg1));

  // With a single class there is nobody to prioritise: every priority
  // discipline must degenerate to FCFS at that station. (PS joins only at
  // SCV 1, where the insensitive PS sojourn equals the M/M/c one.)
  CheckResult prio{"reduction-priority-fcfs", true, 0.0, kReductionTolerance, ""};
  for (int c : server_counts) {
    for (double rho : loads) {
      const double lambda = rho * c / mean_service;
      for (double scv : {0.5, 1.0, 2.0}) {
        // Multi-server exactness holds for M/M/c only.
        if (c > 1 && scv != 1.0) continue;  // conv-ok: CONV-5
        const std::vector<ClassFlow> flow = {
            ClassFlow{units::per_second(lambda),
                      Distribution::from_mean_scv(mean_service, scv)}};
        const auto fcfs = queueing::analyze_station(c, Discipline::kFcfs, flow);
        for (Discipline d : {Discipline::kNonPreemptivePriority,
                             Discipline::kPreemptiveResume}) {
          const auto m = queueing::analyze_station(c, d, flow);
          observe(prio,
                  residual(m.mean_sojourn[0], fcfs.mean_sojourn[0], 1e-9),
                  std::string(queueing::discipline_name(d)) +
                      " c=" + std::to_string(c) + " scv=" + std::to_string(scv));
        }
        if (scv == 1.0 && c == 1) {  // conv-ok: CONV-5 (exact test grid)
          const auto ps =
              queueing::analyze_station(c, Discipline::kProcessorSharing, flow);
          observe(prio, residual(ps.mean_sojourn[0], fcfs.mean_sojourn[0], 1e-9),
                  "ps c=1 scv=1");
        }
      }
    }
  }
  report.add(std::move(prio));

  // PS insensitivity: the M/G/1-PS sojourn depends on the service law only
  // through its mean.
  CheckResult ps{"reduction-ps-insensitivity", true, 0.0, kReductionTolerance, ""};
  for (double rho : loads) {
    const double lambda = rho / mean_service;
    const double reference =
        queueing::mg1_ps(lambda, Distribution::exponential(mean_service))
            .mean_sojourn;
    for (double scv : {0.0, 0.5, 2.0, 4.0}) {
      const auto service = Distribution::from_mean_scv(mean_service, scv);
      observe(ps,
              residual(queueing::mg1_ps(lambda, service).mean_sojourn,
                       reference, 1e-9),
              "rho=" + std::to_string(rho) + " scv=" + std::to_string(scv));
    }
  }
  report.add(std::move(ps));

  return report;
}

Report sweep_random_models(std::uint64_t seed, int count,
                           const GeneratorOptions& generator, int sim_every,
                           const core::SimSettings& settings) {
  require(count >= 1, "sweep_random_models: count must be >= 1");
  ModelGenerator gen(seed, generator);
  Report aggregate;
  for (int i = 0; i < count; ++i) {
    const auto model = gen.next();
    const auto f = model.max_frequencies();
    aggregate.merge(check_analytic(model, f));
    if (sim_every > 0 && i % sim_every == 0) {
      core::SimSettings run = settings;
      run.seed = settings.seed + static_cast<std::uint64_t>(i);
      aggregate.merge(cross_validate(model, f, run));
    }
  }
  return aggregate;
}

}  // namespace cpm::check
