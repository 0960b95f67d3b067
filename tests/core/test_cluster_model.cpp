#include "cpm/core/cluster_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "cpm/common/error.hpp"
#include "cpm/core/optimizers.hpp"
#include "cpm/queueing/basic.hpp"

namespace cpm::core {
namespace {

using queueing::Discipline;

TEST(ClusterModel, EnterpriseModelHasDocumentedShape) {
  const auto model = make_enterprise_model(0.6);
  EXPECT_EQ(model.num_tiers(), 3u);
  EXPECT_EQ(model.num_classes(), 3u);
  EXPECT_EQ(model.tiers()[0].name, "web");
  EXPECT_EQ(model.classes()[0].name, "gold");
  EXPECT_GT(model.total_rate().value(), 0.0);
}

TEST(ClusterModel, LoadParameterSetsDbUtilization) {
  for (double load : {0.3, 0.6, 0.9}) {
    const auto model = make_enterprise_model(load);
    const auto ev = model.evaluate(model.max_frequencies());
    ASSERT_TRUE(ev.stable);
    EXPECT_NEAR(ev.net.station_utilization[2], load, 1e-9) << "load " << load;
  }
}

TEST(ClusterModel, SlowerFrequenciesRaiseUtilization) {
  const auto model = make_enterprise_model(0.5);
  const auto fast = model.evaluate(model.max_frequencies());
  std::vector<double> slow_f = model.max_frequencies();
  slow_f[2] = 0.7;
  const auto slow = model.evaluate(slow_f);
  ASSERT_TRUE(fast.stable && slow.stable);
  EXPECT_NEAR(slow.net.station_utilization[2],
              fast.net.station_utilization[2] / 0.7, 1e-9);
  EXPECT_GT(slow.net.mean_e2e_delay, fast.net.mean_e2e_delay);
  EXPECT_LT(slow.energy.cluster_avg_power, fast.energy.cluster_avg_power);
}

TEST(ClusterModel, UnstablePointReportsUnstable) {
  const auto model = make_enterprise_model(0.9);
  // Slowing the db tier to 0.6 pushes rho to 1.5 -> unstable.
  std::vector<double> f = model.max_frequencies();
  f[2] = 0.6;
  const auto ev = model.evaluate(f);
  EXPECT_FALSE(ev.stable);
  EXPECT_TRUE(std::isinf(model.mean_delay_at(f).value()));
  EXPECT_TRUE(std::isinf(model.power_at(f).value()));
}

TEST(ClusterModel, WithServersChangesOnlyServerCounts) {
  const auto model = make_enterprise_model(0.6);
  const auto more = model.with_servers({4, 4, 4});
  EXPECT_EQ(more.tiers()[0].servers, 4);
  EXPECT_EQ(more.tiers()[0].name, "web");
  // More servers -> lower delay at the same frequencies.
  const auto f = model.max_frequencies();
  EXPECT_LT(more.mean_delay_at(f), model.mean_delay_at(f));
}

TEST(ClusterModel, WithRateScaleScalesLoad) {
  const auto model = make_enterprise_model(0.4);
  const auto doubled = model.with_rate_scale(2.0);
  EXPECT_NEAR(doubled.total_rate().value(), 2.0 * model.total_rate().value(), 1e-9);
  const auto ev = doubled.evaluate(doubled.max_frequencies());
  ASSERT_TRUE(ev.stable);
  EXPECT_NEAR(ev.net.station_utilization[2], 0.8, 1e-9);
}

TEST(ClusterModel, WithDisciplineSwitchesAllTiers) {
  const auto model = make_enterprise_model(0.6);
  const auto fcfs = model.with_discipline(Discipline::kFcfs);
  for (const auto& t : fcfs.tiers()) EXPECT_EQ(t.discipline, Discipline::kFcfs);
  // Under FCFS, gold loses its priority advantage.
  const auto f = model.max_frequencies();
  const auto prio_ev = model.evaluate(f);
  const auto fcfs_ev = fcfs.evaluate(f);
  EXPECT_GT(fcfs_ev.net.e2e_delay[0], prio_ev.net.e2e_delay[0]);
}

TEST(ClusterModel, CopiesShareTheSkeleton) {
  // The skeleton depends on the routes alone, which every copy keeps: each
  // shares the model's instead of copying it.
  const auto model = make_enterprise_model(0.6);
  const ClusterModel copies[] = {
      model.with_servers({2, 3, 4}),
      model.with_rates({units::per_second(1.0), units::per_second(2.0), units::per_second(3.0)}),
      model.with_rate_scale(0.9),
      model.with_discipline(Discipline::kFcfs),
      model,
  };
  for (const ClusterModel& copy : copies) EXPECT_EQ(&copy.skeleton(), &model.skeleton());
  // A model built anew binds a skeleton of its own.
  const ClusterModel rebuilt(model.tiers(), model.classes());
  EXPECT_NE(&rebuilt.skeleton(), &model.skeleton());
}

TEST(ClusterModel, FrequencyValidation) {
  const auto model = make_enterprise_model(0.6);
  EXPECT_THROW(model.evaluate({1.0, 1.0}), Error);            // wrong size
  EXPECT_THROW(model.evaluate({1.0, 1.0, 1.5}), Error);       // out of range
  EXPECT_THROW(model.evaluate({0.1, 1.0, 1.0}), Error);       // below f_min
}

// The message of the error building a model from `tiers` and `classes`
// throws, or "" when it builds.
std::string construction_error(std::vector<Tier> tiers, std::vector<WorkloadClass> classes) {
  try {
    (void)ClusterModel(std::move(tiers), std::move(classes));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A one-step route on `tier`.
std::vector<Demand> route(int tier) {
  return {Demand{tier, Distribution::exponential(0.1)}};
}

TEST(ClusterModel, ConstructorValidation) {
  // The tiers' defects; the classes' are ValidateNetwork's below.
  const std::vector<WorkloadClass> classes = {
      WorkloadClass{"c", units::per_second(1.0), route(0), {}}};
  EXPECT_EQ(construction_error({Tier{"t"}}, classes), "");
  EXPECT_EQ(construction_error({}, classes), "ClusterModel: need at least one tier");
  EXPECT_EQ(construction_error({Tier{"t", 0}}, classes),
            "ClusterModel: tier 't' needs >= 1 server");
}

TEST(ValidateNetwork, CatchesMalformedInput) {
  // The model's check is the one structural check of a network: the
  // queueing skeleton the model binds relies on it.
  const std::vector<Tier> tiers = {Tier{"t"}};
  EXPECT_EQ(construction_error(tiers, {}), "ClusterModel: need at least one class");
  EXPECT_EQ(construction_error(tiers, {WorkloadClass{"c", units::per_second(-1.0), route(0), {}}}),
            "ClusterModel: class 'c' has negative rate");
  EXPECT_EQ(construction_error(tiers, {WorkloadClass{"c", units::per_second(1.0), {}, {}}}),
            "ClusterModel: class 'c' has empty route");
  EXPECT_EQ(construction_error(tiers, {WorkloadClass{"c", units::per_second(1.0), route(7), {}}}),
            "ClusterModel: class 'c' routes to unknown tier");
}

TEST(ClusterModel, ToSimConfigMirrorsModel) {
  const auto model = make_enterprise_model(0.5);
  std::vector<double> f = {1.0, 0.8, 0.6};
  const auto cfg = model.to_sim_config(f, 10.0, 110.0, 99);
  ASSERT_EQ(cfg.stations.size(), 3u);
  ASSERT_EQ(cfg.classes.size(), 3u);
  EXPECT_EQ(cfg.stations[0].name, "web");
  EXPECT_EQ(cfg.stations[0].servers, 2);
  EXPECT_DOUBLE_EQ(cfg.warmup_time, 10.0);
  EXPECT_DOUBLE_EQ(cfg.end_time, 110.0);
  EXPECT_EQ(cfg.seed, 99u);
  // Dynamic watts at f=0.8 with alpha=3: 100 * 0.8^3 = 51.2.
  EXPECT_NEAR(cfg.stations[1].dynamic_watts.value(), 100.0 * std::pow(0.8, 3.0), 1e-9);
  // App-tier service mean is scaled by 1/0.8.
  const double base = model.classes()[0].route[1].base_service.mean();
  EXPECT_NEAR(cfg.classes[0].route[1].service.mean(), base / 0.8, 1e-12);

  // Every station runs at unit speed with its tier's dynamic watts, and
  // every visit's law is its base law rescaled by the tier's speedup, bit
  // for bit.
  const auto settings = model.tier_settings(f);
  for (std::size_t i = 0; i < cfg.stations.size(); ++i) {
    EXPECT_EQ(cfg.stations[i].speed, 1.0);
    EXPECT_EQ(cfg.stations[i].dynamic_watts.value(),
              settings[i].dynamic_watts.value());
  }
  for (std::size_t k = 0; k < cfg.classes.size(); ++k) {
    const auto& route = model.classes()[k].route;
    ASSERT_EQ(cfg.classes[k].route.size(), route.size());
    for (std::size_t v = 0; v < route.size(); ++v) {
      const Distribution& base_law = route[v].base_service;
      const double speedup =
          settings[static_cast<std::size_t>(route[v].tier)].speed;
      const Distribution expected =
          base_law.scaled_to_mean(base_law.mean() / speedup);
      const Distribution& law = cfg.classes[k].route[v].service;
      EXPECT_EQ(cfg.classes[k].route[v].station, route[v].tier);
      EXPECT_EQ(law.kind(), expected.kind());
      EXPECT_EQ(law.mean(), expected.mean());
      EXPECT_EQ(law.variance(), expected.variance());
    }
  }
}

TEST(ClusterModel, EvaluateEnergyConsistentWithTierPower) {
  const auto model = make_enterprise_model(0.6);
  const auto f = model.max_frequencies();
  const auto ev = model.evaluate(f);
  ASSERT_TRUE(ev.stable);
  // Each tier draws its servers' idle power plus their dynamic power at
  // the tier's frequency times its utilisation.
  double expected = 0.0;
  for (std::size_t i = 0; i < model.num_tiers(); ++i) {
    const power::ServerPower& p = model.tiers()[i].power;
    expected += model.tiers()[i].servers *
                p.average_power(p.dynamic_power(units::hertz(f[i])),
                                ev.net.station_utilization[i])
                    .value();
  }
  EXPECT_NEAR(ev.energy.cluster_avg_power.value(), expected, 1e-9);
}

TEST(ClusterModel, EnterpriseLoadValidation) {
  EXPECT_THROW(make_enterprise_model(0.0), Error);
  EXPECT_THROW(make_enterprise_model(1.0), Error);
}

TEST(ClusterModelRates, WithRatesReplacesExactly) {
  const auto model = make_enterprise_model(0.6);
  const auto changed =
      model.with_rates({units::per_second(1.0), units::per_second(2.0),
                        units::per_second(3.0)});
  EXPECT_DOUBLE_EQ(changed.classes()[0].rate.value(), 1.0);
  EXPECT_DOUBLE_EQ(changed.classes()[2].rate.value(), 3.0);
  EXPECT_THROW(model.with_rates({units::per_second(1.0)}), Error);
}

TEST(ClusterModelRates, TierSettingsMapFrequencies) {
  const auto model = make_enterprise_model(0.6);
  const auto s = model.tier_settings({0.8, 1.0, 0.6});
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s[0].speed, 0.8, 1e-12);
  EXPECT_NEAR(s[1].speed, 1.0, 1e-12);
  EXPECT_NEAR(s[2].dynamic_watts.value(),
              model.tiers()[2].power.dynamic_power(units::hertz(0.6)).value(), 1e-12);
}

// ---- zero-demand route steps ---------------------------------------------

// Two loaded tiers (web: 1 server, db: 2 servers) and two classes, plus,
// when `gateway` is set, a first tier that every class visits with zero
// demand: once as a point mass at 0 and once as uniform(0, 0).
ClusterModel zero_demand_model(bool gateway, Discipline discipline, int gateway_servers) {
  const int web = gateway ? 1 : 0;
  const int db = web + 1;
  std::vector<Tier> tiers = {Tier{"web", 1, discipline}, Tier{"db", 2, discipline}};
  std::vector<WorkloadClass> classes = {
      WorkloadClass{"gold", units::per_second(4.0),
                    {Demand{web, Distribution::exponential(0.03)},
                     Demand{db, Distribution::hyper_exp2(0.04, 2.0)}},
                    Sla{}},
      WorkloadClass{"bronze", units::per_second(9.0),
                    {Demand{web, Distribution::exponential(0.02)},
                     Demand{db, Distribution::exponential(0.05)}},
                    Sla{}},
  };
  if (gateway) {
    tiers.insert(tiers.begin(), Tier{"gateway", gateway_servers, discipline});
    for (auto& c : classes) {
      c.route.insert(c.route.begin(), Demand{0, Distribution::deterministic(0.0)});
      c.route.push_back(Demand{0, Distribution::uniform(0.0, 0.0)});
    }
  }
  return ClusterModel(std::move(tiers), std::move(classes));
}

TEST(ZeroDemand, TierReachedOnlyByZeroDemandIsStableAndFree) {
  // The zero-demand gateway adds no wait and no marginal energy: every
  // class's delay and marginal energy match the model without it, bit for
  // bit, and the cluster draws only the gateway servers' idle power more.
  // That unloaded tier's idle power is charged to every request alike, so
  // the classes still recover the cluster's whole power.
  for (const Discipline d : {Discipline::kFcfs, Discipline::kNonPreemptivePriority,
                             Discipline::kPreemptiveResume,
                             Discipline::kProcessorSharing}) {
    for (const int servers : {1, 3}) {
      SCOPED_TRACE(std::string(queueing::discipline_name(d)) + " x" +
                   std::to_string(servers));
      const ClusterModel plain = zero_demand_model(false, d, servers);
      const ClusterModel gated = zero_demand_model(true, d, servers);
      for (const double f : {0.6, 0.8, 1.0}) {
        const Evaluation a = plain.evaluate({f, f});
        Evaluation b;
        ASSERT_NO_THROW(b = gated.evaluate({0.6 + 0.4 * (1.0 - f), f, f}));
        ASSERT_TRUE(a.stable);
        ASSERT_TRUE(b.stable);
        EXPECT_EQ(b.net.station_utilization[0], 0.0);
        for (std::size_t k = 0; k < 2; ++k) {
          EXPECT_EQ(b.net.station_wait[0][k], 0.0);
          EXPECT_EQ(b.net.e2e_delay[k], a.net.e2e_delay[k]);
          EXPECT_EQ(b.net.e2e_delay_variance[k], a.net.e2e_delay_variance[k]);
          EXPECT_EQ(b.energy.marginal_energy[k], a.energy.marginal_energy[k]);
        }
        const units::Watts gateway_idle =
            gated.tiers()[0].power.idle_power() * static_cast<double>(servers);
        EXPECT_EQ(b.energy.cluster_avg_power, a.energy.cluster_avg_power + gateway_idle);
        double recovered = 0.0;
        for (std::size_t k = 0; k < 2; ++k) {
          const double rate = gated.classes()[k].rate.value();
          EXPECT_NEAR(b.energy.per_request_energy[k].value(),
                      a.energy.per_request_energy[k].value() +
                          gateway_idle.value() / gated.total_rate().value(),
                      1e-12 * b.energy.per_request_energy[k].value());
          recovered += rate * b.energy.per_request_energy[k].value();
        }
        EXPECT_NEAR(recovered, b.energy.cluster_avg_power.value(),
                    1e-12 * b.energy.cluster_avg_power.value());
      }
    }
  }
}

TEST(ZeroDemand, SharedTierVisitIsFinite) {
  // A zero-demand step at a loaded tier waits there like any request and
  // adds no load and no energy of its own.
  for (const Discipline d : {Discipline::kFcfs, Discipline::kNonPreemptivePriority,
                             Discipline::kPreemptiveResume,
                             Discipline::kProcessorSharing}) {
    SCOPED_TRACE(queueing::discipline_name(d));
    const ClusterModel plain = zero_demand_model(false, d, 1);
    std::vector<WorkloadClass> classes = plain.classes();
    classes[0].route.push_back(Demand{1, Distribution::deterministic(0.0)});
    const ClusterModel extra(plain.tiers(), classes);
    const auto f = extra.max_frequencies();
    const Evaluation a = plain.evaluate(f);
    Evaluation b;
    ASSERT_NO_THROW(b = extra.evaluate(f));
    ASSERT_TRUE(b.stable);
    EXPECT_EQ(b.net.station_utilization, a.net.station_utilization);
    EXPECT_EQ(b.energy.cluster_avg_power, a.energy.cluster_avg_power);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_TRUE(std::isfinite(b.net.e2e_delay[k].value()));
      EXPECT_TRUE(std::isfinite(b.net.e2e_delay_variance[k].value()));
      EXPECT_DOUBLE_EQ(b.energy.per_request_energy[k].value(),
                       a.energy.per_request_energy[k].value());
    }
    // The step's sojourn is its wait at the db tier, where gold's own
    // visit (the tier's visit 0) merged with it.
    TierBuffers buffers;
    std::vector<double> figures(extra.unit_size(1));
    const TierUnit db = extra.analyze_tier(1, extra.tiers()[1].servers,
                                           units::hertz(f[1]), figures, buffers);
    ASSERT_EQ(extra.skeleton().visits[1][1].cls, 0U);
    EXPECT_EQ(db.sojourn(1), b.net.station_wait[1][0]);
  }
}

TEST(ZeroDemand, SimulationAndOptimisersAcceptZeroDemand) {
  const ClusterModel gated = zero_demand_model(true, Discipline::kNonPreemptivePriority, 2);
  const auto f = gated.max_frequencies();
  sim::SimConfig cfg;
  ASSERT_NO_THROW(cfg = gated.to_sim_config(f, 0.0, 10.0, 1));
  EXPECT_EQ(cfg.classes[0].route.front().service.mean(), 0.0);
  const Evaluation at_max = gated.evaluate(f);
  ASSERT_TRUE(at_max.stable);
  FrequencyOptResult r;
  ASSERT_NO_THROW(r = minimize_power_with_delay_bound(gated, at_max.mean_delay() * 2.0));
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(std::isfinite(r.power.value()));
  // On or below the bound.
  EXPECT_LE(r.mean_delay, at_max.mean_delay() * 2.0);
}

}  // namespace
}  // namespace cpm::core
