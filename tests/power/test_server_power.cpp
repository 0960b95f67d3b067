#include "cpm/power/server_power.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"

namespace cpm::power {
namespace {

TEST(ServerPower, BusyPowerAtBaseMatchesSpec) {
  const ServerPower sp(units::watts(100.0), units::watts(200.0), 3.0, DvfsRange{units::hertz(0.5), units::hertz(1.2), units::hertz(1.0)});
  EXPECT_NEAR((sp.idle_power() + sp.dynamic_power(units::hertz(1.0))).value(), 200.0, 1e-12);
  EXPECT_DOUBLE_EQ(sp.idle_power().value(), 100.0);
}

TEST(ServerPower, DynamicPowerFollowsAlpha) {
  const ServerPower sp(units::watts(100.0), units::watts(200.0), 3.0, DvfsRange{units::hertz(0.5), units::hertz(1.0), units::hertz(1.0)});
  // dynamic(f) = 100 * f^3.
  EXPECT_NEAR(sp.dynamic_power(units::hertz(0.5)).value(), 100.0 * 0.125, 1e-12);
  EXPECT_NEAR(sp.dynamic_power(units::hertz(1.0)).value(), 100.0, 1e-12);
}

TEST(ServerPower, AveragePowerInterpolatesWithUtilization) {
  const ServerPower sp(units::watts(100.0), units::watts(200.0), 1.0, DvfsRange{units::hertz(0.5), units::hertz(1.0), units::hertz(1.0)});
  const units::Watts dynamic = sp.dynamic_power(units::hertz(1.0));
  EXPECT_NEAR(sp.average_power(dynamic, 0.0).value(), 100.0, 1e-12);
  EXPECT_NEAR(sp.average_power(dynamic, 1.0).value(), 200.0, 1e-12);
  EXPECT_NEAR(sp.average_power(dynamic, 0.25).value(), 125.0, 1e-12);
}

TEST(ServerPower, SpeedupLinearInFrequency) {
  const ServerPower sp(units::watts(100.0), units::watts(200.0), 2.0, DvfsRange{units::hertz(0.4), units::hertz(2.0), units::hertz(1.0)});
  EXPECT_NEAR(sp.speedup(units::hertz(0.5)), 0.5, 1e-12);
  EXPECT_NEAR(sp.speedup(units::hertz(2.0)), 2.0, 1e-12);
}

TEST(ServerPower, MarginalEnergyIsDynamicTimesService) {
  const ServerPower sp(units::watts(100.0), units::watts(250.0), 3.0, DvfsRange{units::hertz(0.5), units::hertz(1.0), units::hertz(1.0)});
  EXPECT_NEAR(sp.marginal_energy_per_request(sp.dynamic_power(units::hertz(1.0)),
                                             units::seconds(0.02))
                  .value(),
              150.0 * 0.02, 1e-12);
  EXPECT_NEAR(sp.marginal_energy_per_request(sp.dynamic_power(units::hertz(0.8)),
                                             units::seconds(0.02))
                  .value(),
              150.0 * std::pow(0.8, 3.0) * 0.02, 1e-12);
}

TEST(ServerPower, FrequencyRangeEnforced) {
  const ServerPower sp(units::watts(100.0), units::watts(200.0), 3.0, DvfsRange{units::hertz(0.6), units::hertz(1.0), units::hertz(1.0)});
  EXPECT_THROW(static_cast<void>(sp.dynamic_power(units::hertz(0.5))), Error);
  EXPECT_THROW(static_cast<void>(sp.dynamic_power(units::hertz(1.1))), Error);
  EXPECT_THROW(static_cast<void>(sp.speedup(units::hertz(0.59))), Error);
  EXPECT_NO_THROW(static_cast<void>(sp.dynamic_power(units::hertz(0.6))));
  EXPECT_NO_THROW(static_cast<void>(sp.dynamic_power(units::hertz(1.0))));
}

TEST(ServerPower, ConstructorValidation) {
  const DvfsRange ok{units::hertz(0.5), units::hertz(1.0), units::hertz(1.0)};
  EXPECT_THROW(ServerPower(units::watts(-1.0), units::watts(200.0), 3.0, ok), Error);
  EXPECT_THROW(ServerPower(units::watts(200.0), units::watts(100.0), 3.0, ok), Error);  // busy < idle
  EXPECT_THROW(ServerPower(units::watts(100.0), units::watts(200.0), 0.5, ok), Error);  // alpha < 1
  EXPECT_THROW(ServerPower(units::watts(100.0), units::watts(200.0), 3.0, DvfsRange{units::hertz(1.0), units::hertz(0.5), units::hertz(1.0)}), Error);
  EXPECT_THROW(ServerPower(units::watts(100.0), units::watts(200.0), 3.0, DvfsRange{units::hertz(0.0), units::hertz(1.0), units::hertz(1.0)}), Error);
}

TEST(ServerPower, UtilizationValidation) {
  const ServerPower sp = ServerPower::typical_2011_server();
  const units::Watts dynamic = sp.dynamic_power(units::hertz(1.0));
  EXPECT_THROW(static_cast<void>(sp.average_power(dynamic, -0.1).value()), Error);
  EXPECT_THROW(static_cast<void>(sp.average_power(dynamic, 1.1).value()), Error);
}

TEST(ServerPower, Typical2011Preset) {
  const ServerPower sp = ServerPower::typical_2011_server();
  EXPECT_NEAR(sp.idle_power().value(), 150.0, 1e-12);
  EXPECT_NEAR((sp.idle_power() + sp.dynamic_power(units::hertz(1.0))).value(), 250.0, 1e-12);
  EXPECT_NEAR(sp.alpha(), 3.0, 1e-12);
  EXPECT_NEAR(sp.dvfs().f_min.value(), 0.6, 1e-12);
}

TEST(ServerPower, SlowingDownSavesEnergyPerUnitWork) {
  // At fixed throughput, utilisation scales as 1/f, so dynamic power spent
  // per unit of work scales as f^(alpha-1): strictly cheaper at lower f for
  // alpha > 1.
  const ServerPower sp(units::watts(100.0), units::watts(250.0), 3.0, DvfsRange{units::hertz(0.5), units::hertz(1.0), units::hertz(1.0)});
  const double work = 0.4;  // offered load at f = 1
  double prev_dynamic = 0.0;
  for (double f : {0.5, 0.7, 0.9, 1.0}) {
    const double rho = work / f;
    const double dynamic = sp.dynamic_power(units::hertz(f)).value() * rho;
    EXPECT_GT(dynamic, prev_dynamic);
    prev_dynamic = dynamic;
  }
}

}  // namespace
}  // namespace cpm::power
