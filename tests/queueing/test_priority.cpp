#include "cpm/queueing/priority.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cpm/common/error.hpp"
#include "cpm/queueing/basic.hpp"
#include "cpm/queueing/erlang.hpp"

namespace cpm::queueing {
namespace {

std::vector<ClassFlow> two_classes() {
  return {ClassFlow{units::per_second(0.3), Distribution::exponential(1.0)},
          ClassFlow{units::per_second(0.4), Distribution::exponential(1.0)}};
}

TEST(StationUtilization, SumsLoads) {
  EXPECT_NEAR(station_utilization(1, two_classes()), 0.7, 1e-12);
  EXPECT_NEAR(station_utilization(2, two_classes()), 0.35, 1e-12);
}

TEST(StationStable, Boundary) {
  // The in-place analyze_station makes the stability decision: a station
  // loaded to rho = 1 has no steady state on one server, and does on two.
  StationMetrics m;
  EXPECT_TRUE(analyze_station(1, Discipline::kFcfs, two_classes(), m));
  std::vector<ClassFlow> heavy = {ClassFlow{units::per_second(1.0), Distribution::exponential(1.0)}};
  EXPECT_FALSE(analyze_station(1, Discipline::kFcfs, heavy, m));
  EXPECT_TRUE(analyze_station(2, Discipline::kFcfs, heavy, m));
}

TEST(AnalyzeStation, SingleClassAllDisciplinesMatchMg1Sojourn) {
  // With one class there is no one to preempt or prioritise: FCFS, NP and
  // PS coincide with M/G/1 in mean sojourn (PR too, for the mean).
  const std::vector<ClassFlow> flows = {
      ClassFlow{units::per_second(0.6), Distribution::erlang(2, 1.0)}};
  const auto ref = mg1(0.6, Distribution::erlang(2, 1.0));
  for (auto d : {Discipline::kFcfs, Discipline::kNonPreemptivePriority,
                 Discipline::kPreemptiveResume}) {
    const auto m = analyze_station(1, d, flows);
    EXPECT_NEAR(m.mean_sojourn[0], ref.mean_sojourn, 1e-12)
        << discipline_name(d);
  }
  const auto ps = analyze_station(1, Discipline::kProcessorSharing, flows);
  const auto ps_ref = mg1_ps(0.6, Distribution::erlang(2, 1.0));
  EXPECT_NEAR(ps.mean_sojourn[0], ps_ref.mean_sojourn, 1e-12);
}

TEST(AnalyzeStation, FcfsGivesEqualWaits) {
  const auto m = analyze_station(1, Discipline::kFcfs, two_classes());
  EXPECT_NEAR(m.mean_wait[0], m.mean_wait[1], 1e-12);
}

TEST(AnalyzeStation, CobhamExplicitTwoClass) {
  // lambda = (0.3, 0.4), exponential mean 1 services.
  // R = sum lambda_i E[S^2]/2 = (0.3 + 0.4) * 2 / 2 = 0.7.
  // W1 = 0.7 / ((1)(1-0.3)) = 1, W2 = 0.7 / ((1-0.3)(1-0.7)) = 10/3.
  const auto m =
      analyze_station(1, Discipline::kNonPreemptivePriority, two_classes());
  EXPECT_NEAR(m.mean_wait[0], 1.0, 1e-12);
  EXPECT_NEAR(m.mean_wait[1], 10.0 / 3.0, 1e-9);
}

TEST(AnalyzeStation, PreemptiveResumeExplicitTwoClass) {
  // Class 0 sees a pure M/M/1: T0 = 1/(1-0.3) * (1 + 0.3*1/(1-0.3))... use
  // the standard form: T1 = E[S1]/(1) + R1/((1)(1-s1)) with R1 = 0.3.
  // T0 = 1 + 0.3/(0.7) = 1.42857; delay0 = 0.42857.
  const auto m =
      analyze_station(1, Discipline::kPreemptiveResume, two_classes());
  EXPECT_NEAR(m.mean_sojourn[0], 1.0 + 0.3 / 0.7, 1e-9);
  // Class 0's mean sojourn equals M/M/1 with only class-0 traffic:
  const auto solo = mm1(0.3, 1.0);
  EXPECT_NEAR(m.mean_sojourn[0], solo.mean_sojourn, 1e-9);
  // T1 = E[S2]/(1-s1) + (R1+R2)/((1-s1)(1-s1-s2))
  const double expected_t2 = 1.0 / 0.7 + 0.7 / (0.7 * 0.3);
  EXPECT_NEAR(m.mean_sojourn[1], expected_t2, 1e-9);
}

TEST(AnalyzeStation, PreemptiveClassZeroImmuneToLowerClasses) {
  // Under preemptive-resume, class 0 metrics must not change when class-1
  // load changes.
  std::vector<ClassFlow> light = {ClassFlow{units::per_second(0.3), Distribution::exponential(1.0)},
                                  ClassFlow{units::per_second(0.1), Distribution::exponential(1.0)}};
  std::vector<ClassFlow> heavy = {ClassFlow{units::per_second(0.3), Distribution::exponential(1.0)},
                                  ClassFlow{units::per_second(0.6), Distribution::exponential(1.0)}};
  const auto a = analyze_station(1, Discipline::kPreemptiveResume, light);
  const auto b = analyze_station(1, Discipline::kPreemptiveResume, heavy);
  EXPECT_NEAR(a.mean_sojourn[0], b.mean_sojourn[0], 1e-12);
}

TEST(AnalyzeStation, NonPreemptiveClassZeroSeesLowerClassResidual) {
  // Unlike PR, NP class 0 does feel lower classes through residual service.
  std::vector<ClassFlow> light = {ClassFlow{units::per_second(0.3), Distribution::exponential(1.0)},
                                  ClassFlow{units::per_second(0.1), Distribution::exponential(1.0)}};
  std::vector<ClassFlow> heavy = {ClassFlow{units::per_second(0.3), Distribution::exponential(1.0)},
                                  ClassFlow{units::per_second(0.6), Distribution::exponential(1.0)}};
  const auto a = analyze_station(1, Discipline::kNonPreemptivePriority, light);
  const auto b = analyze_station(1, Discipline::kNonPreemptivePriority, heavy);
  EXPECT_GT(b.mean_wait[0], a.mean_wait[0]);
}

TEST(AnalyzeStation, PriorityOrderingHolds) {
  std::vector<ClassFlow> flows = {
      ClassFlow{units::per_second(0.2), Distribution::exponential(1.0)},
      ClassFlow{units::per_second(0.2), Distribution::exponential(1.0)},
      ClassFlow{units::per_second(0.2), Distribution::exponential(1.0)},
      ClassFlow{units::per_second(0.2), Distribution::exponential(1.0)},
  };
  for (auto d : {Discipline::kNonPreemptivePriority, Discipline::kPreemptiveResume}) {
    const auto m = analyze_station(1, d, flows);
    for (std::size_t k = 1; k < flows.size(); ++k)
      EXPECT_GT(m.mean_wait[k], m.mean_wait[k - 1]) << discipline_name(d);
  }
}

TEST(AnalyzeStation, KleinrockConservationLaw) {
  // For M/G/1 work-conserving, non-preemptive disciplines:
  // sum_k rho_k W_k is invariant (equals rho * W_fcfs).
  std::vector<ClassFlow> flows = {
      ClassFlow{units::per_second(0.25), Distribution::erlang(2, 0.8)},
      ClassFlow{units::per_second(0.30), Distribution::exponential(0.9)},
      ClassFlow{units::per_second(0.10), Distribution::hyper_exp2(1.2, 3.0)},
  };
  const auto fcfs = analyze_station(1, Discipline::kFcfs, flows);
  const auto np = analyze_station(1, Discipline::kNonPreemptivePriority, flows);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t k = 0; k < flows.size(); ++k) {
    lhs += np.rho[k] * np.mean_wait[k];
    rhs += fcfs.rho[k] * fcfs.mean_wait[k];
  }
  EXPECT_NEAR(lhs, rhs, 1e-9);
}

TEST(AnalyzeStation, MmcPriorityEqualRatesMatchesExactFormula) {
  // For equal exponential rates, the Bondi-Buzen scaling reduces to the
  // exact M/M/c non-preemptive priority result:
  // W_k = C(c, a) / (c mu (1 - s_{k-1})(1 - s_k)).
  const int c = 3;
  const double mu = 2.0;
  std::vector<ClassFlow> flows = {
      ClassFlow{units::per_second(1.2), Distribution::exponential(1.0 / mu)},
      ClassFlow{units::per_second(1.8), Distribution::exponential(1.0 / mu)},
  };
  const double a = (1.2 + 1.8) / mu;
  const double s1 = 1.2 / (c * mu);
  const double s2 = s1 + 1.8 / (c * mu);
  const double w1 = erlang_c(c, a) / (c * mu * (1.0 - s1));
  const double w2 = erlang_c(c, a) / (c * mu * (1.0 - s1) * (1.0 - s2));
  const auto m = analyze_station(c, Discipline::kNonPreemptivePriority, flows);
  EXPECT_NEAR(m.mean_wait[0], w1, 1e-9);
  EXPECT_NEAR(m.mean_wait[1], w2, 1e-9);
}

TEST(AnalyzeStation, MultiServerFcfsMatchesErlangCForExponential) {
  std::vector<ClassFlow> flows = {ClassFlow{units::per_second(2.0), Distribution::exponential(0.5)}};
  const auto m = analyze_station(4, Discipline::kFcfs, flows);
  EXPECT_NEAR(m.mean_wait[0], mmc_mean_wait(4, 2.0, 2.0), 1e-9);
}

TEST(AnalyzeStation, ZeroRateClassHasDefinedWait) {
  // A zero-rate (probe) class still gets the wait it would experience.
  std::vector<ClassFlow> flows = {
      ClassFlow{units::per_second(0.5), Distribution::exponential(1.0)},
      ClassFlow{units::per_second(0.0), Distribution::exponential(1.0)},
  };
  const auto m = analyze_station(1, Discipline::kNonPreemptivePriority, flows);
  EXPECT_GT(m.mean_wait[1], 0.0);
  EXPECT_DOUBLE_EQ(m.rho[1], 0.0);
}

TEST(AnalyzeStation, RejectsUnstableAndMalformed) {
  std::vector<ClassFlow> heavy = {ClassFlow{units::per_second(2.0), Distribution::exponential(1.0)}};
  EXPECT_THROW(analyze_station(1, Discipline::kFcfs, heavy), Error);
  EXPECT_THROW(analyze_station(0, Discipline::kFcfs, two_classes()), Error);
  EXPECT_THROW(analyze_station(1, Discipline::kFcfs, {}), Error);
  std::vector<ClassFlow> negative = {ClassFlow{units::per_second(-0.1), Distribution::exponential(1.0)}};
  EXPECT_THROW(analyze_station(1, Discipline::kFcfs, negative), Error);
}

TEST(DisciplineName, AllNamed) {
  EXPECT_STREQ(discipline_name(Discipline::kFcfs), "fcfs");
  EXPECT_STREQ(discipline_name(Discipline::kNonPreemptivePriority), "np-priority");
  EXPECT_STREQ(discipline_name(Discipline::kPreemptiveResume), "p-priority");
  EXPECT_STREQ(discipline_name(Discipline::kProcessorSharing), "ps");
}

// Parameterised load sweep: priority waits stay finite and ordered up to
// high utilisation.
class PrioritySweep : public ::testing::TestWithParam<double> {};

TEST_P(PrioritySweep, OrderedAndFinite) {
  const double rho = GetParam();
  std::vector<ClassFlow> flows = {
      ClassFlow{units::per_second(rho / 3.0), Distribution::exponential(1.0)},
      ClassFlow{units::per_second(rho / 3.0), Distribution::exponential(1.0)},
      ClassFlow{units::per_second(rho / 3.0), Distribution::exponential(1.0)},
  };
  const auto m = analyze_station(1, Discipline::kNonPreemptivePriority, flows);
  EXPECT_TRUE(std::isfinite(m.mean_wait[2]));
  EXPECT_LT(m.mean_wait[0], m.mean_wait[1]);
  EXPECT_LT(m.mean_wait[1], m.mean_wait[2]);
}

INSTANTIATE_TEST_SUITE_P(Loads, PrioritySweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99));

}  // namespace
}  // namespace cpm::queueing
