// Kleinrock's square-root capacity assignment as the closed-form oracle of
// the P-D solve.
//
// Assign service rates mu_i to independent M/M/1 stations carrying flows
// lambda_i so that the traffic-weighted mean delay
//
//     T(mu) = (1/Lambda) sum_i lambda_i / (mu_i - lambda_i)
//
// is minimised subject to a linear budget sum_i c_i mu_i <= C. The optimum
// gives each station its own load plus a share of the slack proportional
// to sqrt(lambda_i / c_i): the "square-root rule". With one class per
// single-server FCFS tier, exponential service and alpha = 2 (dynamic
// power linear in the service rate), P-D is exactly this program.
#include <gtest/gtest.h>

#include <cmath>

#include "cpm/common/error.hpp"
#include "cpm/core/optimizers.hpp"

namespace cpm::core {
namespace {

struct CapacityAssignment {
  std::vector<double> mu;  // optimal service rates
  double mean_delay = 0.0;
  bool feasible = false;   // the budget covers more than the offered loads
};

CapacityAssignment kleinrock_assignment(const std::vector<double>& lambda,
                                        const std::vector<double>& cost, double budget) {
  require(!lambda.empty(), "kleinrock: need at least one station");
  require(lambda.size() == cost.size(), "kleinrock: lambda/cost size mismatch");
  double base_cost = 0.0;  // cost of carrying the load with zero slack
  double sqrt_sum = 0.0;   // sum_j sqrt(c_j lambda_j)
  double total_rate = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    require(lambda[i] > 0.0, "kleinrock: flows must be positive");
    require(cost[i] > 0.0, "kleinrock: costs must be positive");
    base_cost += cost[i] * lambda[i];
    sqrt_sum += std::sqrt(cost[i] * lambda[i]);
    total_rate += lambda[i];
  }
  CapacityAssignment r;
  if (budget <= base_cost) return r;  // cannot even keep stations stable
  const double slack = budget - base_cost;
  r.mu.resize(lambda.size());
  double weighted_delay = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    const double extra = std::sqrt(lambda[i] / cost[i]) * slack / sqrt_sum;
    r.mu[i] = lambda[i] + extra;
    weighted_delay += lambda[i] / extra;  // lambda_i / (mu_i - lambda_i)
  }
  r.mean_delay = weighted_delay / total_rate;
  r.feasible = true;
  return r;
}

TEST(Kleinrock, SymmetricCaseSplitsEvenly) {
  // Equal flows, equal costs: every station gets the same capacity.
  const auto r = kleinrock_assignment({1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, 6.0);
  ASSERT_TRUE(r.feasible);
  for (double mu : r.mu) EXPECT_NEAR(mu, 2.0, 1e-12);
  // Delay: each station 1/(2-1) = 1.
  EXPECT_NEAR(r.mean_delay, 1.0, 1e-12);
}

TEST(Kleinrock, BudgetExactlyConsumed) {
  const std::vector<double> lambda = {0.5, 2.0, 1.0};
  const std::vector<double> cost = {1.0, 2.0, 0.5};
  const double budget = 9.0;
  const auto r = kleinrock_assignment(lambda, cost, budget);
  ASSERT_TRUE(r.feasible);
  double spent = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) spent += cost[i] * r.mu[i];
  EXPECT_NEAR(spent, budget, 1e-9);
  for (std::size_t i = 0; i < lambda.size(); ++i) EXPECT_GT(r.mu[i], lambda[i]);
}

TEST(Kleinrock, SquareRootRuleHolds) {
  // The slack allocated to station i, scaled by sqrt(c_i / lambda_i),
  // must be constant across stations.
  const std::vector<double> lambda = {0.3, 1.2, 0.7};
  const std::vector<double> cost = {2.0, 1.0, 3.0};
  const auto r = kleinrock_assignment(lambda, cost, 12.0);
  ASSERT_TRUE(r.feasible);
  const double k0 = (r.mu[0] - lambda[0]) * std::sqrt(cost[0] / lambda[0]);
  for (std::size_t i = 1; i < lambda.size(); ++i) {
    const double ki = (r.mu[i] - lambda[i]) * std::sqrt(cost[i] / lambda[i]);
    EXPECT_NEAR(ki, k0, 1e-9);
  }
}

TEST(Kleinrock, MatchesNumericalConstrainedSolver) {
  // Tier i: one FCFS server, visited only by class i with exponential
  // service of mean s_i at f_base = 1, so mu_i = f_i / s_i. With alpha = 2
  // the tier draws idle + kappa f_i^2 rho_i = idle + kappa lambda_i s_i^2 mu_i:
  // the P-D budget is Kleinrock's, with c_i = kappa lambda_i s_i^2 and
  // C = budget - sum_i idle. The DVFS range [0.05, 20] does not bind.
  const std::vector<double> lambda = {0.5, 1.5, 1.0};
  const std::vector<double> service = {0.4, 0.3, 0.5};
  const double idle = 100.0;
  const double kappa = 100.0;  // busy 200 W at f_base: kappa = 100 W per f_base^2
  const power::ServerPower server(units::watts(idle), units::watts(idle + kappa), 2.0,
                                  power::DvfsRange{units::hertz(0.05), units::hertz(20.0),
                                                   units::hertz(1.0)});
  std::vector<Tier> tiers;
  std::vector<WorkloadClass> classes;
  std::vector<double> cost;
  double base = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    // Names a character at a time: GCC 12's -Wrestrict misreads
    // `"t" + std::to_string(i)`.
    std::string tier_name(1, 't');
    tier_name += std::to_string(i);
    std::string class_name(1, 'c');
    class_name += std::to_string(i);
    tiers.push_back(Tier{tier_name, 1, queueing::Discipline::kFcfs, server, 1.0});
    classes.push_back(WorkloadClass{class_name, units::per_second(lambda[i]),
                                    {Demand{static_cast<int>(i),
                                            Distribution::exponential(service[i])}},
                                    Sla{}});
    cost.push_back(kappa * lambda[i] * service[i] * service[i]);
    base += cost.back() * lambda[i];
  }
  const ClusterModel model(tiers, classes);
  for (double slack : {5.0, 60.0, 400.0}) {
    const double budget = 3.0 * idle + base + slack;
    const auto exact = kleinrock_assignment(lambda, cost, budget - 3.0 * idle);
    ASSERT_TRUE(exact.feasible);
    const auto r = minimize_delay_with_power_budget(model, units::watts(budget));
    ASSERT_TRUE(r.feasible) << slack;
    EXPECT_LE(r.power.value(), budget) << slack;
    for (std::size_t i = 0; i < lambda.size(); ++i) {
      const double mu = r.frequencies[i] / service[i];
      EXPECT_NEAR(mu, exact.mu[i], 1e-8 * exact.mu[i]) << slack << " tier " << i;
    }
    EXPECT_NEAR(r.mean_delay.value(), exact.mean_delay, 1e-8 * exact.mean_delay) << slack;
  }
}

TEST(Kleinrock, MoreBudgetLessDelay) {
  double prev = 1e18;
  for (double budget : {4.0, 6.0, 10.0, 20.0}) {
    const auto r = kleinrock_assignment({1.0, 1.0}, {1.0, 1.0}, budget);
    ASSERT_TRUE(r.feasible);
    EXPECT_LT(r.mean_delay, prev);
    prev = r.mean_delay;
  }
}

TEST(Kleinrock, InfeasibleBudget) {
  // Budget below sum c_i lambda_i cannot stabilise the stations.
  const auto r = kleinrock_assignment({1.0, 1.0}, {1.0, 1.0}, 2.0);
  EXPECT_FALSE(r.feasible);
}

TEST(Kleinrock, Validation) {
  EXPECT_THROW(kleinrock_assignment({}, {}, 1.0), Error);
  EXPECT_THROW(kleinrock_assignment({1.0}, {1.0, 2.0}, 5.0), Error);
  EXPECT_THROW(kleinrock_assignment({0.0}, {1.0}, 5.0), Error);
  EXPECT_THROW(kleinrock_assignment({1.0}, {-1.0}, 5.0), Error);
}

}  // namespace
}  // namespace cpm::core
