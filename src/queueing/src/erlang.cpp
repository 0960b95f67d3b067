#include "cpm/queueing/erlang.hpp"

#include "cpm/common/error.hpp"

namespace cpm::queueing {

double erlang_b(int servers, double a) {
  require(servers >= 0, "erlang_b: servers must be >= 0");
  require(a >= 0.0, "erlang_b: offered load must be >= 0");
  double b = 1.0;
  for (int c = 1; c <= servers; ++c) {
    b = a * b / (static_cast<double>(c) + a * b);
  }
  return b;
}

double erlang_c(int servers, double a) {
  require(servers >= 1, "erlang_c: servers must be >= 1");
  require(a >= 0.0, "erlang_c: offered load must be >= 0");
  require(a < static_cast<double>(servers), "erlang_c: requires a < servers (stability)");
  const double b = erlang_b(servers, a);
  const double c = static_cast<double>(servers);
  return c * b / (c - a * (1.0 - b));
}

double mmc_mean_wait(int servers, double lambda, double mu) {
  require(lambda >= 0.0 && mu > 0.0, "mmc_mean_wait: bad rates");
  if (lambda == 0.0) return 0.0;
  const double a = lambda / mu;
  require(a < static_cast<double>(servers), "mmc_mean_wait: unstable (lambda >= c*mu)");
  return erlang_c(servers, a) / (static_cast<double>(servers) * mu - lambda);
}

}  // namespace cpm::queueing
