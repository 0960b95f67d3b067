#include "cpm/queueing/basic.hpp"

#include "cpm/common/error.hpp"

namespace cpm::queueing {

namespace {

QueueMetrics finish(double lambda, double mean_service, double wq) {
  QueueMetrics m;
  m.utilization = lambda * mean_service;
  m.mean_wait = wq;
  m.mean_sojourn = wq + mean_service;
  m.mean_queue_len = lambda * wq;
  m.mean_in_system = lambda * m.mean_sojourn;
  return m;
}

}  // namespace

QueueMetrics mm1(double lambda, double mu) {
  require(lambda >= 0.0 && mu > 0.0, "mm1: bad rates");
  const double rho = lambda / mu;
  require(rho < 1.0, "mm1: unstable (lambda >= mu)");
  const double wq = rho / (mu - lambda);
  return finish(lambda, 1.0 / mu, wq);
}

QueueMetrics mg1(double lambda, const Distribution& service) {
  require(lambda >= 0.0, "mg1: lambda must be >= 0");
  const double es = service.mean();
  const double rho = lambda * es;
  require(rho < 1.0, "mg1: unstable (rho >= 1)");
  const double wq = lambda * service.second_moment() / (2.0 * (1.0 - rho));
  return finish(lambda, es, wq);
}

QueueMetrics mg1_ps(double lambda, const Distribution& service) {
  require(lambda >= 0.0, "mg1_ps: lambda must be >= 0");
  const double es = service.mean();
  const double rho = lambda * es;
  require(rho < 1.0, "mg1_ps: unstable (rho >= 1)");
  const double sojourn = es / (1.0 - rho);
  return finish(lambda, es, sojourn - es);
}

}  // namespace cpm::queueing
