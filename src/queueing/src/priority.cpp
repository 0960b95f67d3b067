#include "cpm/queueing/priority.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "cpm/common/error.hpp"
#include "cpm/queueing/erlang.hpp"

namespace cpm::queueing {

const char* discipline_name(Discipline d) {
  switch (d) {
    case Discipline::kFcfs:                  return "fcfs";
    case Discipline::kNonPreemptivePriority: return "np-priority";
    case Discipline::kPreemptiveResume:      return "p-priority";
    case Discipline::kProcessorSharing:      return "ps";
  }
  return "unknown";
}

double station_utilization(int servers, const std::vector<ClassFlow>& flows) {
  require(servers >= 1, "station_utilization: servers must be >= 1");
  double load = 0.0;
  for (const auto& f : flows) {
    require(f.rate.value() >= 0.0, "station_utilization: negative rate");
    load += f.rate.value() * f.service.mean();
  }
  return load / static_cast<double>(servers);
}

namespace {

// The two moments of a service law the single-server formulas read.
struct Moments {
  double m1;
  double m2;
  [[nodiscard]] double mean() const { return m1; }
  [[nodiscard]] double second_moment() const { return m2; }
};

struct Aggregate {
  double lambda = 0.0;  // total arrival rate
  double es = 0.0;      // mixture E[S]
  double es2 = 0.0;     // mixture E[S^2]
  double rho = 0.0;     // per-server utilisation
};

// Totals over the flows, class k served by the law `service(k)`: the
// flow's own law, or the moments of its Bondi–Buzen reference law.
template <class Service>
Aggregate aggregate_flows(int servers, const std::vector<ClassFlow>& flows,
                          const Service& service) {
  Aggregate a;
  for (std::size_t k = 0; k < flows.size(); ++k) {
    const auto& s = service(k);
    a.lambda += flows[k].rate.value();
    a.es += flows[k].rate.value() * s.mean();
    a.es2 += flows[k].rate.value() * s.second_moment();
  }
  a.rho = a.es / static_cast<double>(servers);
  if (a.lambda > 0.0) {
    a.es /= a.lambda;
    a.es2 /= a.lambda;
  }
  return a;
}

// Pollaczek–Khinchine wait of a single server with aggregate `agg`.
double mg1_fcfs_wait(const Aggregate& agg) {
  return agg.lambda > 0.0 ? agg.lambda * agg.es2 / (2.0 * (1.0 - agg.rho)) : 0.0;
}

// Single-server per-class "delay beyond own service" for each discipline,
// written to `delay`, class k served by `service(k)` with aggregate `agg`.
// Class 0 is highest priority. Exact formulas:
//   FCFS:   P-K wait, identical across classes.
//   NP:     Cobham, W_k = R / ((1 - s_{k-1})(1 - s_k)), R = sum l_i E[S_i^2]/2.
//   PR:     T_k = E[S_k]/(1 - s_{k-1})
//               + (sum_{i<=k} l_i E[S_i^2]/2) / ((1 - s_{k-1})(1 - s_k)),
//           delay_k = T_k - E[S_k].
//   PS:     T_k = E[S_k]/(1 - rho), delay_k = T_k - E[S_k].
// Returns false when the load, or the load of some priority prefix,
// reaches 1.
template <class Service>
bool single_server_delays(Discipline d, const std::vector<ClassFlow>& flows,
                          const Service& service, const Aggregate& agg,
                          std::vector<double>& delay) {
  const std::size_t k_classes = flows.size();
  if (!(agg.rho < 1.0)) return false;

  switch (d) {
    case Discipline::kFcfs: {
      const double wq = mg1_fcfs_wait(agg);
      for (auto& w : delay) w = wq;
      break;
    }
    case Discipline::kNonPreemptivePriority: {
      double r = 0.0;  // mean residual work: sum l_i E[S_i^2] / 2 over ALL classes
      for (std::size_t k = 0; k < k_classes; ++k)
        r += flows[k].rate.value() * service(k).second_moment() / 2.0;
      double sigma_prev = 0.0;
      for (std::size_t k = 0; k < k_classes; ++k) {
        const double sigma_k = sigma_prev + flows[k].rate.value() * service(k).mean();
        if (!(sigma_k < 1.0)) return false;  // priority levels saturate
        delay[k] = r / ((1.0 - sigma_prev) * (1.0 - sigma_k));
        sigma_prev = sigma_k;
      }
      break;
    }
    case Discipline::kPreemptiveResume: {
      double r_upto = 0.0;  // residual work of classes 0..k only
      double sigma_prev = 0.0;
      for (std::size_t k = 0; k < k_classes; ++k) {
        const auto& s = service(k);
        const double es_k = s.mean();
        const double sigma_k = sigma_prev + flows[k].rate.value() * es_k;
        if (!(sigma_k < 1.0)) return false;  // priority levels saturate
        r_upto += flows[k].rate.value() * s.second_moment() / 2.0;
        const double sojourn = es_k / (1.0 - sigma_prev) +
                               r_upto / ((1.0 - sigma_prev) * (1.0 - sigma_k));
        delay[k] = sojourn - es_k;
        sigma_prev = sigma_k;
      }
      break;
    }
    case Discipline::kProcessorSharing: {
      for (std::size_t k = 0; k < k_classes; ++k) {
        const double es_k = service(k).mean();
        delay[k] = es_k / (1.0 - agg.rho) - es_k;
      }
      break;
    }
  }
  return true;
}

// M/M/c mean wait at lambda > 0, or nullopt when the offered load
// lambda/mu, rounded as mmc_mean_wait rounds it, reaches `servers`.
std::optional<double> mmc_wait(int servers, double lambda, double mu) {
  if (!(lambda / mu < static_cast<double>(servers))) return std::nullopt;
  return mmc_mean_wait(servers, lambda, mu);
}

// M/G/c FCFS mean wait via Lee-Longton: (1 + SCV)/2 times the M/M/c wait at
// the same mean service time; nullopt when that M/M/c queue saturates. No
// work arrives when no class arrives or every service takes no time.
std::optional<double> mgc_fcfs_wait(int servers, const Aggregate& agg) {
  if (agg.lambda == 0.0 || agg.es == 0.0) return 0.0;
  const double mu = 1.0 / agg.es;
  const double scv = agg.es2 / (agg.es * agg.es) - 1.0;
  const std::optional<double> wq = mmc_wait(servers, agg.lambda, mu);
  if (!wq) return std::nullopt;
  return 0.5 * (1.0 + scv) * *wq;
}

}  // namespace

StationMetrics analyze_station(int servers, Discipline discipline,
                               const std::vector<ClassFlow>& flows) {
  StationMetrics m;
  require(analyze_station(servers, discipline, flows, m),
          "analyze_station: unstable station (rho >= 1)");
  return m;
}

bool analyze_station(int servers, Discipline discipline,
                     const std::vector<ClassFlow>& flows, StationMetrics& m) {
  require(servers >= 1, "analyze_station: servers must be >= 1");
  require(!flows.empty(), "analyze_station: need at least one class");
  for (const auto& f : flows)
    require(f.rate.value() >= 0.0, "analyze_station: negative arrival rate");

  const std::size_t k_classes = flows.size();
  m.total_utilization = station_utilization(servers, flows);
  if (!(m.total_utilization < 1.0)) return false;
  m.mean_wait.resize(k_classes);
  m.mean_sojourn.resize(k_classes);
  m.wait_m2.resize(k_classes);
  m.rho.resize(k_classes);

  // Each class's delay beyond service; mean_wait holds it from here on.
  std::vector<double>& delay = m.mean_wait;
  const auto own = [&flows](std::size_t k) -> const Distribution& {
    return flows[k].service;
  };
  Aggregate agg;  // of the real station, multi-server only
  if (servers == 1) {
    if (!single_server_delays(discipline, flows, own, aggregate_flows(1, flows, own),
                              delay))
      return false;
  } else {
    agg = aggregate_flows(servers, flows, own);
    if (discipline == Discipline::kProcessorSharing) {
      // PS multi-server approximation: treat the c servers as one PS server
      // that is c times faster for the contention factor. We use the
      // simple insensitive bound T_k = E[S_k] + E[S_k] * Wq-factor with the
      // M/M/c congestion term, matching the single-class M/M/c in the
      // exponential case reasonably.
      double wq_factor = 0.0;
      if (agg.lambda > 0.0 && agg.es > 0.0) {
        const std::optional<double> wq = mmc_wait(servers, agg.lambda, 1.0 / agg.es);
        if (!wq) return false;
        wq_factor = *wq / agg.es;
      }
      for (std::size_t k = 0; k < k_classes; ++k)
        delay[k] = flows[k].service.mean() * wq_factor;
    } else if (discipline == Discipline::kFcfs) {
      const std::optional<double> wq = mgc_fcfs_wait(servers, agg);
      if (!wq) return false;
      for (auto& w : delay) w = *wq;
    } else {
      // Bondi-Buzen scaling: per-class priority delay at c servers =
      // (single-server priority delay / single-server FCFS delay) x
      // (M/G/c FCFS delay). The single-server reference system divides
      // every service time by c so that it is stable whenever the real
      // station is, up to rounding. Each reference law is built once; its
      // moments wait in mean_sojourn and wait_m2, which are written later.
      const double inv_c = 1.0 / static_cast<double>(servers);
      for (std::size_t k = 0; k < k_classes; ++k) {
        const Distribution law =
            flows[k].service.scaled_to_mean(flows[k].service.mean() * inv_c);
        m.mean_sojourn[k] = law.mean();
        m.wait_m2[k] = law.second_moment();
      }
      const auto reference = [&m](std::size_t k) {
        return Moments{m.mean_sojourn[k], m.wait_m2[k]};
      };
      const Aggregate ref = aggregate_flows(1, flows, reference);
      if (!single_server_delays(discipline, flows, reference, ref, delay)) return false;
      const double fcfs1 = mg1_fcfs_wait(ref);
      const std::optional<double> wq_c = mgc_fcfs_wait(servers, agg);
      if (!wq_c) return false;
      for (std::size_t k = 0; k < k_classes; ++k)
        delay[k] = fcfs1 > 0.0 ? *wq_c * delay[k] / fcfs1 : 0.0;
    }
  }
  // Near saturation the M/M/c denominator c*mu - lambda can round to zero
  // or below although lambda/mu < c: such a station is unstable too.
  for (double w : delay)
    if (!(w >= 0.0 && w < std::numeric_limits<double>::infinity())) return false;

  // Second moment of the wait. Exact (Takács) for single-server FCFS:
  //   E[W^2] = 2 E[W]^2 + lambda E[S^3] / (3 (1 - rho)),
  // with the aggregate service mixture. Other disciplines / server counts
  // use the conditional-exponential approximation: the wait is zero with
  // probability 1 - q and exponential given positive, so
  //   E[W^2] = 2 E[W]^2 / q,   q = P(wait > 0)
  // with q = rho for single servers (PASTA) and the Erlang-C waiting
  // probability for multi-server stations. For M/M/1 FCFS this reproduces
  // Takács exactly; experiment E8 quantifies the residual error.
  if (servers == 1 && discipline == Discipline::kFcfs) {
    double lambda = 0.0;
    double es3 = 0.0;
    for (const auto& f : flows) {
      lambda += f.rate.value();
      es3 += f.rate.value() * f.service.third_moment();
    }
    const double rho = m.total_utilization;
    const double tail = lambda > 0.0 ? es3 / (3.0 * (1.0 - rho)) : 0.0;
    for (std::size_t k = 0; k < k_classes; ++k)
      m.wait_m2[k] = 2.0 * delay[k] * delay[k] + tail;
  } else {
    double q = m.total_utilization;
    if (servers > 1 && agg.lambda > 0.0 && agg.es > 0.0) {
      const double offered = agg.lambda * agg.es;
      if (!(offered < static_cast<double>(servers))) return false;
      q = erlang_c(servers, offered);
    }
    const double q_safe = std::max(q, 1e-12);
    for (std::size_t k = 0; k < k_classes; ++k)
      m.wait_m2[k] = 2.0 * delay[k] * delay[k] / q_safe;
  }

  for (std::size_t k = 0; k < k_classes; ++k) {
    m.rho[k] = flows[k].rate.value() * flows[k].service.mean() / static_cast<double>(servers);
    m.mean_sojourn[k] = delay[k] + flows[k].service.mean();
  }
  return true;
}

}  // namespace cpm::queueing
