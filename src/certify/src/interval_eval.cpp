#include "cpm/certify/interval_eval.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

#include "cpm/queueing/erlang.hpp"
#include "cpm/queueing/priority.hpp"

namespace cpm::certify {

namespace {

using core::Interval;
using queueing::Discipline;

constexpr double kInf = std::numeric_limits<double>::infinity();

Interval one_minus(Interval x) { return Interval::point(1.0) - x; }

/// Restricts an interval to its non-negative part. Used on (1 - sigma)
/// denominators: the clipped negative part is the unstable parameter
/// region, which corner refutation covers instead of interval division.
/// Must be re-applied AFTER products of pos() intervals — operator*'s
/// outward rounding widens a zero endpoint to a negative denormal, which
/// would flip the division into its straddles-zero [-inf, inf] branch.
Interval pos(Interval x) {
  return Interval{x.lo < 0.0 ? 0.0 : x.lo, x.hi < 0.0 ? 0.0 : x.hi};
}

/// Outward relaxation for monotone endpoint lifts (mmc_mean_wait and the
/// Erlang recurrences): the endpoints are double evaluations of a
/// mathematically monotone function, so interior values can exceed them
/// only by accumulated rounding error. 1e-12 relative slack dominates the
/// ~1e-15 per-op error of those recurrences by three orders of magnitude.
Interval relax(Interval x) {
  const double lo =
      std::isfinite(x.lo) ? x.lo - 1e-12 * std::fabs(x.lo) - 1e-300 : x.lo;
  const double hi =
      std::isfinite(x.hi) ? x.hi + 1e-12 * std::fabs(x.hi) + 1e-300 : x.hi;
  return Interval{lo, hi};
}

/// One merged class flow at a station, with interval moments.
struct IntervalFlow {
  Interval rate;  ///< lambda_k * visits
  Interval mean;  ///< mixture E[S] at the operating point
  Interval m2;    ///< mixture E[S^2]
};

/// M/M/c mean wait lifted by monotone endpoint evaluation: increasing in
/// lambda, increasing in E[S] (mu = 1/E[S]). Corners at or past
/// saturation evaluate to +infinity instead of throwing.
Interval mmc_wait_interval(int servers, Interval lam, Interval es) {
  if (lam.hi <= 0.0 || es.hi <= 0.0) return Interval::point(0.0);
  const double c = static_cast<double>(servers);
  double hi = kInf;
  if (es.hi > 0.0 && lam.hi * es.hi < c)
    hi = queueing::mmc_mean_wait(servers, lam.hi, 1.0 / es.hi);
  double lo = 0.0;
  if (lam.lo > 0.0 && es.lo > 0.0) {
    if (lam.lo * es.lo < c)
      lo = queueing::mmc_mean_wait(servers, lam.lo, 1.0 / es.lo);
    else
      lo = kInf;  // even the optimistic corner saturates
  }
  return relax(Interval{lo, hi});
}

/// Mirror of priority.cpp's single_server_delays in interval arithmetic.
/// `flows` lists only the classes visiting the station, in priority order.
std::vector<Interval> single_server_delays(Discipline d,
                                           const std::vector<IntervalFlow>& flows) {
  const std::size_t n = flows.size();
  std::vector<Interval> delay(n, Interval::point(0.0));
  Interval es2_rate = Interval::point(0.0);  // sum lambda_i E[S_i^2]
  Interval rho = Interval::point(0.0);       // sum lambda_i E[S_i]
  for (const auto& f : flows) {
    es2_rate = es2_rate + f.rate * f.m2;
    rho = rho + f.rate * f.mean;
  }

  switch (d) {
    case Discipline::kFcfs: {
      // P-K with the lambda-division cancelled:
      // wq = lambda E[S^2]_mix / (2 (1 - rho)) = es2_rate / (2 (1 - rho)).
      const Interval wq =
          es2_rate / pos(Interval::point(2.0) * pos(one_minus(rho)));
      for (auto& w : delay) w = wq;
      break;
    }
    case Discipline::kNonPreemptivePriority: {
      const Interval r = es2_rate * Interval::point(0.5);
      Interval sigma_prev = Interval::point(0.0);
      for (std::size_t k = 0; k < n; ++k) {
        const Interval sigma_k = sigma_prev + flows[k].rate * flows[k].mean;
        delay[k] =
            r / pos(pos(one_minus(sigma_prev)) * pos(one_minus(sigma_k)));
        sigma_prev = sigma_k;
      }
      break;
    }
    case Discipline::kPreemptiveResume: {
      Interval r_upto = Interval::point(0.0);
      Interval sigma_prev = Interval::point(0.0);
      for (std::size_t k = 0; k < n; ++k) {
        const Interval es_k = flows[k].mean;
        const Interval sigma_k = sigma_prev + flows[k].rate * es_k;
        r_upto = r_upto + flows[k].rate * flows[k].m2 * Interval::point(0.5);
        // sojourn - E[S_k] factored as E[S_k] sigma_prev / (1 - sigma_prev)
        // + R_upto / ((1 - sigma_prev)(1 - sigma_k)) to avoid the
        // cancellation blow-up of subtracting the service interval back.
        delay[k] =
            es_k * sigma_prev / pos(one_minus(sigma_prev)) +
            r_upto /
                pos(pos(one_minus(sigma_prev)) * pos(one_minus(sigma_k)));
        sigma_prev = sigma_k;
      }
      break;
    }
    case Discipline::kProcessorSharing: {
      // T_k - E[S_k] factored as E[S_k] rho / (1 - rho).
      const Interval factor = rho / pos(one_minus(rho));
      for (std::size_t k = 0; k < n; ++k) delay[k] = flows[k].mean * factor;
      break;
    }
  }
  return delay;
}

/// Mirror of priority.cpp's mgc_fcfs_wait: 0.5 (1 + SCV) Wq(M/M/c), with
/// (1 + SCV) written as es2_rate lambda / es_rate^2 so no aggregate is
/// divided by a possibly zero-touching lambda twice.
Interval mgc_fcfs_wait(int servers, Interval lam, Interval es_rate,
                       Interval es2_rate) {
  if (lam.hi <= 0.0) return Interval::point(0.0);
  const Interval es_mix = es_rate / lam;
  const Interval mmc = mmc_wait_interval(servers, lam, es_mix);
  const Interval one_plus_scv = es2_rate * lam / (es_rate * es_rate);
  return Interval::point(0.5) * one_plus_scv * mmc;
}

/// Mirror of analyze_station, mean waits only.
std::vector<Interval> station_delays(int servers, Discipline d,
                                     const std::vector<IntervalFlow>& flows) {
  const std::size_t n = flows.size();
  if (servers == 1) return single_server_delays(d, flows);

  Interval lam = Interval::point(0.0);
  Interval es_rate = Interval::point(0.0);
  Interval es2_rate = Interval::point(0.0);
  for (const auto& f : flows) {
    lam = lam + f.rate;
    es_rate = es_rate + f.rate * f.mean;
    es2_rate = es2_rate + f.rate * f.m2;
  }

  std::vector<Interval> delay(n, Interval::point(0.0));
  if (d == Discipline::kProcessorSharing) {
    if (lam.hi <= 0.0) return delay;
    const Interval es_mix = es_rate / lam;
    const Interval wq_factor =
        mmc_wait_interval(servers, lam, es_mix) / es_mix;
    for (std::size_t k = 0; k < n; ++k) delay[k] = flows[k].mean * wq_factor;
  } else if (d == Discipline::kFcfs) {
    const Interval wq = mgc_fcfs_wait(servers, lam, es_rate, es2_rate);
    for (auto& w : delay) w = wq;
  } else {
    // Bondi-Buzen: scale every service by 1/c, take the single-server
    // priority-to-FCFS delay ratio and apply it to the M/G/c FCFS wait.
    const Interval inv_c = Interval::point(1.0 / static_cast<double>(servers));
    std::vector<IntervalFlow> scaled;
    scaled.reserve(n);
    for (const auto& f : flows)
      scaled.push_back({f.rate, f.mean * inv_c, f.m2 * inv_c * inv_c});
    const std::vector<Interval> prio1 = single_server_delays(d, scaled);
    const std::vector<Interval> fcfs1 =
        single_server_delays(Discipline::kFcfs, scaled);
    const Interval wq_c = mgc_fcfs_wait(servers, lam, es_rate, es2_rate);
    for (std::size_t k = 0; k < n; ++k) {
      if (fcfs1[k].hi <= 0.0) continue;  // concrete guard: fcfs1 > 0
      const Interval ratio = wq_c * prio1[k] / fcfs1[k];
      // The concrete value is 0 when fcfs1 underflows to 0, so keep 0 in
      // the enclosure when the FCFS reference can vanish somewhere.
      delay[k] = fcfs1[k].lo <= 0.0 ? Interval{0.0, ratio.hi} : ratio;
    }
  }
  return delay;
}

/// Structural (parameter-independent) per-station, per-class visit data,
/// mirroring queueing::station_flows's visit merge on the base moments.
struct StationStructure {
  std::vector<std::size_t> visiting;  ///< class indices, priority order
  std::vector<double> visits;
  std::vector<double> mix_mean;  ///< base mixture E[S]
  std::vector<double> mix_m2;    ///< base mixture E[S^2] (variance clamped >= 0)
};

StationStructure station_structure(const core::ClusterModel& model,
                                   std::size_t station) {
  StationStructure st;
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto& cls = model.classes()[k];
    double visits = 0.0;
    double sum_mean = 0.0;
    double sum_m2 = 0.0;
    for (const auto& d : cls.route) {
      if (static_cast<std::size_t>(d.tier) != station) continue;
      visits += 1.0;
      sum_mean += d.base_service.mean();
      sum_m2 += d.base_service.second_moment();
    }
    if (visits == 0.0) continue;
    const double mean = sum_mean / visits;
    // from_mean_scv clamps negative mixture variance to 0, i.e. m2 is at
    // least mean^2; single visits (variance >= 0 by construction) are
    // unaffected.
    const double m2 = std::max(sum_m2 / visits, mean * mean);
    st.visiting.push_back(k);
    st.visits.push_back(visits);
    st.mix_mean.push_back(mean);
    st.mix_m2.push_back(m2);
  }
  return st;
}

}  // namespace

IntervalEvaluation evaluate_box(const core::ClusterModel& model,
                                const BoxSpec& box) {
  const std::size_t n_tiers = model.num_tiers();
  const std::size_t n_classes = model.num_classes();

  IntervalEvaluation ev;
  ev.rho.assign(n_tiers, Interval::point(0.0));
  ev.delay_floor.assign(n_classes, Interval::point(0.0));
  ev.e2e_delay.assign(n_classes, Interval::point(0.0));

  // Per-tier time-scale factor 1 / (mu_scale * speedup(f)): every base
  // service moment at tier i is multiplied by ts_i (ts_i^2 for E[S^2]).
  std::vector<Interval> ts(n_tiers);
  for (std::size_t i = 0; i < n_tiers; ++i) {
    const auto& power = model.tiers()[i].power;
    const Interval speedup =
        box.frequencies[i] / Interval::point(power.dvfs().f_base.value());
    ts[i] = Interval::point(1.0) / (box.mu_scale[i] * speedup);
  }

  // Station-by-station decomposition, mirroring the model's tier units.
  std::vector<std::vector<Interval>> station_wait(
      n_tiers, std::vector<Interval>(n_classes, Interval::point(0.0)));
  for (std::size_t s = 0; s < n_tiers; ++s) {
    const StationStructure st = station_structure(model, s);
    if (st.visiting.empty()) continue;
    std::vector<IntervalFlow> flows;
    flows.reserve(st.visiting.size());
    Interval es_rate = Interval::point(0.0);
    for (std::size_t i = 0; i < st.visiting.size(); ++i) {
      IntervalFlow f;
      f.rate = box.rates[st.visiting[i]] * Interval::point(st.visits[i]);
      f.mean = Interval::point(st.mix_mean[i]) * ts[s];
      f.m2 = Interval::point(st.mix_m2[i]) * ts[s] * ts[s];
      es_rate = es_rate + f.rate * f.mean;
      flows.push_back(f);
    }
    const auto& tier = model.tiers()[s];
    ev.rho[s] = es_rate / Interval::point(static_cast<double>(tier.servers));
    const std::vector<Interval> waits =
        station_delays(tier.servers, tier.discipline, flows);
    for (std::size_t i = 0; i < st.visiting.size(); ++i)
      station_wait[s][st.visiting[i]] = waits[i];
  }

  // Per-class floors and E2E delays: each visit contributes its own mean
  // service plus (for the delay) the class's wait at that station.
  for (std::size_t k = 0; k < n_classes; ++k) {
    Interval floor = Interval::point(0.0);
    Interval total = Interval::point(0.0);
    for (const auto& d : model.classes()[k].route) {
      const auto s = static_cast<std::size_t>(d.tier);
      const Interval service = Interval::point(d.base_service.mean()) * ts[s];
      floor = floor + service;
      total = total + station_wait[s][k] + service;
    }
    ev.delay_floor[k] = floor;
    ev.e2e_delay[k] = total;
  }

  // Cluster power. Station average power n (idle + dyn(f) rho) rewrites,
  // with rho = load_base ts n^-1 ... after cancelling speedup against the
  // utilisation's 1/speedup, to
  //   n idle + g(f) load / mu_scale,   g(f) = dyn(f) / speedup(f),
  // where load = sum_k lambda_k * (base demand of k at the tier). g is
  // monotone increasing in f for alpha >= 1 (it scales as f^(alpha-1)),
  // so an endpoint evaluation is exact up to rounding.
  Interval total_power = Interval::point(0.0);
  bool maybe_unstable = false;
  for (std::size_t i = 0; i < n_tiers; ++i) {
    const auto& tier = model.tiers()[i];
    Interval load = Interval::point(0.0);
    for (std::size_t k = 0; k < n_classes; ++k) {
      double demand = 0.0;
      for (const auto& d : model.classes()[k].route)
        if (static_cast<std::size_t>(d.tier) == i) demand += d.base_service.mean();
      if (demand > 0.0)
        load = load + box.rates[k] * Interval::point(demand);
    }
    const Interval& f = box.frequencies[i];
    const Interval g = relax(Interval{
        tier.power.dynamic_power(units::hertz(f.lo)).value() /
            tier.power.speedup(units::hertz(f.lo)),
        tier.power.dynamic_power(units::hertz(f.hi)).value() /
            tier.power.speedup(units::hertz(f.hi))});
    const Interval idle = Interval::point(static_cast<double>(tier.servers) *
                                          tier.power.idle_power().value());
    total_power = total_power + idle + g * load / box.mu_scale[i];
    if (ev.rho[i].hi >= 1.0) maybe_unstable = true;
  }
  // power_at() is +infinity at unstable points; keep them in the
  // enclosure whenever the box touches saturation.
  ev.cluster_power =
      maybe_unstable ? Interval{total_power.lo, kInf} : total_power;

  return ev;
}

}  // namespace cpm::certify
