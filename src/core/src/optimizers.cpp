#include "cpm/core/optimizers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>

#include "cpm/common/error.hpp"
#include "cpm/common/math.hpp"
#include "cpm/core/preconditions.hpp"
#include "cpm/core/tier_table.hpp"

namespace cpm::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = std::numeric_limits<double>::epsilon();

// Every evaluation a solver makes goes through one evaluator, which owns
// the solve's TierTable and the Evaluation it writes into: each tier is
// analysed once per distinct (servers, frequency), and after the first
// probes no evaluation allocates. It counts the operating points it
// evaluates for the results' `evaluations`, whether assembled whole (at),
// read for their power (power) or read tier by tier (unit).
class Evaluator {
 public:
  explicit Evaluator(const ClusterModel& model) : table_(model) {
    for (const Tier& t : model.tiers()) servers_.push_back(t.servers);
  }
  // The solver's closures hold it by reference.
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  [[nodiscard]] const ClusterModel& model() const { return table_.model(); }
  [[nodiscard]] const std::vector<int>& servers() const { return servers_; }
  [[nodiscard]] long count() const { return count_; }
  [[nodiscard]] long analyses() const { return table_.analyses(); }

  // The evaluation at `f`, with the model's servers or with `servers`.
  // Only `stable` and the accessors are meaningful at an unstable point
  // (see the in-place ClusterModel::evaluate).
  const Evaluation& at(const std::vector<double>& f) { return at(servers_, f); }
  const Evaluation& at(const std::vector<int>& servers, const std::vector<double>& f) {
    ++count_;
    table_.evaluate(servers, f, ev_);
    return ev_;
  }

  // Cluster power at `f`, read off the tiers' units without assembling the
  // rest of the point, as ClusterModel::power_at reads it.
  units::Watts power(const std::vector<double>& f) {
    ++count_;
    const std::vector<TierUnit>& units = table_.units(servers_, f);
    return all_stable(units) ? cluster_power(units) : units::Watts::infinity();
  }

  // Tier i's unit at frequency f with the model's servers, for a point the
  // caller reads tier by tier and counts with count_point().
  TierUnit unit(std::size_t i, double f) { return table_.unit(i, servers_[i], units::hertz(f)); }
  void count_point() { ++count_; }

 private:
  TierTable table_;
  std::vector<int> servers_;
  Evaluation ev_;
  long count_ = 0;
};

FrequencyOptResult finish(Evaluator& eval, std::vector<double> f, bool feasible) {
  FrequencyOptResult r;
  r.frequencies = std::move(f);
  const Evaluation& ev = eval.at(r.frequencies);
  r.evaluations = eval.count();
  r.station_analyses = eval.analyses();
  r.feasible = feasible && ev.stable;
  r.mean_delay = ev.mean_delay();
  r.power = ev.power();
  if (ev.stable) r.evaluation = ev;
  return r;
}

// All SLA (mean + percentile) bounds of `model` hold at evaluation `ev`.
bool slas_hold(const ClusterModel& model, const Evaluation& ev) {
  if (!ev.stable) return false;
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const Sla& sla = model.classes()[k].sla;
    if (sla.mean_bounded() && ev.net.e2e_delay[k] > sla.max_mean_e2e_delay)
      return false;
    if (sla.percentile_bounded() &&
        queueing::percentile_e2e_delay(ev.net, k, sla.percentile) >
            sla.max_percentile_e2e_delay)
      return false;
  }
  return true;
}

// The objective of P-E and of the TCO program's inner problem.
constexpr auto kPower = [](const Evaluation& ev) { return ev.power().value(); };

// Exhaustive search of the P-state lattice `grids` over the model `eval` is
// bound to, with `servers` servers per tier: `objective` is minimised over
// the stable grid points that are `admissible`, the first found winning a
// tie.
FrequencyOptResult lattice_search(
    Evaluator& eval, const std::vector<int>& servers,
    const std::vector<std::vector<double>>& grids,
    const std::function<double(const Evaluation&)>& objective,
    const std::function<bool(const Evaluation&)>& admissible) {
  const ClusterModel& model = eval.model();
  const std::size_t n = grids.size();

  // Per-tier stability floor: tier i is stable iff f_i exceeds its own
  // critical frequency, independent of the other tiers — prune below it.
  const std::vector<double> floor = model.min_stable_frequencies(servers);

  std::vector<std::size_t> idx(n, 0);
  std::vector<double> f(n);
  FrequencyOptResult best;
  double best_value = kInf;

  for (;;) {
    bool viable = true;
    for (std::size_t i = 0; i < n; ++i) {
      f[i] = grids[i][idx[i]];
      if (f[i] < floor[i]) viable = false;  // tier saturated at this level
    }
    if (viable) {
      const Evaluation& ev = eval.at(servers, f);
      if (ev.stable && admissible(ev)) {
        const double value = objective(ev);
        if (value < best_value) {
          best_value = value;
          best.frequencies = f;
          best.evaluation = ev;
          best.feasible = true;
        }
      }
    }
    // Odometer increment.
    std::size_t d = 0;
    while (d < n && ++idx[d] == grids[d].size()) {
      idx[d] = 0;
      ++d;
    }
    if (d == n) break;
  }

  // Infeasible: f_max, with no metrics and infinite delay and power.
  if (!best.feasible) best.frequencies = model.max_frequencies();
  best.mean_delay = best.evaluation.mean_delay();
  best.power = best.evaluation.power();
  best.evaluations = eval.count();
  best.station_analyses = eval.analyses();
  return best;
}

// P-C's integer program: 1 to max_servers servers per tier at each tier's
// server cost, feasible when every SLA holds at f_max; `eval` serves the
// oracle's probes, each server count of a tier analysed once. Feasibility
// is monotone in the server counts.
opt::IntegerProblem sizing_problem(const ClusterModel& model, int max_servers,
                                   Evaluator& eval) {
  opt::IntegerProblem problem;
  problem.n_min.assign(model.num_tiers(), 1);
  problem.n_max.assign(model.num_tiers(), max_servers);
  for (const Tier& tier : model.tiers()) problem.cost.push_back(tier.server_cost);
  problem.feasible = [&model, &eval, f_max = model.max_frequencies()](const std::vector<int>& n) {
    return slas_hold(model, eval.at(n, f_max));
  };
  return problem;
}

// ---- The continuous programs on the dual ---------------------------------
//
// Every station is analysed from its own flows, so at an operating point f
// cluster power is sum_i P_i(f_i) and each delay row r (the mean delay or
// one class's) is sum_i D_ri(f_i), each term a function of one tier's
// frequency. For multipliers nu >= 0 the Lagrangian
// sum_i [P_i + sum_r nu_r D_ri] is minimised tier by tier; the outer
// iterations move nu until the constraint sits on its bound. The
// derivation, the safeguards and the evaluation counts are in
// docs/model.md §4.

constexpr double kStep = 1e-6;      // finite-difference step, relative to f_max
constexpr double kTierTol = 1e-10;  // a tier stops at a step below this share of its range
constexpr int kMaxInner = 40;
// The multipliers stop once every binding constraint is this close
// (relative) to its bound; the landing search then puts the constraint
// within kLand below it.
constexpr double kDualTol = 1e-10;
constexpr double kLand = 1e-12;
constexpr int kMaxOuter = 100;
// A one-multiplier search that has moved log nu this far from its start
// without crossing the bound stops there.
constexpr double kMaxDrift = 64.0;

// One delay bound of P-E: on the traffic-weighted mean delay (cls < 0) or
// on class cls's mean delay.
struct DelayBound {
  int cls = -1;
  double bound = 0.0;

  [[nodiscard]] double value(const Evaluation& ev) const {
    if (!ev.stable) return kInf;
    return cls < 0 ? ev.net.mean_e2e_delay.value()
                   : ev.net.e2e_delay[static_cast<std::size_t>(cls)].value();
  }
  // The weight of each class's mean delay in the bounded figure.
  [[nodiscard]] std::vector<double> weights(const ClusterModel& model) const {
    std::vector<double> w(model.num_classes(), 0.0);
    const double total = model.total_rate().value();
    for (std::size_t k = 0; k < w.size(); ++k)
      w[k] = cls >= 0 ? (k == static_cast<std::size_t>(cls) ? 1.0 : 0.0)
                      : (total > 0.0 ? model.classes()[k].rate.value() / total : 0.0);
    return w;
  }
};

// Tier i's terms at one operating point: its average power and its share
// of every delay row.
struct TierTerms {
  std::vector<double> power;  // per tier
  std::vector<double> delay;  // per row and tier, [r * tiers + i]
};

class TierDual {
 public:
  TierDual(Evaluator& eval, const std::vector<DelayBound>& rows)
      : eval_(eval),
        model_(eval.model()),
        n_(model_.num_tiers()),
        lo_(model_.min_stable_frequencies()),
        hi_(model_.max_frequencies()),
        step_(n_),
        f_(n_),
        at_(n_),
        slope_(n_),
        curv_(n_),
        free_(n_) {
    for (const DelayBound& row : rows) rows_.push_back(row.weights(model_));
    for (auto& x : x_) x.resize(n_);
    split(lo_, lo_terms_);
    split(hi_, hi_terms_);
    top_ = hi_;
    for (std::size_t i = 0; i < n_; ++i) {
      step_[i] = std::min(kStep * hi_[i], 0.25 * (hi_[i] - lo_[i]));
      f_[i] = 0.5 * (lo_[i] + hi_[i]);
      if (flat(lo_terms_, hi_terms_, i)) top_[i] = lo_[i];
    }
  }

  // f_max, but with every tier whose terms are the same at both ends of
  // its range (it carries no load) at the low end: ties go low.
  [[nodiscard]] const std::vector<double>& top() const { return top_; }
  [[nodiscard]] const std::vector<double>& point() const { return f_; }
  // Power and delay row r summed over the tiers, at the ends of the ranges
  // and at the current point.
  [[nodiscard]] double power(const TierTerms& t) const { return sum(t.power, 0); }
  [[nodiscard]] double delay(const TierTerms& t, std::size_t r) const {
    return sum(t.delay, r * n_);
  }
  [[nodiscard]] const TierTerms& at_lo() const { return lo_terms_; }
  [[nodiscard]] const TierTerms& at_hi() const { return hi_terms_; }
  [[nodiscard]] const TierTerms& at_point() const { return sol_; }

  // d(power)/d(nu_s) and d(delay row r)/d(nu_s) at the current point: a
  // free tier's minimiser moves by df_i/dnu_s = -D_si' / phi_i''.
  [[nodiscard]] double power_slope(std::size_t s) const {
    double d = 0.0;
    for (std::size_t i = 0; i < n_; ++i)
      if (free_[i]) d -= slope_[i] * dslope(s, i) / curv_[i];
    return d;
  }
  [[nodiscard]] double delay_slope(std::size_t r, std::size_t s) const {
    double d = 0.0;
    for (std::size_t i = 0; i < n_; ++i)
      if (free_[i]) d -= dslope(r, i) * dslope(s, i) / curv_[i];
    return d;
  }

  // Moves the current point from `f` by the first-order change of each
  // free tier's minimiser when the multipliers change by `dnu`: the next
  // inner solve's start.
  void restart(const std::vector<double>& f, const std::vector<double>& dnu) {
    f_ = f;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!free_[i]) continue;
      double df = 0.0;
      for (std::size_t s = 0; s < dnu.size(); ++s) df -= dslope(s, i) * dnu[s] / curv_[i];
      if (std::isfinite(df)) f_[i] = std::clamp(f_[i] + df, lo_[i], hi_[i]);
    }
  }

  // Minimises every tier's Lagrangian phi_i = P_i + sum_r nu_r D_ri over
  // [lo_i, hi_i] from the current point. Three lockstep evaluations per
  // step give each tier the quadratic through phi_i at three nodes
  // step_i apart, one of them its current frequency; a safeguarded Newton
  // step on it keeps a bracket of the minimiser. A tier whose Lagrangian
  // does not depend on f goes to the low end of its range. The minimum
  // found is then compared with both ends, so that where phi_i is not
  // convex (alpha < 2) the global one on the range is kept.
  void inner(const std::vector<double>& nu) {
    std::vector<double> lower = lo_, upper = hi_, next(n_);
    for (int it = 0; it < kMaxInner; ++it) {
      for (std::size_t i = 0; i < n_; ++i) {
        const double h = step_[i];
        at_[i] = h <= 0.0 ? 1 : f_[i] - h < lo_[i] ? 0 : f_[i] + h > hi_[i] ? 2 : 1;
        for (int m = 0; m < 3; ++m) x_[m][i] = f_[i] + (m - at_[i]) * h;
      }
      for (int m = 0; m < 3; ++m) split(x_[m], node_[m]);
      bool done = true;
      next = f_;
      for (std::size_t i = 0; i < n_; ++i) {
        const double h = step_[i];
        if (h <= 0.0) continue;
        const double p0 = phi(node_[0], nu, i), p1 = phi(node_[1], nu, i),
                     p2 = phi(node_[2], nu, i);
        const double curv = (p0 - 2.0 * p1 + p2) / (h * h);
        const double g = (p2 - p0) / (2.0 * h) + curv * (at_[i] - 1) * h;
        if (g > 0.0) upper[i] = f_[i];
        if (g < 0.0) lower[i] = f_[i];
        // Differences at the rounding level of phi: nothing here depends on f.
        const double scale = std::abs(p0) + std::abs(p1) + std::abs(p2);
        const bool level = std::abs(p2 - p0) <= 8.0 * kEps * scale &&
                           std::abs(p0 - 2.0 * p1 + p2) <= 16.0 * kEps * scale;
        double t = level ? lo_[i] : curv > 0.0 ? f_[i] - g / curv : g > 0.0 ? lower[i] : upper[i];
        // Outside the bracket, go to the end of the range if that is the
        // bracket's end, else bisect.
        if (!(t > lower[i])) t = lower[i] == lo_[i] ? lo_[i] : 0.5 * (lower[i] + upper[i]);
        if (!(t < upper[i])) t = upper[i] == hi_[i] ? hi_[i] : 0.5 * (lower[i] + upper[i]);
        if (std::abs(t - f_[i]) > kTierTol * (hi_[i] - lo_[i])) {
          next[i] = t;
          done = false;
        }
      }
      // The point stays where the stencil was evaluated.
      if (done || it + 1 == kMaxInner) break;
      f_.swap(next);
    }
    settle(nu);
  }

 private:
  [[nodiscard]] double sum(const std::vector<double>& v, std::size_t from) const {
    double s = 0.0;
    for (std::size_t i = 0; i < n_; ++i) s += v[from + i];
    return s;
  }
  [[nodiscard]] double dslope(std::size_t r, std::size_t i) const {
    return dslope_[r * n_ + i];
  }
  [[nodiscard]] double phi(const TierTerms& t, const std::vector<double>& nu,
                           std::size_t i) const {
    double v = t.power[i];
    for (std::size_t r = 0; r < nu.size(); ++r) v += nu[r] * t.delay[r * n_ + i];
    return v;
  }
  [[nodiscard]] bool flat(const TierTerms& a, const TierTerms& b, std::size_t i) const {
    for (std::size_t r = 0; r < rows_.size(); ++r)
      if (a.delay[r * n_ + i] != b.delay[r * n_ + i]) return false;
    return a.power[i] == b.power[i];
  }

  // The per-tier terms at `f`, read off each tier's unit: its average
  // power and its visits' sojourns weighted into every delay row. Every
  // point the solver probes lies in the stable box [lo, hi].
  void split(const std::vector<double>& f, TierTerms& t) {
    eval_.count_point();
    t.power.resize(n_);
    t.delay.assign(rows_.size() * n_, 0.0);
    const auto& visits = model_.skeleton().visits;
    for (std::size_t i = 0; i < n_; ++i) {
      const TierUnit unit = eval_.unit(i, f[i]);
      require(unit.stable(), "continuous solve: unstable point inside the stable range");
      t.power[i] = unit.average_power().value();
      for (std::size_t v = 0; v < visits[i].size(); ++v) {
        const std::size_t k = visits[i][v].cls;
        for (std::size_t r = 0; r < rows_.size(); ++r)
          if (rows_[r][k] != 0.0) t.delay[r * n_ + i] += rows_[r][k] * unit.sojourn(v);
      }
    }
  }

  // Reads the terms and slopes at the inner solution off the last
  // stencil, and moves a tier to an end of its range where the
  // Lagrangian is lower there.
  void settle(const std::vector<double>& nu) {
    const std::size_t n_rows = rows_.size();
    sol_.power.resize(n_);
    sol_.delay.resize(n_rows * n_);
    dslope_.resize(n_rows * n_);
    for (std::size_t i = 0; i < n_; ++i) {
      const double h = step_[i];
      // The quadratic through the three nodes, differentiated at f_i.
      auto derivative = [&](auto value) {
        if (h <= 0.0) return 0.0;
        const double v0 = value(node_[0]), v1 = value(node_[1]), v2 = value(node_[2]);
        return (v2 - v0) / (2.0 * h) + (v0 - 2.0 * v1 + v2) / h * (at_[i] - 1);
      };
      const TierTerms& here = node_[at_[i]];
      slope_[i] = derivative([i](const TierTerms& t) { return t.power[i]; });
      for (std::size_t r = 0; r < n_rows; ++r) {
        const std::size_t ri = r * n_ + i;
        dslope_[ri] = derivative([ri](const TierTerms& t) { return t.delay[ri]; });
      }
      const double p0 = phi(node_[0], nu, i), p1 = phi(node_[1], nu, i),
                   p2 = phi(node_[2], nu, i);
      curv_[i] = h > 0.0 ? (p0 - 2.0 * p1 + p2) / (h * h) : 0.0;
      free_[i] = h > 0.0 && curv_[i] > 0.0 && f_[i] > lo_[i] && f_[i] < hi_[i];

      const double at_here = phi(here, nu, i);
      const double at_lo = phi(lo_terms_, nu, i);
      const double at_hi = phi(hi_terms_, nu, i);
      const TierTerms* end = &here;
      if (at_lo < at_here && at_lo <= at_hi) {
        end = &lo_terms_;
        f_[i] = lo_[i];
      } else if (at_hi < at_here) {
        end = &hi_terms_;
        f_[i] = hi_[i];
      }
      if (end != &here) free_[i] = false;
      sol_.power[i] = end->power[i];
      for (std::size_t r = 0; r < n_rows; ++r) sol_.delay[r * n_ + i] = end->delay[r * n_ + i];
    }
  }

  Evaluator& eval_;
  const ClusterModel& model_;
  std::size_t n_;
  std::vector<std::vector<double>> rows_;  // rows_[r][k]: class k's weight in row r
  std::vector<double> lo_, hi_, top_, step_;
  TierTerms lo_terms_, hi_terms_;
  // The current point, its stencil and the terms there.
  std::vector<double> f_;
  std::vector<int> at_;
  std::array<std::vector<double>, 3> x_;
  std::array<TierTerms, 3> node_;
  // At the inner solution: terms, dP_i/df_i, dD_ri/df_i, phi_i'' and
  // whether the tier's minimiser is interior.
  TierTerms sol_;
  std::vector<double> slope_, dslope_, curv_;
  std::vector<bool> free_;
};

// The relative excess of the constraint(s) over the bound(s) at an
// operating point, (value - bound) / bound: > 0 exactly when one is
// exceeded. It evaluates the point through the solve's evaluator.
using Excess = std::function<double(const std::vector<double>&)>;

// Lands the constraint on its bound from the feasible side. Searches the
// segment from `a`, whose excess is estimated at ca <= 0, toward `b`
// (cb > 0) by regula falsi with the Illinois rule for a point whose excess,
// as evaluate computes it, lies in [-kLand, 0]. `safe` is a point the
// caller verified feasible (excess cs): the search restarts from it if `a`
// proves infeasible, and it is returned if no probe is feasible.
std::vector<double> land(const Excess& excess, const std::vector<double>& a, double ca,
                         const std::vector<double>& b, double cb,
                         const std::vector<double>& safe, double cs) {
  std::vector<double> x(a.size()), best = safe;
  double ta = 0.0, tb = 1.0;
  int side = 0;
  for (int it = 0; it < kMaxOuter && tb - ta > 1e-16; ++it) {
    double t = ca >= -kLand ? ta : ta - ca * (tb - ta) / (cb - ca);
    if (!(t >= ta && t < tb)) t = 0.5 * (ta + tb);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = a[i] + t * (b[i] - a[i]);
    const double c = excess(x);
    if (c > 0.0 && t == 0.0 && a != safe) return land(excess, safe, cs, x, c, safe, cs);
    if (c <= 0.0 && c >= -kLand) return x;
    if (c <= 0.0) {
      best = x;
      ta = t;
      ca = c;
      cb *= side < 0 ? 0.5 : 1.0;
    } else {
      tb = t;
      cb = c;
      ca *= side > 0 ? 0.5 : 1.0;
    }
    side = c <= 0.0 ? -1 : 1;
  }
  return best;
}

// Lands from the dual's current point, whose relative excess by the tier
// sums is c: toward `safe` (verified feasible, excess cs) when over the
// bound, toward `other` (excess co > 0) when under it.
std::vector<double> land_from(const Excess& excess, const TierDual& dual, double c,
                              const std::vector<double>& safe, double cs,
                              const std::vector<double>& other, double co) {
  if (c > 0.0) return land(excess, safe, cs, dual.point(), c, safe, cs);
  return land(excess, dual.point(), c, other, co, safe, cs);
}

// Moves the multipliers nu = theta w along the ray `w` until the
// constraint, on power (P-D) or on sum_r w_r D_r (P-E), is within `tol` of
// `bound`, and returns theta and that constraint's relative excess at the
// dual's last point. The Lagrangian's minimiser runs from lo (theta -> 0)
// to f_max (theta -> infinity), so a P-D budget holds at the low end and a
// P-E bound at the high end. Newton on log theta takes its slope from the
// tiers' sensitivities; it bisects once both sides are known and a step
// leaves them, and doubles its step while iterates stay on one side and
// the excess falls by less than half.
std::pair<double, double> find_multiplier(TierDual& dual, const std::vector<double>& w,
                                          bool on_power, double bound, double tol) {
  auto delay = [&](const TierTerms& t) {
    double d = 0.0;
    for (std::size_t r = 0; r < w.size(); ++r) d += w[r] * dual.delay(t, r);
    return d;
  };
  auto excess = [&](const TierTerms& t) {
    return ((on_power ? dual.power(t) : delay(t)) - bound) / bound;
  };
  auto slope = [&] {  // d(constraint) / d(theta)
    double d = 0.0;
    for (std::size_t s = 0; s < w.size(); ++s) {
      if (on_power) d += w[s] * dual.power_slope(s);
      for (std::size_t r = 0; r < w.size() && !on_power; ++r)
        d += w[r] * w[s] * dual.delay_slope(r, s);
    }
    return d;
  };
  // Start at the average price of delay, in power, between the two ends.
  const double price = (dual.power(dual.at_hi()) - dual.power(dual.at_lo())) /
                       (delay(dual.at_lo()) - delay(dual.at_hi()));
  const double start = price > 0.0 && std::isfinite(price) ? std::log(price) : 0.0;
  double s = start, theta = 0.0, c = 0.0, last_c = 0.0, grow = 1.0;
  double s_feasible = on_power ? -kInf : kInf, s_infeasible = -s_feasible;
  std::vector<double> nu(w.size()), dnu(w.size());
  for (int it = 0; it < kMaxOuter; ++it) {
    theta = std::exp(s);
    for (std::size_t r = 0; r < w.size(); ++r) nu[r] = theta * w[r];
    dual.inner(nu);
    last_c = c;
    c = excess(dual.at_point());
    if (std::abs(c) <= tol) break;
    const bool same_side = it > 0 && (c > 0.0) == (last_c > 0.0);
    grow = same_side && std::abs(c) > 0.5 * std::abs(last_c) ? 2.0 * grow : 1.0;
    (c <= 0.0 ? s_feasible : s_infeasible) = s;
    const bool bracketed = std::isfinite(s_feasible) && std::isfinite(s_infeasible);
    if (bracketed && std::abs(s_feasible - s_infeasible) <= 1e-14 * std::max(1.0, std::abs(s)))
      break;  // the minimiser jumps across the bound here
    // The sign of the step in log theta that moves c toward 0.
    const double toward = (c > 0.0) == on_power ? -1.0 : 1.0;
    const double newton = -c / (theta * slope() / bound);
    const double ds = std::isfinite(newton) && newton * toward > 0.0 ? newton : toward;
    double next = s + std::clamp(ds * grow, -16.0, 16.0);
    if (bracketed) {
      const double a = std::min(s_feasible, s_infeasible), b = std::max(s_feasible, s_infeasible);
      if (!(next > a && next < b)) next = 0.5 * (a + b);
    } else if (std::abs(next - start) > kMaxDrift) {
      break;  // no finite multiplier reaches the bound: land between the ends
    }
    for (std::size_t r = 0; r < w.size(); ++r) dnu[r] = (std::exp(next) - theta) * w[r];
    dual.restart(dual.point(), dnu);
    s = next;
  }
  return {theta, c};
}

// Solves a x = b for the <= 3 active rows by Gaussian elimination with
// partial pivoting, in place in `x`. A ridge of 1e-12 of the largest entry
// on the diagonal keeps it solvable where no free tier moves some class:
// that row's step is then large, and the trust region grows or drops its
// multiplier.
void solve_small(std::vector<std::vector<double>> a, std::vector<double>& x) {
  const std::size_t n = x.size();
  double scale = std::numeric_limits<double>::min();
  for (const auto& row : a)
    for (double v : row) scale = std::max(scale, 1e-12 * std::abs(v));
  for (std::size_t c = 0; c < n; ++c) a[c][c] -= scale;
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t p = c;
    for (std::size_t r = c + 1; r < n; ++r)
      if (std::abs(a[r][c]) > std::abs(a[p][c])) p = r;
    std::swap(a[p], a[c]);
    std::swap(x[p], x[c]);
    for (std::size_t r = c + 1; r < n; ++r) {
      const double m = a[r][c] / a[c][c];
      for (std::size_t k = c; k < n; ++k) a[r][k] -= m * a[c][k];
      x[r] -= m * x[c];
    }
  }
  for (std::size_t c = n; c-- > 0;) {
    for (std::size_t k = c + 1; k < n; ++k) x[c] -= a[c][k] * x[k];
    x[c] /= a[c][c];
  }
}

// P-E with two or more binding classes: one multiplier per class bound
// B_r, by projected Newton ascent on the concave dual
// q(nu) = sum_i min phi_i - sum_r nu_r B_r over nu >= 0. Its gradient is
// the excess D_r - B_r and its Hessian comes from the tiers'
// sensitivities. A class with nu_r = 0 whose bound holds stays out of the
// step, a multiplier the step would take below 0 is set to 0 with the
// others' step solved again, and a step that lowers q is halved (the
// iteration stops when eight halvings do not raise it). Starts
// on the ray nu_r = theta / B_r where the bounds hold on average. Returns
// the largest relative excess at the dual's last point.
double ascend(TierDual& dual, const std::vector<double>& bounds) {
  const std::size_t n_rows = bounds.size();
  std::vector<double> w(n_rows), nu(n_rows), reach(n_rows), step(n_rows);
  for (std::size_t r = 0; r < n_rows; ++r) w[r] = 1.0 / bounds[r];
  const double theta =
      find_multiplier(dual, w, false, static_cast<double>(n_rows), 1e-3).first;
  for (std::size_t r = 0; r < n_rows; ++r) reach[r] = nu[r] = theta * w[r];
  auto excess = [&](std::size_t r) {
    return (dual.delay(dual.at_point(), r) - bounds[r]) / bounds[r];
  };
  auto dual_value = [&] {
    double q = dual.power(dual.at_point());
    for (std::size_t r = 0; r < n_rows; ++r) q += nu[r] * excess(r) * bounds[r];
    return q;
  };
  for (int it = 0; it < kMaxOuter; ++it) {
    std::vector<std::size_t> active;
    for (std::size_t r = 0; r < n_rows; ++r)
      if (nu[r] > 0.0 || excess(r) > 0.0) active.push_back(r);
    if (std::all_of(active.begin(), active.end(),
                    [&](std::size_t r) { return std::abs(excess(r)) <= kDualTol; }))
      break;
    // Newton on the active excesses, d excess_r / d nu_s from the tiers.
    std::fill(step.begin(), step.end(), 0.0);
    for (bool dropped = true; dropped && !active.empty();) {
      std::vector<std::vector<double>> jac(active.size(), std::vector<double>(active.size()));
      std::vector<double> rhs(active.size());
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t r = active[a];
        rhs[a] = -excess(r);
        for (std::size_t s = 0; s < n_rows; ++s)
          rhs[a] -= dual.delay_slope(r, s) / bounds[r] * step[s];
        for (std::size_t b = 0; b < active.size(); ++b)
          jac[a][b] = dual.delay_slope(r, active[b]) / bounds[r];
      }
      solve_small(jac, rhs);
      dropped = false;
      std::size_t kept = 0;
      for (std::size_t a = 0; a < active.size(); ++a) {
        const std::size_t r = active[a];
        step[r] = rhs[a];
        if (nu[r] + step[r] <= 0.0) {
          step[r] = -nu[r];
          dropped = true;
        } else {
          active[kept++] = r;
        }
      }
      active.resize(kept);
      if (dropped)
        for (std::size_t r : active) step[r] = 0.0;
    }
    const double q0 = dual_value();
    const std::vector<double> start = dual.point(), from = nu;
    bool ascended = false;
    for (int halving = 0; halving <= 8 && !ascended; ++halving) {
      for (std::size_t r = 0; r < n_rows; ++r) {
        const double base = from[r] > 0.0 ? from[r] : reach[r];
        const double target = from[r] + step[r];
        nu[r] = target <= 0.0 ? 0.0 : std::clamp(target, base / 16.0, base * 16.0);
        step[r] = nu[r] - from[r];
      }
      dual.restart(start, halving == 0 ? step : std::vector<double>(n_rows, 0.0));
      dual.inner(nu);
      ascended = dual_value() >= q0 - 1e-12 * std::abs(q0);
      for (double& d : step) d *= 0.5;
    }
    if (!ascended) break;  // no ascent step left: the landing search takes over
  }
  double worst = -kInf;
  for (std::size_t r = 0; r < n_rows; ++r) worst = std::max(worst, excess(r));
  return worst;
}

// P-E over one or more delay bounds, on the dual or (levels != 0) over the
// P-state lattice.
FrequencyOptResult minimize_power(const ClusterModel& model,
                                  const std::vector<DelayBound>& bounds, int levels) {
  Evaluator eval(model);
  if (levels != 0) {
    const auto within = [&bounds](const Evaluation& ev) {
      return std::all_of(bounds.begin(), bounds.end(),
                         [&ev](const DelayBound& b) { return b.value(ev) <= b.bound; });
    };
    return lattice_search(eval, eval.servers(), frequency_grids(model, levels), kPower, within);
  }
  const Excess excess = [&eval, &bounds](const std::vector<double>& f) {
    const Evaluation& ev = eval.at(f);
    double worst = ev.stable ? -kInf : kInf;
    for (const DelayBound& b : bounds) worst = std::max(worst, (b.value(ev) - b.bound) / b.bound);
    return worst;
  };
  // Every delay is least at f_max: a bound missed there is infeasible.
  const std::vector<double> f_max = model.max_frequencies();
  const double fast = excess(f_max);
  if (fast > 0.0) return finish(eval, f_max, false);
  // Power is least, and every delay largest, at the min-stable point: a
  // bound that holds there binds nowhere, and if all do, that is the answer.
  const std::vector<double> f_floor = model.min_stable_frequencies();
  std::vector<DelayBound> binding;
  {
    const Evaluation& slow = eval.at(f_floor);
    for (const DelayBound& b : bounds)
      if (!(b.value(slow) <= b.bound)) binding.push_back(b);
  }
  if (binding.empty()) return finish(eval, f_floor, true);

  TierDual dual(eval, binding);
  std::vector<double> rows(binding.size());
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = binding[r].bound;
  const double c = rows.size() == 1 ? find_multiplier(dual, {1.0}, false, rows[0], kDualTol).second
                                    : ascend(dual, rows);
  double c_floor = -kInf;
  for (std::size_t r = 0; r < rows.size(); ++r)
    c_floor = std::max(c_floor, (dual.delay(dual.at_lo(), r) - rows[r]) / rows[r]);
  return finish(eval, land_from(excess, dual, c, dual.top(), fast, f_floor, c_floor), true);
}

}  // namespace

FrequencyOptResult minimize_delay_with_power_budget(const ClusterModel& model,
                                                   units::Watts power_budget, int levels) {
  require(power_budget > units::watts(0.0),
          "P-D: power budget must be positive");
  Evaluator eval(model);
  if (levels != 0)
    return lattice_search(
        eval, eval.servers(), frequency_grids(model, levels),
        [](const Evaluation& ev) { return ev.mean_delay().value(); },
        [power_budget](const Evaluation& ev) { return ev.power() <= power_budget; });
  const double budget = power_budget.value();
  const Excess excess = [&eval, budget](const std::vector<double>& f) {
    return (eval.power(f).value() - budget) / budget;
  };
  // Feasibility precheck: cluster power is componentwise increasing in f
  // over the stable region, so the min-stable point attains minimum power.
  const std::vector<double> f_floor = model.min_stable_frequencies();
  const double slow = excess(f_floor);
  if (slow > 0.0) return finish(eval, f_floor, false);
  // Delay is least at f_max: if that fits the budget, it is the answer.
  const std::vector<double> f_max = model.max_frequencies();
  if (excess(f_max) <= 0.0) return finish(eval, f_max, true);

  TierDual dual(eval, {DelayBound{}});
  const double c = find_multiplier(dual, {1.0}, true, budget, kDualTol).second;
  const double c_top = (dual.power(dual.at_hi()) - budget) / budget;
  return finish(eval, land_from(excess, dual, c, f_floor, slow, dual.top(), c_top), true);
}

FrequencyOptResult minimize_power_with_delay_bound(const ClusterModel& model,
                                                   units::Seconds max_mean_delay, int levels) {
  require(max_mean_delay > units::seconds(0.0),
          "P-E: delay bound must be positive");
  return minimize_power(model, {DelayBound{-1, max_mean_delay.value()}}, levels);
}

FrequencyOptResult minimize_power_with_class_delay_bounds(
    const ClusterModel& model, const std::vector<units::Seconds>& bounds, int levels) {
  require(bounds.size() == model.num_classes(),
          "P-E/each: one bound per class required");
  for (units::Seconds b : bounds)
    require(b > units::seconds(0.0), "P-E/each: bounds must be positive");
  std::vector<DelayBound> rows;
  for (std::size_t k = 0; k < bounds.size(); ++k)
    if (bounds[k] != units::Seconds::infinity())
      rows.push_back(DelayBound{static_cast<int>(k), bounds[k].value()});
  return minimize_power(model, rows, levels);
}

FrequencyOptResult uniform_frequency_baseline(const ClusterModel& model,
                                              units::Watts power_budget) {
  require(power_budget > units::watts(0.0),
          "uniform baseline: power budget must be positive");
  // Uniform scaling is parametrised by t in [0,1] interpolating every tier
  // from its lowest stable frequency to f_max; power is monotone increasing
  // in t over that segment, so the best (delay-minimising) in-budget
  // setting is the largest feasible t.
  const std::vector<double> lo = model.min_stable_frequencies();
  const std::vector<double> hi = model.max_frequencies();
  auto freqs_at = [&](double t) {
    std::vector<double> f(lo.size());
    for (std::size_t i = 0; i < f.size(); ++i) f[i] = lo[i] + t * (hi[i] - lo[i]);
    return f;
  };
  Evaluator eval(model);
  auto within_budget = [&](double t) { return eval.power(freqs_at(t)) <= power_budget; };
  if (!within_budget(0.0)) return finish(eval, freqs_at(0.0), false);
  // Bisect for the largest in-budget t: within_budget(a) holds throughout,
  // and within_budget(b) fails unless all of [0, 1] is in budget.
  double a = 0.0, b = 1.0;
  if (within_budget(b)) a = b;
  while (b - a > 1e-10) {
    const double m = 0.5 * (a + b);
    if (within_budget(m)) a = m; else b = m;
  }
  return finish(eval, freqs_at(a), true);
}

CostOptResult minimize_cost_for_slas(const ClusterModel& model,
                                     const CostOptOptions& options) {
  require(options.max_servers_per_tier >= 1,
          "P-C: max_servers_per_tier must be >= 1");
  const std::size_t n_tiers = model.num_tiers();
  const std::vector<double> freqs = model.max_frequencies();

  // Statically infeasible mean-SLA targets (at or below the no-queueing
  // service-demand floor, lint rule CPM-L003) do not depend on server
  // counts: adding servers removes queueing, never service time. Bail out
  // before the branch-and-bound explores anything. The comparison is the
  // shared open one of sla_mean_target_feasible — a target exactly at the
  // floor needs rho == 0, which a traffic-carrying class never attains.
  // (Percentile bounds are left to the search: the gamma-fit percentile
  // is not bounded below by the mean floor for low percentiles.)
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const Sla& sla = model.classes()[k].sla;
    if (sla.mean_bounded() &&
        !sla_mean_target_feasible(sla.max_mean_e2e_delay,
                                  class_delay_floor(model, k, freqs))) {
      CostOptResult r;
      r.servers.assign(n_tiers, options.max_servers_per_tier);
      return r;  // feasible = false, zero nodes explored
    }
  }

  Evaluator eval(model);
  const opt::IntegerProblem problem = sizing_problem(model, options.max_servers_per_tier, eval);
  const opt::IntegerResult ir = options.greedy_only
                                    ? opt::greedy_descend(problem)
                                    : opt::minimize_monotone_cost(problem);

  CostOptResult r;
  r.servers = ir.n;
  r.total_cost = ir.cost;
  r.feasible = ir.feasible;
  r.nodes_explored = ir.nodes_explored;
  if (ir.feasible) r.evaluation = eval.at(ir.n, freqs);
  r.evaluations = eval.count();
  r.station_analyses = eval.analyses();
  return r;
}

std::vector<std::vector<double>> frequency_grids(const ClusterModel& model,
                                                 int levels) {
  require(levels >= 2, "frequency_grids: need at least 2 levels");
  std::vector<std::vector<double>> grids;
  grids.reserve(model.num_tiers());
  const auto lo = model.min_frequencies();
  const auto hi = model.max_frequencies();
  for (std::size_t i = 0; i < model.num_tiers(); ++i)
    grids.push_back(linspace(lo[i], hi[i], static_cast<std::size_t>(levels)));
  return grids;
}

TcoResult minimize_total_cost_of_ownership(const ClusterModel& model,
                                           const TcoOptions& options) {
  require(options.energy_price_per_kwh >= 0.0, "TCO: negative energy price");
  require(options.billing_hours > 0.0, "TCO: billing hours must be positive");
  require(options.max_servers_per_tier >= 1, "TCO: max servers must be >= 1");
  require(options.levels >= 2, "TCO: need >= 2 frequency levels");

  const double kwh_factor = options.energy_price_per_kwh * options.billing_hours /
                            1000.0;  // watts -> money
  const std::vector<std::vector<double>> grids = frequency_grids(model, options.levels);
  Evaluator eval(model);
  // The inner problem at server counts n: the least power over the lattice
  // that meets every SLA. Called where the SLAs hold at f_max, the grid's
  // top level, so it finds a point. Every leaf reads the one table, so a
  // tier is analysed once per server count and level.
  auto cheapest = [&model, &grids, &eval](const std::vector<int>& n) {
    return lattice_search(eval, n, grids, kPower,
                          [&model](const Evaluation& ev) { return slas_hold(model, ev); });
  };
  auto capex = [&model](const std::vector<int>& n) {
    double c = 0.0;
    for (std::size_t i = 0; i < n.size(); ++i) c += model.tiers()[i].server_cost * n[i];
    return c;
  };

  // A server costs at least its price and the energy of its idle power.
  opt::IntegerProblem problem = sizing_problem(model, options.max_servers_per_tier, eval);
  for (std::size_t i = 0; i < problem.cost.size(); ++i)
    problem.cost[i] += model.tiers()[i].power.idle_power().value() * kwh_factor;
  problem.value = [&](const std::vector<int>& n) {
    return capex(n) + cheapest(n).power.value() * kwh_factor;
  };
  const opt::IntegerResult ir = opt::minimize_monotone_cost(problem);

  TcoResult r;
  r.servers = ir.n;
  r.feasible = ir.feasible;
  r.nodes_explored = ir.nodes_explored;
  if (ir.feasible) {
    const FrequencyOptResult inner = cheapest(ir.n);
    r.frequencies = inner.frequencies;
    r.capex = capex(ir.n);
    r.opex = inner.power.value() * kwh_factor;
    r.total_cost = ir.cost;
    r.power = inner.power;
    r.evaluation = inner.evaluation;
  }
  r.evaluations = eval.count();
  r.station_analyses = eval.analyses();
  return r;
}

}  // namespace cpm::core
