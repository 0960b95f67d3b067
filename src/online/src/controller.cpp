#include "cpm/online/controller.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cpm/common/error.hpp"
#include "cpm/core/optimizers.hpp"

namespace cpm::online {

namespace {

int clamp_int(int v, int lo, int hi) { return std::max(lo, std::min(hi, v)); }

}  // namespace

OnlineController::OnlineController(core::ClusterModel model,
                                   ControllerOptions options)
    : model_(std::move(model)), options_(options) {
  require(options_.hysteresis > 0.0, "OnlineController: hysteresis > 0");
  require(options_.drift_windows >= 1, "OnlineController: drift_windows >= 1");
  require(options_.cooldown_windows >= 0,
          "OnlineController: cooldown_windows >= 0");
  require(options_.levels >= 2, "OnlineController: levels >= 2");
  require(options_.rate_headroom >= 1.0,
          "OnlineController: rate_headroom >= 1");
  require(options_.max_server_step >= 1,
          "OnlineController: max_server_step >= 1");
  require(options_.max_freq_step > units::hertz(0.0),
          "OnlineController: max_freq_step > 0");
  require(options_.max_servers_per_tier >= 1,
          "OnlineController: max_servers_per_tier >= 1");
  require(options_.sla_trigger > 0.0 && options_.sla_trigger <= 1.0,
          "OnlineController: sla_trigger in (0, 1]");

  const std::size_t tiers = model_.num_tiers();
  const std::size_t classes = model_.num_classes();
  estimators_.assign(classes,
                     WindowedEstimator(options_.ewma_alpha,
                                       options_.estimator_windows));
  plan_rates_.resize(classes);
  for (std::size_t k = 0; k < classes; ++k)
    plan_rates_[k] = model_.classes()[k].rate.value();

  available_.resize(tiers);
  current_servers_.resize(tiers);
  for (std::size_t i = 0; i < tiers; ++i) {
    current_servers_[i] = model_.tiers()[i].servers;
    available_[i] =
        std::max(options_.max_servers_per_tier, current_servers_[i]);
  }
  admitted_.assign(classes, 1);

  // Initial plan: the model's own fleet, frequencies from discrete P-E at
  // nominal rates (fail-safe to f_max). Starting at the plan means a
  // drift-free run makes no decisions at all.
  std::vector<units::Seconds> bounds(classes, units::Seconds::infinity());
  for (std::size_t k = 0; k < classes; ++k)
    if (model_.classes()[k].sla.mean_bounded())
      bounds[k] = model_.classes()[k].sla.max_mean_e2e_delay;
  const auto pe = core::minimize_power_with_class_delay_bounds(model_, bounds, options_.levels);
  current_freq_ = pe.feasible ? pe.frequencies : model_.max_frequencies();

  target_.servers = current_servers_;
  target_.frequencies = current_freq_;
  target_.admit = admitted_;
  target_.feasible = true;
  last_good_ = target_;
}

sim::ManagementHook OnlineController::hook() {
  return [this](const sim::ControlSnapshot& snap) { return on_window(snap); };
}

OnlineController::Plan OnlineController::solve(
    const std::vector<double>& rates) const {
  const std::size_t classes = model_.num_classes();
  std::vector<std::uint8_t> admit(classes, 1);

  for (;;) {
    std::vector<units::Rate> shed_rates(classes, units::per_second(0.0));
    for (std::size_t k = 0; k < classes; ++k)
      if (admit[k]) shed_rates[k] = units::per_second(rates[k]);
    const core::ClusterModel at_rates = model_.with_rates(shed_rates);

    // Server sizing (P-C), then cap by the healthy fleet — the optimiser
    // may ask for servers that a fault took away.
    std::vector<int> servers;
    if (options_.size_servers) {
      core::CostOptOptions co;
      co.max_servers_per_tier = options_.max_servers_per_tier;
      const auto pc = core::minimize_cost_for_slas(at_rates, co);
      servers = pc.feasible ? pc.servers : available_;
    } else {
      servers = current_servers_;
    }
    for (std::size_t i = 0; i < servers.size(); ++i)
      servers[i] = clamp_int(servers[i], 1, available_[i]);

    // Frequency plan (discrete per-class P-E) on the capped fleet; shed
    // classes impose no delay constraint.
    std::vector<units::Seconds> bounds(classes, units::Seconds::infinity());
    for (std::size_t k = 0; k < classes; ++k)
      if (admit[k] && at_rates.classes()[k].sla.mean_bounded())
        bounds[k] = at_rates.classes()[k].sla.max_mean_e2e_delay;
    const auto pe = core::minimize_power_with_class_delay_bounds(
        at_rates.with_servers(servers), bounds, options_.levels);
    if (pe.feasible) return Plan{servers, pe.frequencies, admit, true};

    // Infeasible at this admitted set: shed the lowest-priority class
    // still admitted. The top class is never shed — with nothing left to
    // sacrifice the caller falls back to the last known-good plan.
    std::size_t victim = classes;
    for (std::size_t k = classes; k-- > 1;)
      if (admit[k]) {
        victim = k;
        break;
      }
    if (victim == classes)
      return Plan{servers, model_.max_frequencies(), admit, false};
    admit[victim] = 0;
  }
}

sim::ManagementDecision OnlineController::on_window(
    const sim::ControlSnapshot& snap) {
  const std::size_t tiers = model_.num_tiers();
  const std::size_t classes = model_.num_classes();

  WindowRecord rec;
  rec.time = snap.time;
  rec.measured_rate = snap.arrival_rate;
  rec.completed = snap.window_completed;
  rec.blocked = snap.window_blocked;
  rec.within_sla = snap.window_within_sla;
  rec.mean_delay = snap.window_mean_delay;
  rec.energy_joules = snap.window_energy_joules;
  rec.observed_servers = snap.servers;
  // Telemetry dropout: this window's measurements are stale. Hold the
  // last known-good plan — keep slewing toward the existing target but
  // make no new decisions — and keep the stale samples out of the
  // estimators so they cannot poison the post-dropout state.
  const bool stale = std::any_of(
      dropouts_.begin(), dropouts_.end(), [&](const TelemetryDropout& d) {
        return snap.time >= d.start.value() && snap.time < d.end.value();
      });
  if (stale) {
    was_stale_ = true;
  } else if (was_stale_) {
    was_stale_ = false;
    // Re-entry hysteresis: estimators re-warm on fresh telemetry for
    // drift_windows windows before drift/SLA triggers may fire again.
    reentry_ = options_.drift_windows;
  }

  rec.ewma_rate.resize(classes);
  rec.windowed_rate.resize(classes);
  rec.sla_compliance.resize(classes);
  for (std::size_t k = 0; k < classes; ++k) {
    if (!stale) estimators_[k].observe(snap.arrival_rate[k]);
    rec.ewma_rate[k] = estimators_[k].ewma();
    rec.windowed_rate[k] = estimators_[k].windowed_mean();
    rec.sla_compliance[k] =
        snap.window_completed[k] > 0
            ? static_cast<double>(snap.window_within_sla[k]) /
                  static_cast<double>(snap.window_completed[k])
            : 1.0;
  }

  // Fault detection: the fleet we observe is not the fleet we actuated.
  // Update the availability estimate by the surprise delta (a failure
  // shrinks it, a repair restores it) and re-plan immediately.
  std::string reason;
  if (!stale) {
    for (std::size_t i = 0; i < tiers; ++i) {
      if (snap.servers[i] == current_servers_[i]) continue;
      const int delta = snap.servers[i] - current_servers_[i];
      available_[i] =
          clamp_int(available_[i] + delta, 1, options_.max_servers_per_tier);
      current_servers_[i] = snap.servers[i];
      reason = "fault";
    }
  }

  // Drift: windowed mean outside the hysteresis band of the planned rate.
  bool drifted = false;
  for (std::size_t k = 0; k < classes; ++k) {
    if (!estimators_[k].warmed_up()) continue;
    const double planned = plan_rates_[k];
    const double scale = planned > 0.0 ? planned : 1.0;
    if (std::abs(rec.windowed_rate[k] - planned) / scale > options_.hysteresis)
      drifted = true;
  }
  drift_streak_ = drifted ? drift_streak_ + 1 : 0;

  // SLA distress: attainment below the trigger, or drops, on an admitted
  // class that actually saw traffic.
  bool sla_bad = false;
  for (std::size_t k = 0; k < classes; ++k) {
    if (!admitted_[k]) continue;
    if (snap.window_blocked[k] > 0) sla_bad = true;
    if (snap.window_completed[k] > 0 &&
        rec.sla_compliance[k] < options_.sla_trigger)
      sla_bad = true;
  }
  sla_streak_ = sla_bad ? sla_streak_ + 1 : 0;

  // Stale windows and the re-entry period contribute no trigger
  // evidence: streaks restart from fresh, trusted samples only.
  if (stale || reentry_ > 0) {
    drift_streak_ = 0;
    sla_streak_ = 0;
    if (!stale) --reentry_;
  }

  if (cooldown_ > 0) --cooldown_;
  if (reason.empty() && cooldown_ == 0) {
    if (drift_streak_ >= options_.drift_windows)
      reason = "drift";
    else if (sla_streak_ >= options_.drift_windows)
      reason = "sla";
  }

  if (!reason.empty()) {
    // Plan on the larger of the two estimates: the EWMA leads on upward
    // steps, the windowed mean resists transient dips — the max is the
    // conservative (SLA-protecting) choice.
    std::vector<double> rates(classes);
    for (std::size_t k = 0; k < classes; ++k)
      rates[k] = options_.rate_headroom *
                 std::max(rec.ewma_rate[k], rec.windowed_rate[k]);

    Plan plan = solve(rates);
    rec.reoptimized = true;
    rec.reason = reason;
    rec.feasible = plan.feasible;
    if (plan.feasible) {
      last_good_ = plan;
    } else {
      // Graceful degradation: hold the last known-good endpoint (still
      // capped by availability at actuation time below).
      plan = last_good_;
      rec.degraded = true;
    }
    target_ = plan;
    admitted_ = plan.admit;
    plan_rates_ = rates;
    ++reoptimizations_;
    cooldown_ = options_.cooldown_windows;
    drift_streak_ = 0;
    sla_streak_ = 0;
  }

  if (stale) {
    rec.degraded = true;
    rec.reason = "telemetry";
  }

  // Actuation: every window moves at most max_server_step servers and
  // max_freq_step frequency per tier toward the target plan.
  sim::ManagementDecision out;
  bool changed = false;
  double cost = 0.0;
  std::vector<double> next_freq = current_freq_;
  for (std::size_t i = 0; i < tiers; ++i) {
    const int want =
        clamp_int(target_.servers[i], 1, available_[i]);
    const int step = clamp_int(want - current_servers_[i],
                               -options_.max_server_step,
                               options_.max_server_step);
    const int servers = current_servers_[i] + step;
    if (step != 0) {
      cost += std::abs(step) * options_.server_switch_cost_j.value();
      changed = true;
    }

    const auto& dvfs = model_.tiers()[i].power.dvfs();
    const double want_f =
        std::clamp(target_.frequencies[i], dvfs.f_min.value(), dvfs.f_max.value());
    double df = want_f - current_freq_[i];
    df = std::clamp(df, -options_.max_freq_step.value(),
                    options_.max_freq_step.value());
    const double f = current_freq_[i] + df;
    if (f != current_freq_[i]) {
      cost += options_.freq_switch_cost_j.value();
      changed = true;
    }

    current_servers_[i] = servers;
    next_freq[i] = f;
  }
  const bool admit_changed = admitted_ != snap.admitted;
  current_freq_ = next_freq;

  if (changed || admit_changed) {
    out.tiers = model_.tier_settings(current_freq_);
    for (std::size_t i = 0; i < tiers; ++i) out.tiers[i].servers = current_servers_[i];
    out.admit = admitted_;
    if (rec.reason.empty()) rec.reason = "slew";
  }
  switching_cost_ += units::joules(cost);

  rec.target_servers = target_.servers;
  rec.actuated_servers = current_servers_;
  rec.actuated_freq = current_freq_;
  rec.admitted = admitted_;
  rec.switching_cost_j = units::joules(cost);
  history_.push_back(std::move(rec));
  return out;
}

}  // namespace cpm::online
