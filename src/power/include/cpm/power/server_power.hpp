// Server power model with DVFS.
//
// Each server runs at a frequency f in [f_min, f_max]. The model follows
// the convention of 2011-era power-aware queueing work:
//
//   * service capacity scales linearly: mu(f) = mu_base * f / f_base;
//   * instantaneous power is idle power plus a dynamic term drawn only
//     while serving: P(f, busy) = P_idle + [busy] * c * f^alpha,
//     with c calibrated so that P(f_base, busy) equals a given busy power;
//   * average power at utilisation rho: P_idle + c * f^alpha * rho.
//
// alpha ~ 3 models CMOS dynamic power (V scales with f); alpha = 1 models
// pure clock gating. Experiment A2 sweeps alpha.
//
// Note the key interaction the optimisers exploit: at fixed throughput,
// utilisation rho(f) is proportional to 1/f, so the dynamic energy term
// scales as f^(alpha-1) — slowing down saves energy but inflates delay.
//
// Figures at an operating point take dynamic_power(f) = c f^alpha, which a
// caller computes once per tier; busy power is idle_power() + dynamic_power(f).
//
// Dimensions are compile-time checked (cpm/common/units.hpp): frequencies
// are units::Hertz, powers units::Watts, per-request energies
// units::Joules. alpha, rho and speedup are genuinely dimensionless and
// stay raw doubles.
#pragma once

#include "cpm/common/units.hpp"

namespace cpm::power {

/// DVFS frequency range, in the same (arbitrary) unit as f_base.
struct DvfsRange {
  units::Hertz f_min = units::hertz(0.6);
  units::Hertz f_max = units::hertz(1.0);
  /// Frequency at which mu_base and busy power are quoted.
  units::Hertz f_base = units::hertz(1.0);
};

/// Power curve of one server.
class ServerPower {
 public:
  /// `idle`: power when not serving; `busy_at_base`: power when serving
  /// at f_base (must exceed idle); `alpha`: dynamic exponent >= 1.
  ServerPower(units::Watts idle, units::Watts busy_at_base, double alpha,
              DvfsRange dvfs);

  /// A typical dual-socket 2011 server: 150 W idle, 250 W busy at nominal
  /// frequency, cubic dynamic power, DVFS down to 60% of nominal.
  static ServerPower typical_2011_server();

  /// An (aspirationally) energy-proportional server in the Barroso–Hölzle
  /// sense: 25 W idle, 250 W busy at nominal, same DVFS range. With cheap
  /// idling, spreading load over MORE, SLOWER servers can beat
  /// consolidation — the crossover experiment E10 probes.
  static ServerPower energy_proportional_server();

  [[nodiscard]] const DvfsRange& dvfs() const { return dvfs_; }
  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] units::Watts idle_power() const { return idle_; }

  /// Validates and clamps nothing: throws cpm::Error when f is outside
  /// [f_min, f_max].
  void check_frequency(units::Hertz f) const;

  /// Average power at utilisation rho in [0, 1], given `dynamic` =
  /// dynamic_power(f) of the operating frequency f.
  [[nodiscard]] units::Watts average_power(units::Watts dynamic, double rho) const;

  /// Service-capacity multiplier mu(f)/mu_base = f / f_base.
  [[nodiscard]] double speedup(units::Hertz f) const;

  /// Dynamic (busy minus idle) power at frequency f.
  [[nodiscard]] units::Watts dynamic_power(units::Hertz f) const;

  /// Energy drawn beyond idle to serve one request of mean duration
  /// `mean_service` (already expressed at frequency f), given `dynamic` =
  /// dynamic_power(f).
  [[nodiscard]] units::Joules marginal_energy_per_request(
      units::Watts dynamic, units::Seconds mean_service) const;

 private:
  units::Watts idle_;
  double dyn_coeff_;  // c such that busy(f) = idle + c f^alpha (W / Hz^alpha)
  double alpha_;
  DvfsRange dvfs_;
};

}  // namespace cpm::power
