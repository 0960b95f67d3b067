#include "cpm/power/server_power.hpp"

#include <cmath>

#include "cpm/common/error.hpp"

namespace cpm::power {

using units::hertz;
using units::watts;

ServerPower::ServerPower(units::Watts idle, units::Watts busy_at_base,
                         double alpha, DvfsRange dvfs)
    : idle_(idle), alpha_(alpha), dvfs_(dvfs) {
  require(idle >= watts(0.0), "ServerPower: idle power must be >= 0");
  require(busy_at_base > idle, "ServerPower: busy power must exceed idle power");
  require(alpha >= 1.0, "ServerPower: alpha must be >= 1");
  require(dvfs.f_base > hertz(0.0) && dvfs.f_min > hertz(0.0),
          "ServerPower: frequencies must be positive");
  require(dvfs.f_min <= dvfs.f_max, "ServerPower: f_min must be <= f_max");
  dyn_coeff_ = (busy_at_base - idle).value() / std::pow(dvfs.f_base.value(), alpha);
}

ServerPower ServerPower::typical_2011_server() {
  return ServerPower(watts(150.0), watts(250.0), 3.0,
                     DvfsRange{hertz(0.6), hertz(1.0), hertz(1.0)});
}

ServerPower ServerPower::energy_proportional_server() {
  return ServerPower(watts(25.0), watts(250.0), 3.0,
                     DvfsRange{hertz(0.6), hertz(1.0), hertz(1.0)});
}

void ServerPower::check_frequency(units::Hertz f) const {
  require(f >= dvfs_.f_min && f <= dvfs_.f_max,
          "ServerPower: frequency outside DVFS range");
}

units::Watts ServerPower::average_power(units::Watts dynamic, double rho) const {
  require(rho >= 0.0 && rho <= 1.0, "ServerPower: utilisation outside [0,1]");
  return idle_ + dynamic * rho;
}

double ServerPower::speedup(units::Hertz f) const {
  check_frequency(f);
  return f / dvfs_.f_base;
}

units::Watts ServerPower::dynamic_power(units::Hertz f) const {
  check_frequency(f);
  return watts(dyn_coeff_ * std::pow(f.value(), alpha_));
}

units::Joules ServerPower::marginal_energy_per_request(
    units::Watts dynamic, units::Seconds mean_service) const {
  require(mean_service >= units::seconds(0.0),
          "ServerPower: service time must be >= 0");
  return dynamic * mean_service;
}

}  // namespace cpm::power
