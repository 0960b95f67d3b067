#include "cpm/check/generator.hpp"

#include <algorithm>
#include <string>

#include "cpm/common/error.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::check {

void validate_options(const GeneratorOptions& o) {
  require(o.min_tiers >= 1 && o.max_tiers >= o.min_tiers,
          "generator: tier range must satisfy 1 <= min <= max");
  require(o.min_classes >= 1 && o.max_classes >= o.min_classes,
          "generator: class range must satisfy 1 <= min <= max");
  require(o.min_servers >= 1 && o.max_servers >= o.min_servers,
          "generator: server range must satisfy 1 <= min <= max");
  require(!o.disciplines.empty(), "generator: need at least one discipline");
  require(o.min_rate > units::per_second(0.0) && o.max_rate >= o.min_rate,
          "generator: rate range must satisfy 0 < min <= max");
  require(o.min_demand_mean > 0.0 && o.max_demand_mean >= o.min_demand_mean,
          "generator: demand-mean range must satisfy 0 < min <= max");
  require(o.min_demand_scv >= 0.0 && o.max_demand_scv >= o.min_demand_scv,
          "generator: demand-SCV range must satisfy 0 <= min <= max");
  require(o.min_server_cost > 0.0 && o.max_server_cost >= o.min_server_cost,
          "generator: server-cost range must satisfy 0 < min <= max");
  require(o.util_cap > 0.0 && o.util_cap < 1.0,
          "generator: util_cap must lie in (0, 1)");
}

namespace {

/// Uniform integer in [lo, hi]; consumes exactly one rng draw so default
/// envelopes replay the historical random_model() sequence exactly.
int draw_int(Rng& rng, int lo, int hi) {
  return lo + static_cast<int>(rng.below(static_cast<std::uint64_t>(hi - lo + 1)));
}

}  // namespace

core::ClusterModel random_model(Rng& rng, const GeneratorOptions& options) {
  validate_options(options);

  const auto n_tiers =
      static_cast<std::size_t>(draw_int(rng, options.min_tiers, options.max_tiers));
  const auto n_classes = static_cast<std::size_t>(
      draw_int(rng, options.min_classes, options.max_classes));

  std::vector<core::Tier> tiers;
  tiers.reserve(n_tiers);
  for (std::size_t i = 0; i < n_tiers; ++i) {
    core::Tier t;
    // Names are built a character at a time: GCC 12's -Wrestrict misreads
    // both `"t" + std::to_string(i)` and assigning "t" inside libstdc++.
    t.name.push_back('t');
    t.name += std::to_string(i);
    t.servers = draw_int(rng, options.min_servers, options.max_servers);
    t.discipline = options.disciplines[rng.below(options.disciplines.size())];
    t.server_cost = rng.uniform(options.min_server_cost, options.max_server_cost);
    tiers.push_back(std::move(t));
  }

  std::vector<core::WorkloadClass> classes;
  classes.reserve(n_classes);
  for (std::size_t k = 0; k < n_classes; ++k) {
    core::WorkloadClass c;
    c.name.push_back('c');
    c.name += std::to_string(k);
    c.rate = units::per_second(
        rng.uniform(options.min_rate.value(), options.max_rate.value()));
    for (std::size_t i = 0; i < n_tiers; ++i) {
      const double mean =
          rng.uniform(options.min_demand_mean, options.max_demand_mean);
      const double scv =
          rng.uniform(options.min_demand_scv, options.max_demand_scv);
      c.route.push_back(core::Demand{static_cast<int>(i),
                                     Distribution::from_mean_scv(mean, scv)});
    }
    classes.push_back(std::move(c));
  }

  core::ClusterModel model(std::move(tiers), std::move(classes));
  // Rescale total demand so the busiest tier sits exactly at util_cap —
  // every generated model is stable at f_max by construction.
  const auto utils = core::tier_utilizations(model, model.max_frequencies());
  double peak = 0.0;
  for (double u : utils) peak = std::max(peak, u);
  return model.with_rate_scale(options.util_cap / peak);
}

ModelGenerator::ModelGenerator(std::uint64_t seed, GeneratorOptions options)
    : rng_(seed), options_(std::move(options)) {
  validate_options(options_);
}

core::ClusterModel ModelGenerator::next() {
  ++generated_;
  return random_model(rng_, options_);
}

}  // namespace cpm::check
