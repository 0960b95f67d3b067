// Bit-identity guard for model evaluation.
//
// A seeded sweep of generated models, and of the copies the optimisers
// and the controller make of them, is evaluated through one reused
// workspace, and every field each evaluation reports is folded, as raw
// bits, into one digest per kind of model. The recorded digests pin every
// result of the analytic pipeline: a change to the evaluator that moves
// any value by one ulp, or reports a point stable that was not, changes a
// digest. The sweep covers all four disciplines, single- and multi-server
// tiers, routes that visit a tier more than once, classes without traffic,
// and points at f_min, at f_max, at random, at the stability edge and
// beyond it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "cpm/check/generator.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/preconditions.hpp"
#include "cpm/core/tier_table.hpp"

namespace cpm::core {
namespace {

using queueing::Discipline;

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  template <class Q>
  void add(Q q)
    requires requires { q.value(); }
  {
    add(q.value());
  }
  template <class T>
  void add(const std::vector<T>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const auto& x : v) add(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Every field an evaluation defines: at an unstable point only the flag
// and the accessors.
void fold(Digest& d, const Evaluation& ev) {
  d.add(static_cast<std::uint64_t>(ev.stable));
  d.add(ev.power());
  d.add(ev.mean_delay());
  if (!ev.stable) return;
  const auto& n = ev.net;
  d.add(n.e2e_delay);
  d.add(n.e2e_delay_variance);
  d.add(n.visit_sojourn);
  d.add(n.station_wait);
  d.add(n.station_wait_m2);
  d.add(n.station_rho);
  d.add(n.station_utilization);
  d.add(n.mean_e2e_delay);
  d.add(n.total_rate);
  const auto& e = ev.energy;
  d.add(e.cluster_avg_power);
  d.add(e.station_dynamic_power);
  d.add(e.station_avg_power);
  d.add(e.per_request_energy);
  d.add(e.mean_per_request_energy);
}

// `m` with every class's route cut to a random non-empty subset of its
// steps plus a second visit to one of them, so repeated visits merge.
ClusterModel reroute(const ClusterModel& m, Rng& rng) {
  std::vector<WorkloadClass> classes = m.classes();
  for (auto& c : classes) {
    std::vector<Demand> route;
    for (const auto& d : c.route)
      if (rng.uniform01() < 0.6) route.push_back(d);
    if (route.empty()) route.push_back(c.route[rng.below(c.route.size())]);
    route.insert(route.begin() + static_cast<std::ptrdiff_t>(rng.below(route.size() + 1)),
                 route[rng.below(route.size())]);
    c.route = std::move(route);
  }
  return ClusterModel(m.tiers(), std::move(classes));
}

std::vector<int> random_servers(const ClusterModel& m, Rng& rng) {
  std::vector<int> servers(m.num_tiers());
  for (int& n : servers) n = 1 + static_cast<int>(rng.below(4));
  return servers;
}

// Each class's rate scaled by a random factor; the first class of every
// third call carries no traffic.
std::vector<units::Rate> random_rates(const ClusterModel& m, Rng& rng, bool idle_first) {
  std::vector<units::Rate> rates;
  for (const auto& c : m.classes()) rates.push_back(c.rate * rng.uniform(0.2, 1.2));
  if (idle_first) rates[0] = units::per_second(0.0);
  return rates;
}

// The frequencies probed on `m`: f_max, f_min, two random points, the
// lowest stable point with margin, and each tier's critical frequency
// (utilisation 1) nudged one part in 1e12 up and one part in 1e3 down.
std::vector<std::vector<double>> probe_points(const ClusterModel& m, Rng& rng) {
  const auto lo = m.min_frequencies();
  const auto hi = m.max_frequencies();
  std::vector<std::vector<double>> points = {hi, lo};
  for (int j = 0; j < 2; ++j) {
    std::vector<double> f(m.num_tiers());
    for (std::size_t t = 0; t < f.size(); ++t) f[t] = rng.uniform(lo[t], hi[t]);
    points.push_back(f);
  }
  points.push_back(m.min_stable_frequencies());
  const std::vector<double> load = tier_base_loads(m);
  for (const double nudge : {1.0 + 1e-12, 1.0 - 1e-3}) {
    std::vector<double> f(m.num_tiers());
    for (std::size_t t = 0; t < f.size(); ++t) {
      const double f_crit = load[t] * m.tiers()[t].power.dvfs().f_base.value();
      f[t] = std::clamp(f_crit * nudge, lo[t], hi[t]);
    }
    points.push_back(f);
  }
  return points;
}

struct Group {
  std::string name;
  Digest digest;
  int stable = 0;
  int unstable = 0;
};

struct Recorded {
  const char* name;
  std::uint64_t digest;
  int stable;
  int unstable;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(v));
  return buf;
}

const char* const kGroups[] = {"generated",       "with_servers",    "with_rates",
                               "with_rate_scale", "with_discipline", "rerouted",
                               "rerouted_copies"};
constexpr std::size_t kNumGroups = std::size(kGroups);

// What the sweep reaches, checked by the tests so that a narrower sweep
// fails rather than passing vacuously.
struct Reach {
  std::set<Discipline> loaded_disciplines;
  bool merged_visit = false;
  bool multi_server = false;
  bool idle_class = false;
};

// The seeded sweep: 120 generated models and, per group of kGroups, one
// variant of each, evaluated at every probe point through one reused
// workspace. Calls visit(g, model, frequencies, evaluation, j) for each
// evaluation of group g's variant, at the variant's j-th probe point.
template <class Visit>
Reach run_sweep(const Visit& visit) {
  check::GeneratorOptions wide;
  wide.max_tiers = 4;
  wide.max_classes = 4;
  wide.max_servers = 4;
  check::GeneratorOptions near = wide;
  near.util_cap = 0.999;
  check::ModelGenerator wide_models(19001, wide);
  check::ModelGenerator near_models(19002, near);
  Rng rng(19003);

  const Discipline disciplines[] = {Discipline::kFcfs, Discipline::kNonPreemptivePriority,
                                    Discipline::kPreemptiveResume,
                                    Discipline::kProcessorSharing};
  Reach reach;
  EvaluationWorkspace ws;
  Evaluation ev;
  for (int i = 0; i < 120; ++i) {
    const ClusterModel base = i % 2 == 0 ? wide_models.next() : near_models.next();
    const ClusterModel rerouted = reroute(base, rng);
    const ClusterModel variants[] = {
        base,
        base.with_servers(random_servers(base, rng)),
        base.with_rates(random_rates(base, rng, i % 3 == 0)),
        base.with_rate_scale(rng.uniform(0.5, 1.02)),
        base.with_discipline(disciplines[i % 4]),
        rerouted,
        rerouted.with_servers(random_servers(rerouted, rng))
            .with_rates(random_rates(rerouted, rng, i % 3 == 1)),
    };
    static_assert(std::size(variants) == kNumGroups);
    for (std::size_t g = 0; g < kNumGroups; ++g) {
      const ClusterModel& m = variants[g];
      for (const auto& c : m.classes()) {
        std::set<int> seen;
        for (const auto& d : c.route) {
          if (!seen.insert(d.tier).second) reach.merged_visit = true;
          if (c.rate > units::per_second(0.0))
            reach.loaded_disciplines.insert(
                m.tiers()[static_cast<std::size_t>(d.tier)].discipline);
        }
        if (c.rate == units::per_second(0.0)) reach.idle_class = true;
      }
      for (const auto& t : m.tiers()) reach.multi_server = reach.multi_server || t.servers > 1;
      const std::vector<std::vector<double>> points = probe_points(m, rng);
      for (std::size_t j = 0; j < points.size(); ++j) {
        m.evaluate(points[j], ev, ws);
        visit(g, m, points[j], ev, j);
      }
    }
  }
  return reach;
}

void expect_full_reach(const Reach& reach) {
  EXPECT_EQ(reach.loaded_disciplines.size(), 4U);
  EXPECT_TRUE(reach.merged_visit);
  EXPECT_TRUE(reach.multi_server);
  EXPECT_TRUE(reach.idle_class);
}

TEST(EvaluationBits, SeededSweepMatchesRecordedDigests) {
  std::vector<Group> groups;
  for (const char* name : kGroups) groups.push_back(Group{name});
  const Reach reach = run_sweep([&groups](std::size_t g, const ClusterModel&,
                                          const std::vector<double>&, const Evaluation& ev,
                                          std::size_t) {
    fold(groups[g].digest, ev);
    (ev.stable ? groups[g].stable : groups[g].unstable) += 1;
  });
  expect_full_reach(reach);

  // Recorded from the evaluator before the network skeleton was bound
  // once per model.
  const Recorded recorded[] = {
      {"generated", 0xf0415a73105f2e11ULL, 464, 376},
      {"with_servers", 0x4dd0ea6385cf96b6ULL, 375, 465},
      {"with_rates", 0x775b6d09aa8bd8e9ULL, 703, 137},
      {"with_rate_scale", 0xa00cebdceb895317ULL, 660, 180},
      {"with_discipline", 0xe2194d1a2c84694bULL, 469, 371},
      {"rerouted", 0xdd6767fac711863fULL, 224, 616},
      {"rerouted_copies", 0xbdf4cef3503decb9ULL, 507, 333},
  };
  ASSERT_EQ(std::size(recorded), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SCOPED_TRACE(groups[g].name);
    EXPECT_EQ(groups[g].name, recorded[g].name);
    EXPECT_GT(groups[g].stable, 0);
    EXPECT_GT(groups[g].unstable, 0);
    EXPECT_EQ(groups[g].stable, recorded[g].stable);
    EXPECT_EQ(groups[g].unstable, recorded[g].unstable);
    EXPECT_EQ(hex(groups[g].digest.value()), hex(recorded[g].digest));
  }
}

// Whether two evaluations fold to the same digest: the stable flag and,
// as raw bits, every field fold() reads.
bool same_bits(const Evaluation& a, const Evaluation& b) {
  Digest da;
  Digest db;
  fold(da, a);
  fold(db, b);
  return da.value() == db.value();
}

TEST(EvaluationBits, TableAssemblesWhatWithServersCopiesEvaluate) {
  // A table bound to each model of the sweep, kept across its probe points
  // so that later points reuse earlier units, assembles every point at the
  // model's own servers and at a random fleet. Each must equal what the
  // model, or its with_servers copy, evaluates, in every field and in the
  // stable flag.
  Rng rng(19004);
  std::unique_ptr<TierTable> table;
  Evaluation from_table;
  int compared = 0;
  int mismatched = 0;
  int unstable = 0;
  const Reach reach = run_sweep([&](std::size_t, const ClusterModel& m,
                                    const std::vector<double>& f, const Evaluation& ev,
                                    std::size_t point) {
    if (point == 0) table = std::make_unique<TierTable>(m);
    std::vector<int> own;
    for (const Tier& t : m.tiers()) own.push_back(t.servers);
    table->evaluate(own, f, from_table);
    mismatched += same_bits(from_table, ev) ? 0 : 1;
    const std::vector<int> fleet = random_servers(m, rng);
    const Evaluation copy = m.with_servers(fleet).evaluate(f);
    table->evaluate(fleet, f, from_table);
    mismatched += same_bits(from_table, copy) ? 0 : 1;
    compared += 2;
    unstable += (ev.stable ? 0 : 1) + (copy.stable ? 0 : 1);
  });
  expect_full_reach(reach);
  EXPECT_EQ(compared, 2 * 120 * static_cast<int>(kNumGroups) * 7);
  EXPECT_GT(unstable, 0);
  EXPECT_LT(unstable, compared);
  EXPECT_EQ(mismatched, 0);
}

TEST(EvaluationBits, SameBitsSeesOneUlpOfOneWait) {
  // The comparison above tells apart evaluations whose units differ by one
  // ulp in one station's wait.
  const ClusterModel model = make_enterprise_model(0.7);
  const Evaluation ev = model.evaluate(model.max_frequencies());
  ASSERT_TRUE(ev.stable);
  Evaluation nudged = ev;
  double& wait = nudged.net.station_wait[2][1];
  wait = std::nextafter(wait, 1.0);
  EXPECT_TRUE(same_bits(ev, ev));
  EXPECT_FALSE(same_bits(ev, nudged));
}

// The marginal (dynamic-only) per-request energy of every stable
// evaluation, which validation compares with the simulator's.
TEST(EvaluationBits, MarginalEnergyMatchesRecordedDigests) {
  std::vector<Digest> digests(kNumGroups);
  const Reach reach = run_sweep([&digests](std::size_t g, const ClusterModel&,
                                           const std::vector<double>&, const Evaluation& ev,
                                           std::size_t) {
    if (ev.stable) digests[g].add(ev.energy.marginal_energy);
  });
  expect_full_reach(reach);

  // Recorded from a separate marginal-only energy pass on each
  // evaluation's network, before EnergyMetrics carried marginal_energy.
  const std::uint64_t recorded[] = {
      0xd7b9749d67e278c8ULL, 0x52179d365685f6ddULL, 0xd0834bfa973f78c6ULL,
      0x63406428220eaca9ULL, 0x27b1dd3c6d57b75fULL, 0xdbcfe326b8b1881eULL,
      0xfa642603f6943c0eULL,
  };
  ASSERT_EQ(std::size(recorded), kNumGroups);
  for (std::size_t g = 0; g < kNumGroups; ++g) {
    SCOPED_TRACE(kGroups[g]);
    EXPECT_EQ(hex(digests[g].value()), hex(recorded[g]));
  }
}

}  // namespace
}  // namespace cpm::core
