#include "cpm/bench/suites.hpp"

#include "bench/scenarios.hpp"
#include "cpm/common/error.hpp"
#include "cpm/core/cpm.hpp"
#include "cpm/online/estimator.hpp"
#include "cpm/online/scenario.hpp"
#include "cpm/online/timeline.hpp"
#include "cpm/sim/event_heap.hpp"

namespace cpm::bench {

namespace {

/// p1 — library micro/meso benchmarks: the simulator hot path, its event
/// heap, the analytic evaluator, the replication pool, one optimizer and
/// the JSON layer, emitted as the machine-diffable cpm-bench/v1 document
/// the CI gate consumes.
std::vector<BenchCase> p1_suite(const BenchOptions& options) {
  // Everything runs the shared enterprise scenario so numbers line up
  // with the E/A experiment binaries. Quick cases are sized to >= ~20 ms
  // each: shorter runs put scheduler jitter on shared runners at the
  // same magnitude as the regression tolerance and the CI gate flakes.
  const double sim_horizon = options.quick ? 3000.0 : 20000.0;
  const int heap_events = options.quick ? 150000 : 1000000;
  const int analytic_rounds = options.quick ? 2000 : 5000;
  const int replications = options.quick ? 64 : 16;
  const int optimizer_solves = options.quick ? 300 : 1000;
  const int json_rounds = options.quick ? 24 : 240;
  const std::uint64_t seed = validation_settings().seed;

  std::vector<BenchCase> cases;

  cases.push_back(BenchCase{
      "sim_event_throughput", [sim_horizon, seed](Recorder& rec) {
        const auto model = core::make_enterprise_model(0.7);
        const auto cfg =
            model.to_sim_config(model.max_frequencies(), 0.0, sim_horizon, seed);
        const auto r = sim::simulate(cfg);
        rec.count("events", static_cast<double>(r.events_fired));
      }});

  cases.push_back(BenchCase{
      "event_heap_push_pop", [heap_events](Recorder& rec) {
        sim::FourAryHeap<std::uint64_t> heap;
        Rng rng(7);
        for (int i = 0; i < heap_events; ++i) {
          const auto seq = static_cast<std::uint64_t>(i);
          heap.push(rng.uniform(0.0, 1.0e6), seq, seq);
        }
        std::uint64_t sum = 0;
        while (!heap.empty()) sum += heap.pop().payload;
        require(sum > 0, "event_heap_push_pop: degenerate result");
        rec.count("events", heap_events);
      }});

  cases.push_back(BenchCase{
      "analytic_evaluate", [analytic_rounds](Recorder& rec) {
        // Sweep the standard load points so evaluation cost covers light
        // and near-saturated regimes alike.
        const auto loads = load_sweep();
        std::vector<core::ClusterModel> models;
        for (double u : loads) models.push_back(core::make_enterprise_model(u));
        double sink = 0.0;
        for (int i = 0; i < analytic_rounds; ++i)
          for (const auto& m : models)
            sink += m.evaluate(m.max_frequencies()).net.mean_e2e_delay.value();
        require(sink > 0.0, "analytic_evaluate: degenerate result");
        rec.count("evals",
                  static_cast<double>(analytic_rounds) *
                      static_cast<double>(loads.size()));
      }});

  cases.push_back(BenchCase{
      "replication_throughput", [replications, seed](Recorder& rec) {
        const auto model = core::make_enterprise_model(0.7);
        auto cfg =
            model.to_sim_config(model.max_frequencies(), 10.0, 110.0, seed);
        sim::ReplicationOptions opt;
        opt.replications = replications;
        const auto r = sim::replicate(cfg, opt);
        rec.count("replications", replications);
        rec.count("events", static_cast<double>(r.total_events));
      }});

  cases.push_back(BenchCase{
      "optimizer_power_bound", [optimizer_solves](Recorder& rec) {
        const auto model = core::make_enterprise_model(0.7);
        const units::Seconds bound =
            2.0 * model.mean_delay_at(model.max_frequencies());
        for (int i = 0; i < optimizer_solves; ++i) {
          const auto r = core::minimize_power_with_delay_bound(model, bound);
          require(r.feasible, "optimizer_power_bound: infeasible");
        }
        rec.count("solves", optimizer_solves);
      }});

  // The cpm-online/v1 timeline of a fixed 1,000 s scenario (about 190 KB
  // pretty-printed, mostly non-integral numbers), built once here so the
  // case times only the JSON layer: the pretty dump `cpmctl online`
  // writes, its parse, and the compact dump that keys and checksums use.
  online::Scenario scenario;
  scenario.horizon = 1000.0;
  scenario.window = 10.0;
  scenario.seed = seed;
  const Json timeline =
      online::run_online(core::make_enterprise_model(0.7), scenario).timeline;
  cases.push_back(BenchCase{
      "json_roundtrip", [timeline, compact = timeline.dump(),
                         json_rounds](Recorder& rec) {
        double bytes = 0.0;
        for (int i = 0; i < json_rounds; ++i) {
          const std::string pretty = timeline.dump(2);
          const std::string again = Json::parse(pretty).dump();
          require(again == compact, "json_roundtrip: not a fixed point");
          bytes += static_cast<double>(2 * pretty.size() + again.size());
        }
        rec.count("bytes", bytes);
      }});

  return cases;
}

/// p2 — closed-loop controller overhead: what cpm::online adds on top of
/// the bare simulation. The interesting number is windows/sec in the
/// steady case (estimator + snapshot bookkeeping only, no re-plans) vs
/// the storm case (every-window re-optimisation: P-C sizing + discrete
/// P-E), bracketing the controller's per-window cost.
std::vector<BenchCase> p2_suite(const BenchOptions& options) {
  // Quick cases are sized to >= ~20 ms each, as in p1: CI gates them too.
  const double horizon = options.quick ? 2000.0 : 10000.0;
  const int estimator_samples = options.quick ? 5000000 : 10000000;
  const std::uint64_t seed = validation_settings().seed;

  auto scenario_for = [horizon, seed](double hysteresis) {
    online::Scenario s;
    s.horizon = horizon;
    s.window = 10.0;
    s.seed = seed;
    s.controller.hysteresis = hysteresis;
    s.controller.cooldown_windows = 0;
    s.controller.levels = 7;
    return s;
  };

  std::vector<BenchCase> cases;

  cases.push_back(BenchCase{
      "online_steady_loop", [scenario_for](Recorder& rec) {
        // Wide hysteresis: the loop observes every window but never
        // re-plans, so this times the pure management overhead.
        const auto model = core::make_enterprise_model(0.7);
        const auto r = online::run_online(model, scenario_for(10.0));
        require(r.reoptimizations == 0, "online_steady_loop: unexpected replan");
        rec.count("windows", static_cast<double>(r.windows.size()));
        rec.count("events", static_cast<double>(r.sim.events_fired));
      }});

  cases.push_back(BenchCase{
      "online_reopt_storm", [scenario_for](Recorder& rec) {
        // Zero-width band + zero cooldown: re-optimise (P-C + discrete
        // P-E) every window once the estimators warm up.
        const auto model = core::make_enterprise_model(0.7);
        const auto r = online::run_online(model, scenario_for(1e-9));
        require(r.reoptimizations > 0, "online_reopt_storm: no replans");
        rec.count("windows", static_cast<double>(r.windows.size()));
        rec.count("replans", static_cast<double>(r.reoptimizations));
      }});

  cases.push_back(BenchCase{
      "online_estimator", [estimator_samples](Recorder& rec) {
        online::WindowedEstimator est(0.3, 8);
        Rng rng(7);
        double sink = 0.0;
        for (int i = 0; i < estimator_samples; ++i) {
          est.observe(rng.uniform(0.0, 10.0));
          sink += est.ewma();
        }
        require(sink > 0.0, "online_estimator: degenerate result");
        rec.count("samples", estimator_samples);
      }});

  return cases;
}

}  // namespace

std::vector<std::string> suite_names() { return {"p1", "p2"}; }

std::vector<BenchCase> make_suite(const std::string& name,
                                  const BenchOptions& options) {
  if (name == "p1") return p1_suite(options);
  if (name == "p2") return p2_suite(options);
  throw Error("unknown bench suite '" + name + "'");
}

SuiteResult run_named_suite(const std::string& name,
                            const BenchOptions& options) {
  return run_suite(name, make_suite(name, options), options);
}

}  // namespace cpm::bench
