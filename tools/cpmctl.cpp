// cpmctl — command-line front end for the cpm library.
//
// Drives the paper's four capabilities against a cluster model described
// in JSON (schema: src/core/include/cpm/core/model_io.hpp):
//
//   cpmctl example-model                         write a starter model JSON
//   cpmctl describe       <model.json>           model summary
//   cpmctl evaluate       <model.json> [--freq f1,f2,..] [--p95]
//   cpmctl optimize-delay <model.json> --budget WATTS [--levels N]
//   cpmctl optimize-power <model.json> --bound SECONDS [--per-class b1,b2,..]
//                                      [--levels N]
//   cpmctl size           <model.json> [--max-servers N] [--greedy]
//   cpmctl simulate       <model.json> [--time T] [--warmup W|auto]
//                                      [--reps N] [--seed S]
//                                      [--journal FILE] [--resume]
//   cpmctl validate       <model.json> [--reps N]
//   cpmctl check          <model.json> [--reps N] [--seed S] [--random N]
//                                      [--analytic-only]
//   cpmctl lint           <model.json> [--format text|json|sarif]
//                                      [--error-on note|warning|error]
//                                      [--rule LIST] [--no-rule LIST]
//                                      [--warmup W --time T --reps N]
//   cpmctl lint --list-rules
//   cpmctl online         <model.json> --scenario <scenario.json>
//                                      [--seed S] [--out FILE] [--summary]
//   cpmctl certify        <model.json> [--box ranges.json] [--bisect-depth N]
//                                      [--max-boxes N] [--format text|json|sarif]
//                                      [--error-on note|warning|error]
//                                      [--rule LIST] [--no-rule LIST]
//                                      [--solution size|power ...]
//   cpmctl sweep run      <spec.json>  [--out FILE] [--cache DIR] [--no-cache]
//                                      [--shard K/N] [--threads N] [--audit]
//                                      [--salt S] [--journal FILE] [--resume]
//                                      [--fault-plan plan.json]
//   cpmctl sweep merge    <out.json> <shard.json>...
//   cpmctl sweep stat     [--cache DIR]
//
// Exit status taxonomy (pinned by ctests; see docs/resilience.md):
//   0  success
//   1  usage error
//   2  model/solver error (for `check`: any invariant violated)
//   3  `lint`/`certify`: diagnostics at or above the --error-on threshold
//   4  transient I/O failure persisted through the retry budget
//      (IoErrorKind::kTransient, e.g. injected EIO on every attempt)
//   5  permanent I/O failure (IoErrorKind::kPermanent: missing file,
//      EACCES, ENOSPC)
//   6  corrupt input (IoErrorKind::kCorrupt: unparseable JSON input,
//      resume journal from a different run)
//
// Every numeric flag goes through one checked conversion (Args): a value
// that is not a finite number, or for a count or seed not an integer in
// the flag's range, is a usage error (1) that names the flag.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cpm/bench/suites.hpp"
#include "cpm/certify/certificate.hpp"
#include "cpm/check/differential.hpp"
#include "cpm/common/fs.hpp"
#include "cpm/common/hash.hpp"
#include "cpm/core/cpm.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/lint/analyze.hpp"
#include "cpm/lint/render.hpp"
#include "cpm/online/timeline.hpp"
#include "cpm/resilience/fault_plan.hpp"
#include "cpm/resilience/faulting_fs.hpp"
#include "cpm/resilience/journal.hpp"
#include "cpm/resilience/retry.hpp"
#include "cpm/sim/warmup.hpp"
#include "cpm/sweep/runner.hpp"
#include "cpm/workload/trace.hpp"

namespace {

using namespace cpm;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage: cpmctl <command> [args]\n"
      "  example-model                         print a starter model JSON\n"
      "  describe       <model.json>\n"
      "  evaluate       <model.json> [--freq f1,f2,..] [--p95]\n"
      "  optimize-delay <model.json> --budget WATTS [--levels N]\n"
      "  optimize-power <model.json> --bound SECS [--per-class b1,..] [--levels N]\n"
      "  size           <model.json> [--max-servers N] [--greedy]\n"
      "  simulate       <model.json> [--time T] [--warmup W|auto] [--reps N] [--seed S]\n"
      "                 [--trace-class NAME --trace-file arrivals.csv]\n"
      "                 [--journal FILE] [--resume]\n"
      "  validate       <model.json> [--reps N]\n"
      "  check          <model.json> [--reps N] [--seed S] [--random N]\n"
      "                 [--analytic-only]\n"
      "  lint           <model.json> [--format text|json|sarif]\n"
      "                 [--error-on note|warning|error] [--rule LIST]\n"
      "                 [--no-rule LIST] [--warmup W --time T --reps N]\n"
      "  lint           --list-rules\n"
      "  online         <model.json> --scenario <scenario.json> [--seed S]\n"
      "                 [--out FILE] [--summary]\n"
      "  certify        <model.json> [--box ranges.json] [--bisect-depth N]\n"
      "                 [--max-boxes N] [--format text|json|sarif]\n"
      "                 [--error-on note|warning|error] [--rule LIST]\n"
      "                 [--no-rule LIST] [--solution size|power]\n"
      "                 [--max-servers N] [--greedy] [--bound SECS]\n"
      "  trace-stats    <arrivals.csv>\n"
      "  bench          [--suite NAME] [--quick] [--repeats N] [--warmup N]\n"
      "                 [--out FILE] [--list]\n"
      "  sweep run      <spec.json> [--out FILE] [--cache DIR] [--no-cache]\n"
      "                 [--shard K/N] [--threads N] [--audit] [--salt S]\n"
      "                 [--journal FILE] [--resume] [--fault-plan plan.json]\n"
      "  sweep merge    <out.json> <shard.json>...\n"
      "  sweep stat     [--cache DIR]\n";
  std::exit(1);
}

std::string read_file(const std::string& path) {
  return real_filesystem().read(path);
}

/// Parses a top-level JSON input file. A file that reads fine but fails
/// to parse is classified kCorrupt (exit 6), distinct from the
/// kPermanent failure of a missing/unreadable file (exit 5).
Json parse_json_file(const std::string& path) {
  const std::string text = read_file(path);
  try {
    return Json::parse(text);
  } catch (const Error& e) {
    throw IoError(IoErrorKind::kCorrupt,
                  "corrupt input '" + path + "': " + e.what());
  }
}

/// All cpmctl artifact publishes go through the I/O seam: atomic
/// tmp-then-rename write with bounded-backoff retry on transient errors.
void write_text_file(const std::string& path, const std::string& text) {
  resilience::with_retry(resilience::RetryPolicy{}, "write '" + path + "'",
                         [&] { real_filesystem().write_atomic(path, text); });
}

/// `text`, given for `flag`, as a finite number; anything else is a usage
/// error naming the flag.
double parse_number(const std::string& flag, const std::string& text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto r = std::from_chars(text.data(), end, v);
  if (r.ec != std::errc() || r.ptr != end || !std::isfinite(v))
    usage(flag + " needs a number, not '" + text + "'");
  return v;
}

std::vector<double> parse_csv_doubles(const std::string& flag, const std::string& text) {
  std::vector<double> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    out.push_back(parse_number(flag, item));
  }
  return out;
}

/// Tiny flag scanner: --name value pairs plus bare flags.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) tokens_.emplace_back(argv[i]);
  }

  [[nodiscard]] std::optional<std::string> value(const std::string& flag) const {
    for (std::size_t i = 0; i + 1 < tokens_.size(); ++i)
      if (tokens_[i] == flag) return tokens_[i + 1];
    return std::nullopt;
  }

  [[nodiscard]] bool has(const std::string& flag) const {
    for (const auto& t : tokens_)
      if (t == flag) return true;
    return false;
  }

  [[nodiscard]] double number(const std::string& flag, double fallback) const {
    const auto v = value(flag);
    return v ? parse_number(flag, *v) : fallback;
  }

  /// The flag's value as an integer in [lo, hi], or `fallback` when the
  /// flag is absent. The range check is Json::as_integer's, which model and
  /// sweep documents pass the same counts and seeds through.
  template <class T>
  [[nodiscard]] T integer(const std::string& flag, T fallback, T lo,
                          T hi = std::numeric_limits<T>::max()) const {
    const auto v = value(flag);
    if (!v) return fallback;
    try {
      return Json(parse_number(flag, *v)).as_integer(lo, hi);
    } catch (const Error&) {
      usage(flag + " needs an integer in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], not '" + *v + "'");
    }
  }

 private:
  std::vector<std::string> tokens_;
};

core::ClusterModel load_model(const std::string& path) {
  return core::model_from_json(parse_json_file(path));
}

std::vector<double> frequencies_for(const core::ClusterModel& model,
                                    const Args& args) {
  const auto flag = args.value("--freq");
  if (!flag) return model.max_frequencies();
  auto f = parse_csv_doubles("--freq", *flag);
  if (f.size() != model.num_tiers())
    throw Error("--freq needs one value per tier (" +
                std::to_string(model.num_tiers()) + ")");
  return f;
}

void print_frequencies(const std::vector<double>& f) {
  std::cout << "frequencies:";
  for (double fi : f) std::cout << ' ' << format_double(fi, 3);
  std::cout << '\n';
}

int cmd_example_model() {
  const auto model = core::make_enterprise_model(0.6);
  std::cout << core::model_to_json(model).dump(2) << '\n';
  return 0;
}

int cmd_describe(const std::string& path) {
  const auto model = load_model(path);
  print_banner(std::cout, "tiers");
  Table tiers({"tier", "servers", "discipline", "cost", "idle W", "busy W",
               "alpha", "DVFS"});
  for (const auto& t : model.tiers()) {
    tiers.row()
        .add(t.name)
        .add(t.servers)
        .add(queueing::discipline_name(t.discipline))
        .add(t.server_cost, 2)
        .add(t.power.idle_power().value(), 1)
        .add((t.power.idle_power() + t.power.dynamic_power(t.power.dvfs().f_base))
                 .value(),
             1)
        .add(t.power.alpha(), 1);
    std::string dvfs_range = "[";
    dvfs_range += format_double(t.power.dvfs().f_min.value(), 2);
    dvfs_range += ", ";
    dvfs_range += format_double(t.power.dvfs().f_max.value(), 2);
    dvfs_range += "]";
    tiers.add(dvfs_range);
  }
  tiers.print(std::cout);

  print_banner(std::cout, "classes (priority order)");
  Table classes({"class", "rate", "SLA mean delay", "route"});
  for (const auto& c : model.classes()) {
    std::string route;
    for (const auto& d : c.route) {
      if (!route.empty()) route += " -> ";
      route += model.tiers()[static_cast<std::size_t>(d.tier)].name;
    }
    classes.row()
        .add(c.name)
        .add(c.rate.value(), 3)
        .add(c.sla.mean_bounded() ? format_double(c.sla.max_mean_e2e_delay.value(), 3) : "-")
        .add(route);
  }
  classes.print(std::cout);
  return 0;
}

int cmd_evaluate(const std::string& path, const Args& args) {
  const auto model = load_model(path);
  const auto f = frequencies_for(model, args);
  const auto ev = model.evaluate(f);
  if (!ev.stable) {
    std::cerr << "model is UNSTABLE at these frequencies\n";
    return 2;
  }
  print_frequencies(f);
  const bool p95 = args.has("--p95");
  std::vector<std::string> headers = {"class", "E2E delay s", "energy/req J"};
  if (p95) headers.insert(headers.begin() + 2, "p95 delay s");
  Table t(std::move(headers));
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    t.row().add(model.classes()[k].name).add(ev.net.e2e_delay[k].value());
    if (p95) t.add(queueing::percentile_e2e_delay(ev.net, k, 0.95).value());
    t.add(ev.energy.per_request_energy[k].value(), 2);
  }
  t.print(std::cout);
  std::cout << "mean E2E delay: " << format_double(ev.net.mean_e2e_delay.value())
            << " s\ncluster power:  " << format_double(ev.energy.cluster_avg_power.value(), 1)
            << " W\n";
  Table u({"tier", "utilization"});
  for (std::size_t s = 0; s < model.num_tiers(); ++s)
    u.row().add(model.tiers()[s].name).add(ev.net.station_utilization[s]);
  u.print(std::cout);
  return 0;
}

int cmd_optimize_delay(const std::string& path, const Args& args) {
  const auto model = load_model(path);
  const auto budget = args.value("--budget");
  if (!budget) usage("optimize-delay requires --budget WATTS");
  const double watts = parse_number("--budget", *budget);
  const auto r = core::minimize_delay_with_power_budget(model, units::watts(watts),
                                                        args.integer("--levels", 0, 0));
  if (!r.feasible) {
    std::cerr << "infeasible: no stable operating point fits " << watts << " W\n";
    return 2;
  }
  print_frequencies(r.frequencies);
  std::cout << "mean E2E delay: " << format_double(r.mean_delay.value()) << " s\n"
            << "cluster power:  " << format_double(r.power.value(), 1) << " W (budget "
            << format_double(watts, 1) << ")\n";
  return 0;
}

int cmd_optimize_power(const std::string& path, const Args& args) {
  const auto model = load_model(path);
  const int levels = args.integer("--levels", 0, 0);
  core::FrequencyOptResult r;
  if (const auto per_class = args.value("--per-class")) {
    const auto raw_bounds = parse_csv_doubles("--per-class", *per_class);
    if (raw_bounds.size() != model.num_classes())
      throw Error("--per-class needs one bound per class");
    std::vector<units::Seconds> bounds;
    for (double b : raw_bounds) bounds.push_back(units::seconds(b));
    r = core::minimize_power_with_class_delay_bounds(model, bounds, levels);
  } else {
    const auto bound = args.value("--bound");
    if (!bound) usage("optimize-power requires --bound SECONDS (or --per-class)");
    const double secs = parse_number("--bound", *bound);
    r = core::minimize_power_with_delay_bound(model, units::seconds(secs), levels);
  }
  if (!r.feasible) {
    std::cerr << "infeasible: the delay bound cannot be met even at f_max\n";
    return 2;
  }
  print_frequencies(r.frequencies);
  std::cout << "cluster power:  " << format_double(r.power.value(), 1) << " W\n"
            << "mean E2E delay: " << format_double(r.mean_delay.value()) << " s\n";
  for (std::size_t k = 0; k < model.num_classes(); ++k)
    std::cout << "  " << model.classes()[k].name << ": "
              << format_double(r.evaluation.net.e2e_delay[k].value()) << " s\n";
  return 0;
}

int cmd_size(const std::string& path, const Args& args) {
  const auto model = load_model(path);
  core::CostOptOptions opts;
  opts.max_servers_per_tier = args.integer("--max-servers", 24, 1);
  opts.greedy_only = args.has("--greedy");
  const auto r = core::minimize_cost_for_slas(model, opts);
  if (!r.feasible) {
    std::cerr << "infeasible: SLAs unreachable with <= " << opts.max_servers_per_tier
              << " servers per tier\n";
    return 2;
  }
  Table t({"tier", "servers", "unit cost", "cost"});
  for (std::size_t i = 0; i < model.num_tiers(); ++i) {
    t.row()
        .add(model.tiers()[i].name)
        .add(r.servers[i])
        .add(model.tiers()[i].server_cost, 2)
        .add(model.tiers()[i].server_cost * r.servers[i], 2);
  }
  t.print(std::cout);
  std::cout << "total cost: " << format_double(r.total_cost, 2) << "  ("
            << r.nodes_explored << " feasibility probes)\n";
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto& c = model.classes()[k];
    std::cout << "  " << c.name << ": delay "
              << format_double(r.evaluation.net.e2e_delay[k].value()) << " s"
              << (c.sla.mean_bounded()
                      ? " (SLA " + format_double(c.sla.max_mean_e2e_delay.value(), 3) + ")"
                      : "")
              << '\n';
  }
  return 0;
}

/// RepSummary <-> journal JSON. Doubles are dumped with full precision
/// (%.17g) so a restored summary is bit-identical to the one simulated.
Json summary_to_json(const sim::RepSummary& s) {
  JsonObject o;
  JsonArray classes;
  for (const auto& c : s.classes) {
    JsonObject cj;
    cj["mean_delay"] = c.mean_e2e_delay.value();
    cj["p95_delay"] = c.p95_e2e_delay.value();
    cj["mean_energy"] = c.mean_e2e_energy.value();
    cj["blocking"] = c.blocking_probability;
    cj["completed"] = static_cast<double>(c.completed);
    cj["blocked"] = static_cast<double>(c.blocked);
    classes.emplace_back(std::move(cj));
  }
  o["classes"] = Json(std::move(classes));
  o["mean_delay"] = s.mean_e2e_delay.value();
  o["power"] = s.cluster_avg_power.value();
  JsonArray util;
  for (double u : s.station_utilization) util.emplace_back(u);
  o["utilization"] = Json(std::move(util));
  o["events"] = static_cast<double>(s.events_fired);
  return Json(std::move(o));
}

sim::RepSummary summary_from_json(const Json& j) {
  sim::RepSummary s;
  for (const auto& cj : j.at("classes").as_array()) {
    sim::RepClassSummary c;
    c.mean_e2e_delay = units::seconds(cj.at("mean_delay").as_number());
    c.p95_e2e_delay = units::seconds(cj.at("p95_delay").as_number());
    c.mean_e2e_energy = units::joules(cj.at("mean_energy").as_number());
    c.blocking_probability = cj.at("blocking").as_number();
    c.completed = cj.at("completed").as_integer<std::uint64_t>(0);
    c.blocked = cj.at("blocked").as_integer<std::uint64_t>(0);
    s.classes.push_back(c);
  }
  s.mean_e2e_delay = units::seconds(j.at("mean_delay").as_number());
  s.cluster_avg_power = units::watts(j.at("power").as_number());
  for (const auto& u : j.at("utilization").as_array())
    s.station_utilization.push_back(u.as_number());
  s.events_fired = j.at("events").as_integer<std::uint64_t>(0);
  return s;
}

int cmd_simulate(const std::string& path, const Args& args) {
  const auto model = load_model(path);
  const auto f = frequencies_for(model, args);
  const double end_time = args.number("--time", 1000.0);
  const auto seed = args.integer<std::uint64_t>("--seed", 20110516, 0);
  const int reps = args.integer("--reps", 8, 2);

  const auto warmup_flag = args.value("--warmup");
  double warmup = end_time * 0.1;
  if (warmup_flag && *warmup_flag != "auto") warmup = parse_number("--warmup", *warmup_flag);
  if (warmup_flag && *warmup_flag == "auto") {
    const auto pilot = model.to_sim_config(f, 0.0, end_time, seed);
    const auto est = sim::pilot_warmup(pilot);
    warmup = est.warmup_time;
    std::cout << "MSER-5 pilot: warm-up " << format_double(warmup, 2) << " (deleted "
              << est.deleted_jobs << "/" << est.total_jobs << " completions)\n";
  }

  sim::ReplicationOptions rep;
  rep.replications = reps;
  auto cfg = model.to_sim_config(f, warmup, warmup + end_time, seed);

  // Optional exact trace replay for one class.
  std::string trace_sum;
  std::string trace_cls;
  if (const auto trace_class = args.value("--trace-class")) {
    const auto trace_file = args.value("--trace-file");
    if (!trace_file) usage("--trace-class requires --trace-file");
    const std::string trace_text = read_file(*trace_file);
    const auto trace = workload::ArrivalTrace::parse_csv(trace_text);
    bool found = false;
    for (auto& cls : cfg.classes) {
      if (cls.name != *trace_class) continue;
      cls.arrival_times = trace.timestamps();
      cls.rate = units::per_second(0.0);
      found = true;
    }
    if (!found) throw Error("no class named '" + *trace_class + "'");
    trace_cls = *trace_class;
    trace_sum = sha256_hex(trace_text);
    // A trace is one sample path: replications would all replay it
    // identically on the arrival side, so run service-side variation only.
    std::cout << "replaying " << trace.stats().count << " arrivals from "
              << *trace_file << " for class " << *trace_class << '\n';
  }

  // Crash-safe resume: each finished replication's summary is appended
  // to the checksummed run journal; --resume replays the survivor and
  // skips the replications already on disk. The aggregate over restored
  // summaries is bit-identical to the uninterrupted run's.
  const auto journal_flag = args.value("--journal");
  const bool resume = args.has("--resume");
  if (resume && !journal_flag)
    usage("simulate --resume requires --journal FILE");
  std::unique_ptr<resilience::RunJournal> journal;
  std::vector<std::optional<sim::RepSummary>> restored(
      static_cast<std::size_t>(reps));
  if (journal_flag) {
    JsonObject fp;
    fp["model"] = core::model_to_json(model);
    JsonArray freqs;
    for (double fi : f) freqs.emplace_back(fi);
    fp["frequencies"] = Json(std::move(freqs));
    fp["time"] = end_time;
    fp["warmup"] = warmup;
    fp["seed"] = static_cast<double>(seed);
    fp["reps"] = static_cast<double>(reps);
    if (!trace_cls.empty()) {
      fp["trace_class"] = trace_cls;
      fp["trace_sum"] = trace_sum;
    }
    const std::string config_sum = sha256_hex(Json(std::move(fp)).dump());

    journal = std::make_unique<resilience::RunJournal>(real_filesystem(),
                                                       *journal_flag);
    JsonObject hdr;
    hdr["schema"] = "cpm-journal/v1";
    hdr["kind"] = "replicate";
    hdr["config"] = config_sum;
    hdr["reps"] = static_cast<double>(reps);
    const auto replay = journal->resume_or_begin(Json(std::move(hdr)), resume,
                                                 "simulate resume");
    for (const auto& recj : replay.records) {
      try {
        const auto i = recj.at("rep").as_integer<std::size_t>(0);
        if (i < restored.size())
          restored[i] = summary_from_json(recj.at("summary"));
      } catch (const Error&) {
        continue;  // a record that does not convert: its replication reruns
      }
    }
    rep.restore = [&restored](std::size_t i, sim::RepSummary& out) {
      if (i < restored.size() && restored[i]) {
        out = *restored[i];
        return true;
      }
      return false;
    };
    rep.checkpoint = [&journal](std::size_t i, const sim::RepSummary& s) {
      JsonObject recj;
      recj["rep"] = static_cast<double>(i);
      recj["summary"] = summary_to_json(s);
      journal->append(Json(std::move(recj)));
    };
  }

  const auto r = sim::replicate(cfg, rep);

  Table t({"class", "mean delay s", "+-CI", "p95 s", "energy J", "completed"});
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    t.row()
        .add(model.classes()[k].name)
        .add(r.classes[k].mean_e2e_delay.mean)
        .add(r.classes[k].mean_e2e_delay.half_width)
        .add(r.classes[k].p95_e2e_delay.mean)
        .add(r.classes[k].mean_e2e_energy.mean, 2)
        .add(static_cast<std::size_t>(r.classes[k].total_completed));
  }
  t.print(std::cout);
  std::cout << "mean E2E delay: " << format_double(r.mean_e2e_delay.mean) << " +- "
            << format_double(r.mean_e2e_delay.half_width) << " s\n"
            << "cluster power:  " << format_double(r.cluster_avg_power.mean, 1)
            << " +- " << format_double(r.cluster_avg_power.half_width, 1) << " W\n"
            << "(" << reps << " replications, " << r.total_events << " events";
  if (r.restored > 0)
    std::cout << ", " << r.restored << " restored from journal";
  std::cout << ")\n";
  return 0;
}

int cmd_validate(const std::string& path, const Args& args) {
  const auto model = load_model(path);
  core::SimSettings settings;
  settings.replications = args.integer("--reps", 8, 2);
  const auto report =
      core::validate_model(model, model.max_frequencies(), settings);
  Table t({"metric", "analytic", "simulated", "+-CI", "err %", "in CI"});
  for (const auto& row : report.rows) {
    t.row()
        .add(row.metric)
        .add(row.analytic)
        .add(row.simulated)
        .add(row.ci_half_width)
        .add(row.error_pct, 2)
        .add(row.within_ci ? "yes" : "no");
  }
  t.print(std::cout);
  std::cout << "worst error: " << format_double(report.max_error_pct, 2) << "%\n";
  return 0;
}

int cmd_check(const std::string& path, const Args& args) {
  const auto model = load_model(path);
  const auto frequencies = model.max_frequencies();

  check::Report report = check::check_analytic(model, frequencies);
  report.merge(check::check_reductions());
  if (!args.has("--analytic-only")) {
    core::SimSettings settings;
    settings.replications = args.integer("--reps", 8, 2);
    settings.seed = args.integer<std::uint64_t>("--seed", 20110516, 0);
    report.merge(check::cross_validate(model, frequencies, settings));
  }
  const int random_models = args.integer("--random", 0, 0);
  if (random_models > 0) {
    const auto seed = args.integer<std::uint64_t>("--seed", 20110516, 0);
    report.merge(check::sweep_random_models(seed, random_models));
  }

  const auto sci = [](double x) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2e", x);
    return std::string(buf);
  };
  Table t({"invariant", "status", "worst violation", "tolerance", "detail"});
  for (const auto& c : report.checks()) {
    t.row()
        .add(c.invariant)
        .add(c.passed ? "ok" : "VIOLATED")
        .add(sci(c.worst_violation))
        .add(sci(c.tolerance))
        .add(c.detail);
  }
  t.print(std::cout);
  std::cout << (report.all_passed() ? "all invariants hold\n"
                                    : "INVARIANT VIOLATION\n");
  return report.all_passed() ? 0 : 2;
}

std::vector<std::string> parse_csv_strings(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int cmd_online(const std::string& path, const Args& args) {
  const auto scenario_path = args.value("--scenario");
  if (!scenario_path) usage("online requires --scenario <scenario.json>");
  const auto model = load_model(path);
  auto scenario = online::scenario_from_json(parse_json_file(*scenario_path));
  scenario.seed = args.integer<std::uint64_t>("--seed", scenario.seed, 0);

  const auto result = online::run_online(model, scenario);
  const std::string doc = result.timeline.dump(2);
  if (const auto out = args.value("--out")) {
    write_text_file(*out, doc + "\n");
  } else {
    std::cout << doc << '\n';
  }

  if (args.has("--summary")) {
    std::cerr << "windows: " << result.windows.size()
              << "  reoptimizations: " << result.reoptimizations
              << "  switching cost: " << result.switching_cost_joules.value()
              << " J\n";
    for (std::size_t k = 0; k < model.num_classes(); ++k) {
      const auto& c = result.sim.classes[k];
      std::cerr << "  " << model.classes()[k].name
                << ": completed " << c.completed << ", blocked " << c.blocked
                << ", mean delay " << c.mean_e2e_delay.value() << " s\n";
    }
  }
  return 0;
}

int cmd_lint_list_rules() {
  Table t({"id", "name", "severity", "description"});
  for (const auto& r : lint::rules())
    t.row().add(r.id).add(r.name).add(lint::severity_name(r.severity)).add(
        r.description);
  t.print(std::cout);
  return 0;
}

int cmd_lint(const std::string& path, const Args& args) {
  lint::RuleSet rules;
  if (const auto only = args.value("--rule"))
    rules = lint::RuleSet::only(parse_csv_strings(*only));
  if (const auto off = args.value("--no-rule"))
    for (const auto& id : parse_csv_strings(*off)) rules.disable(id);

  lint::LintReport report = lint::lint_text(read_file(path), rules);

  // Settings-scope rules run when the caller describes the run it plans
  // (the same flags `simulate` takes).
  if (args.value("--warmup") || args.value("--time") || args.value("--reps")) {
    core::SimSettings settings;
    settings.warmup_time = args.number("--warmup", settings.warmup_time);
    settings.end_time = args.number("--time", settings.end_time);
    settings.replications = args.integer("--reps", settings.replications, 0);
    report.merge(lint::lint_sim_settings(settings, rules));
  }

  const lint::Severity threshold =
      lint::severity_from_name(args.value("--error-on").value_or("error"));
  const std::string format = args.value("--format").value_or("text");
  if (format == "text")
    std::cout << lint::render_text(report, path);
  else if (format == "json")
    std::cout << lint::render_json(report, path).dump(2) << '\n';
  else if (format == "sarif")
    std::cout << lint::render_sarif(report, path).dump(2) << '\n';
  else
    usage("unknown lint format '" + format + "' (expected text | json | sarif)");

  return report.count_at_least(threshold) > 0 ? 3 : 0;
}

int cmd_certify(const std::string& path, const Args& args) {
  const Json doc = parse_json_file(path);
  const auto model = core::model_from_json(doc);

  // Box precedence: --box file, then the model's embedded "certify" block
  // (the same convention lint uses for its "lint" suppression block), then
  // the degenerate nominal box.
  certify::BoxSpec box;
  if (const auto box_path = args.value("--box"))
    box = certify::box_from_json(model, parse_json_file(*box_path));
  else if (doc.contains("certify"))
    box = certify::box_from_json(model, doc.at("certify"));
  else
    box = certify::default_box(model);

  certify::CertifyOptions options;
  options.bisect_depth = args.integer("--bisect-depth", options.bisect_depth, 0);
  options.max_boxes = args.integer("--max-boxes", options.max_boxes, 0);
  if (const auto only = args.value("--rule"))
    options.rules = lint::RuleSet::only(parse_csv_strings(*only));
  if (const auto off = args.value("--no-rule"))
    for (const auto& id : parse_csv_strings(*off)) options.rules.disable(id);

  const lint::Severity threshold =
      lint::severity_from_name(args.value("--error-on").value_or("error"));
  const std::string format = args.value("--format").value_or("text");

  // Certificate mode: re-run an optimizer, then statically certify its
  // output over the box instead of the model as declared.
  if (const auto solution = args.value("--solution")) {
    certify::Certificate cert;
    if (*solution == "size") {
      core::CostOptOptions opts;
      opts.max_servers_per_tier = args.integer("--max-servers", 24, 1);
      opts.greedy_only = args.has("--greedy");
      const auto r = core::minimize_cost_for_slas(model, opts);
      cert = certify::certify_cost_solution(model, r, box, options);
    } else if (*solution == "power") {
      const auto bound = args.value("--bound");
      if (!bound) usage("certify --solution power requires --bound SECONDS");
      const auto r =
          core::minimize_power_with_delay_bound(model,
                                                units::seconds(parse_number("--bound", *bound)));
      cert = certify::certify_frequency_solution(model, r, box, options);
    } else {
      usage("unknown --solution '" + *solution + "' (expected size | power)");
    }

    if (format == "text") {
      std::cout << certify::render_certify_text(cert.report, path)
                << (cert.certified ? "solution CERTIFIED over the box\n"
                                   : "solution NOT CERTIFIED\n");
    } else if (format == "json") {
      std::cout << certify::certificate_to_json(cert, model, box).dump(2)
                << '\n';
    } else if (format == "sarif") {
      std::cout << lint::render_sarif(cert.report.diagnostics, path).dump(2)
                << '\n';
    } else {
      usage("unknown certify format '" + format +
            "' (expected text | json | sarif)");
    }
    return cert.report.diagnostics.count_at_least(threshold) > 0 ? 3 : 0;
  }

  const certify::CertifyReport report = certify::certify_model(model, box, options);
  if (format == "text")
    std::cout << certify::render_certify_text(report, path);
  else if (format == "json")
    std::cout << certify::render_certify_json(report, path, box, model).dump(2)
              << '\n';
  else if (format == "sarif")
    std::cout << lint::render_sarif(report.diagnostics, path).dump(2) << '\n';
  else
    usage("unknown certify format '" + format +
          "' (expected text | json | sarif)");

  return report.diagnostics.count_at_least(threshold) > 0 ? 3 : 0;
}

int cmd_bench(const Args& args) {
  if (args.has("--list")) {
    for (const auto& name : bench::suite_names()) std::cout << name << '\n';
    return 0;
  }
  const std::string suite = args.value("--suite").value_or("p1");
  bench::BenchOptions opt;
  opt.quick = args.has("--quick");
  if (opt.quick) opt.repeats = 3;  // CI smoke default; --repeats overrides
  opt.repeats = args.integer("--repeats", opt.repeats, 1);
  opt.warmup = args.integer("--warmup", opt.warmup, 0);
  const std::string out_path =
      args.value("--out").value_or("BENCH_" + suite + ".json");

  const auto result = bench::run_named_suite(suite, opt);

  Table t({"case", "wall s (median)", "IQR", "rates (median)"});
  for (const auto& c : result.cases) {
    std::string rates;
    for (const auto& [name, stats] : c.rates) {
      if (!rates.empty()) rates += "  ";
      rates += name + "=" + format_double(stats.median, 0);
    }
    t.row()
        .add(c.name)
        .add(c.wall_seconds.median, 4)
        .add(c.wall_seconds.iqr, 4)
        .add(rates);
  }
  t.print(std::cout);
  std::cout << "peak RSS: " << result.peak_rss_bytes / (1024 * 1024) << " MiB  ("
            << opt.repeats << " repeats, " << opt.warmup << " warmup"
            << (opt.quick ? ", quick" : "") << ")\n";

  write_text_file(out_path, bench::to_json(result).dump(2) + "\n");
  std::cout << "wrote " << out_path << '\n';
  return 0;
}

std::string dir_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

sweep::CacheOptions sweep_cache_options(const Args& args) {
  sweep::CacheOptions cache;
  if (const auto dir = args.value("--cache")) cache.directory = *dir;
  if (const auto salt = args.value("--salt")) cache.engine_salt = *salt;
  if (args.has("--no-cache")) cache.enabled = false;
  return cache;
}

int cmd_sweep_run(const std::string& spec_path, const Args& args) {
  auto spec = sweep::spec_from_json_text(read_file(spec_path), dir_of(spec_path));
  if (args.has("--audit")) {
    // The audit flag participates in the cache key: audited and
    // unaudited results differ, so they must not share entries.
    JsonObject pipeline = spec.pipeline.as_object();
    pipeline["audit"] = Json(true);
    spec.pipeline = Json(std::move(pipeline));
  }

  sweep::RunOptions options;
  options.cache = sweep_cache_options(args);
  options.threads = args.integer("--threads", 0U, 0U);
  if (const auto shard = args.value("--shard"))
    options.shard = sweep::shard_from_string(*shard);

  std::string out_path;
  if (const auto out = args.value("--out")) {
    out_path = *out;
  } else {
    out_path = "SWEEP_" + spec.name;
    if (options.shard.count > 1)
      out_path += ".shard-" + std::to_string(options.shard.index) + "-of-" +
                  std::to_string(options.shard.count);
    out_path += ".json";
  }

  // Fault injection: wrap the real filesystem so cache and journal
  // traffic flows through a deterministic FaultingFileSystem (drives the
  // chaos harness and the negative-path exit-code ctests).
  std::unique_ptr<resilience::FaultingFileSystem> faulting;
  if (const auto plan_path = args.value("--fault-plan")) {
    const auto plan =
        resilience::fault_plan_from_json(parse_json_file(*plan_path));
    faulting = std::make_unique<resilience::FaultingFileSystem>(
        real_filesystem(), plan);
    options.cache.fs = faulting.get();
  }

  if (const auto j = args.value("--journal"))
    options.journal_path = *j;
  else if (args.has("--resume"))
    options.journal_path = out_path + ".journal";
  options.resume = args.has("--resume");

  const auto r = sweep::run_sweep(spec, options);

  write_text_file(out_path, r.document.dump(2) + "\n");
  write_text_file(out_path + ".stats.json",
                  sweep::stats_to_json(r.stats).dump(2) + "\n");

  const double hit_pct =
      r.stats.shard_points == 0
          ? 0.0
          : 100.0 * static_cast<double>(r.stats.cache_hits) /
                static_cast<double>(r.stats.shard_points);
  std::cout << "sweep " << spec.name << ": " << r.stats.total_points
            << " points";
  if (options.shard.count > 1)
    std::cout << " (shard " << options.shard.index << "/"
              << options.shard.count << ": " << r.stats.shard_points
              << " owned)";
  std::cout << ", " << r.stats.computed << " computed, " << r.stats.cache_hits
            << " cached (" << format_double(hit_pct, 1) << "% hit rate), "
            << format_double(r.stats.wall_seconds, 2) << " s, "
            << r.stats.threads_used << " thread(s)\n";
  if (!options.journal_path.empty())
    std::cout << "journal " << options.journal_path << ": " << r.stats.restored
              << " restored, " << r.stats.journal_dropped
              << " dropped line(s)\n";
  if (faulting != nullptr)
    std::cout << "fault plan: " << faulting->injected() << " fault(s) injected\n";
  std::cout << "wrote " << out_path << " and " << out_path << ".stats.json\n";
  return 0;
}

int cmd_sweep_merge(int argc, char** argv) {
  if (argc < 5) usage("sweep merge needs <out.json> and >= 1 shard document");
  const std::string out_path = argv[3];
  std::vector<Json> shards;
  for (int i = 4; i < argc; ++i) shards.push_back(parse_json_file(argv[i]));
  const Json merged = sweep::merge_shards(shards);
  write_text_file(out_path, merged.dump(2) + "\n");
  std::cout << "merged " << shards.size() << " shard(s), "
            << merged.at("points").size() << " points -> " << out_path << '\n';
  return 0;
}

int cmd_sweep_stat(const Args& args) {
  const sweep::ResultCache cache(sweep_cache_options(args));
  const auto stats = cache.stat();
  std::cout << "cache " << cache.options().directory << ": " << stats.entries
            << " entries, " << stats.bytes / 1024 << " KiB\n";
  if (stats.entries == 0) return 0;
  Table t({"pipeline", "entries"});
  for (const auto& [kind, n] : stats.by_pipeline)
    t.row().add(kind).add(n);
  t.print(std::cout);
  Table e({"engine salt", "entries"});
  for (const auto& [salt, n] : stats.by_engine) e.row().add(salt).add(n);
  e.print(std::cout);
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  if (argc < 3) usage("sweep needs a subcommand: run | merge | stat");
  const std::string sub = argv[2];
  if (sub == "run") {
    if (argc < 4) usage("sweep run needs a spec file");
    return cmd_sweep_run(argv[3], Args(argc, argv, 4));
  }
  if (sub == "merge") return cmd_sweep_merge(argc, argv);
  if (sub == "stat") return cmd_sweep_stat(Args(argc, argv, 3));
  usage("unknown sweep subcommand '" + sub + "' (expected run | merge | stat)");
}

int cmd_trace_stats(const std::string& path) {
  const auto trace = workload::ArrivalTrace::parse_csv(read_file(path));
  const auto s = trace.stats();
  Table t({"metric", "value"});
  t.row().add("arrivals").add(s.count);
  t.row().add("duration").add(s.duration);
  t.row().add("mean rate /s").add(s.mean_rate.value());
  t.row().add("interarrival SCV").add(s.interarrival_scv);
  t.row().add("peak/mean (100 bins)").add(s.peak_to_mean);
  t.print(std::cout);
  if (s.interarrival_scv > 1.5)
    std::cout << "note: SCV >> 1 - this trace is bursty; Poisson-based\n"
                 "analytic results will be optimistic, prefer exact replay.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "example-model") return cmd_example_model();
    if (cmd == "bench") return cmd_bench(Args(argc, argv, 2));
    if (cmd == "trace-stats") {
      if (argc < 3) usage("trace-stats needs a CSV file");
      return cmd_trace_stats(argv[2]);
    }
    if (cmd == "lint" && argc >= 3 && std::string(argv[2]) == "--list-rules")
      return cmd_lint_list_rules();
    if (cmd == "sweep") return cmd_sweep(argc, argv);
    if (argc < 3) usage("command '" + cmd + "' needs a model file");
    const std::string path = argv[2];
    const Args args(argc, argv, 3);
    if (cmd == "lint") return cmd_lint(path, args);
    if (cmd == "certify") return cmd_certify(path, args);
    if (cmd == "describe") return cmd_describe(path);
    if (cmd == "evaluate") return cmd_evaluate(path, args);
    if (cmd == "optimize-delay") return cmd_optimize_delay(path, args);
    if (cmd == "optimize-power") return cmd_optimize_power(path, args);
    if (cmd == "size") return cmd_size(path, args);
    if (cmd == "simulate") return cmd_simulate(path, args);
    if (cmd == "validate") return cmd_validate(path, args);
    if (cmd == "check") return cmd_check(path, args);
    if (cmd == "online") return cmd_online(path, args);
    usage("unknown command '" + cmd + "'");
  } catch (const cpm::IoError& e) {
    std::cerr << "error: " << e.what() << '\n';
    switch (e.kind()) {
      case cpm::IoErrorKind::kTransient:
        return 4;
      case cpm::IoErrorKind::kPermanent:
        return 5;
      case cpm::IoErrorKind::kCorrupt:
        return 6;
    }
    return 5;
  } catch (const cpm::Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
