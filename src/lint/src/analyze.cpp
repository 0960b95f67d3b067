#include "cpm/lint/analyze.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include "cpm/common/error.hpp"
#include "cpm/common/table.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/core/preconditions.hpp"

namespace cpm::lint {

namespace {

std::string at(const std::string& array, std::size_t index,
               const std::string& field = "") {
  std::string path = array + "[" + std::to_string(index) + "]";
  if (!field.empty()) path += "." + field;
  return path;
}

// ---- model-scope rules -----------------------------------------------------

/// Utilisation threshold above which CPM-L002 flags a tier as having no
/// practical DVFS headroom. Matches the near-saturation regime where the
/// optimizers' frequency floors collapse onto f_max.
constexpr double kNearSaturation = 0.95;

void rule_tier_stability(const core::ClusterModel& model, const RuleSet& rules,
                         LintReport& report) {
  const std::vector<double> rho =
      core::tier_utilizations(model, model.max_frequencies());
  for (std::size_t i = 0; i < rho.size(); ++i) {
    const std::string& name = model.tiers()[i].name;
    if (rho[i] >= 1.0) {
      const core::StabilityFinding finding{false, i, rho[i]};
      emit(report, rules, "CPM-L001", at("tiers", i),
           core::overload_description(model, finding) + " even at f_max",
           core::kOverloadHint);
    } else if (rho[i] >= kNearSaturation) {
      emit(report, rules, "CPM-L002", at("tiers", i, "servers"),
           "tier '" + name + "' runs at rho = " + format_double(rho[i], 3) +
               " >= " + format_double(kNearSaturation, 2) +
               " at f_max: delays explode and DVFS has no headroom",
           "provision one more server or rebalance the routes");
    }
  }
}

void rule_sla_floors(const core::ClusterModel& model, const RuleSet& rules,
                     LintReport& report) {
  const auto f_max = model.max_frequencies();
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto& c = model.classes()[k];
    const units::Seconds floor = core::class_delay_floor(model, k, f_max);
    if (c.sla.mean_bounded() &&
        !core::sla_mean_target_feasible(c.sla.max_mean_e2e_delay, floor)) {
      emit(report, rules, "CPM-L003", at("classes", k, "sla.max_mean_delay"),
           core::sla_floor_description(model, k, c.sla.max_mean_e2e_delay,
                                       floor) +
               " at f_max: statically infeasible",
           core::sla_floor_hint(floor));
    }
    if (c.sla.percentile_bounded() && c.sla.max_percentile_e2e_delay < floor) {
      emit(report, rules, "CPM-L004",
           at("classes", k, "sla.max_percentile_delay"),
           "class '" + c.name + "' has p" +
               format_double(100.0 * c.sla.percentile, 0) + " SLA " +
               format_double(c.sla.max_percentile_e2e_delay.value(), 4) +
               " s below its mean no-queueing service demand " +
               format_double(floor.value(), 4) + " s at f_max",
           "raise the percentile target or cut the route's service demands");
    }
  }
}

void rule_unreachable_tiers(const core::ClusterModel& model, const RuleSet& rules,
                            LintReport& report) {
  std::vector<int> visits(model.num_tiers(), 0);
  for (const auto& c : model.classes())
    for (const auto& d : c.route) ++visits[static_cast<std::size_t>(d.tier)];
  for (std::size_t i = 0; i < visits.size(); ++i) {
    if (visits[i] == 0) {
      emit(report, rules, "CPM-L005", at("tiers", i),
           "tier '" + model.tiers()[i].name +
               "' is visited by no class: it burns " +
               format_double(
                   static_cast<double>(model.tiers()[i].servers) *
                       model.tiers()[i].power.idle_power().value(),
                   1) +
               " W idle and cannot affect any delay",
           "remove the tier or route a class through it");
    }
  }
}

void rule_zero_rate_classes(const core::ClusterModel& model, const RuleSet& rules,
                            LintReport& report) {
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    if (model.classes()[k].rate == units::per_second(0.0)) {
      emit(report, rules, "CPM-L006", at("classes", k, "rate"),
           "class '" + model.classes()[k].name +
               "' has arrival rate 0: it generates no traffic",
           "set a positive rate or drop the class");
    }
  }
}

void rule_priority_sla_order(const core::ClusterModel& model, const RuleSet& rules,
                             LintReport& report) {
  // Class order IS priority order (0 = highest). A lower-priority class
  // with a strictly tighter mean-delay SLA than some higher-priority class
  // fights the scheduler; report each offender once, against the tightest
  // higher-priority bound it undercuts.
  for (std::size_t j = 1; j < model.num_classes(); ++j) {
    const auto& lo = model.classes()[j];
    if (!lo.sla.mean_bounded()) continue;
    for (std::size_t i = 0; i < j; ++i) {
      const auto& hi = model.classes()[i];
      if (!hi.sla.mean_bounded()) continue;
      if (lo.sla.max_mean_e2e_delay < hi.sla.max_mean_e2e_delay) {
        emit(report, rules, "CPM-L011", at("classes", j, "sla"),
             "class '" + lo.name + "' (priority " + std::to_string(j) +
                 ") has a tighter mean-delay SLA (" +
                 format_double(lo.sla.max_mean_e2e_delay.value(), 4) +
                 " s) than higher-priority class '" + hi.name + "' (" +
                 format_double(hi.sla.max_mean_e2e_delay.value(), 4) + " s)",
             "reorder the classes by SLA strictness or relax the bound");
        break;
      }
    }
  }
}

// ---- document-scope rules --------------------------------------------------

/// Reads absent fields as the loader does (core::power_field_defaults) so
/// the checks judge exactly what the loader would construct.
void check_power_block(const Json& tier, std::size_t index, const RuleSet& rules,
                       LintReport& report) {
  if (!tier.contains("power")) return;  // typical-2011 defaults are valid
  const Json& p = tier.at("power");
  if (!p.is_object()) {
    emit(report, rules, "CPM-L016", at("tiers", index, "power"),
         "'power' must be an object");
    return;
  }
  const Json defaults = core::power_field_defaults();
  const auto field = [&](const char* key) {
    return p.number_or(key, defaults.at(key).as_number());
  };
  const double idle = field("idle_watts");
  const double busy = field("busy_watts");
  const double alpha = field("alpha");
  const double f_min = field("f_min");
  const double f_max = field("f_max");
  const double f_base = field("f_base");
  if (idle < 0.0) {
    emit(report, rules, "CPM-L008", at("tiers", index, "power.idle_watts"),
         "idle power is negative (" + format_double(idle, 1) + " W)",
         "idle power must be >= 0");
  } else if (busy <= idle) {
    emit(report, rules, "CPM-L008", at("tiers", index, "power.busy_watts"),
         "busy power (" + format_double(busy, 1) +
             " W) does not exceed idle power (" + format_double(idle, 1) +
             " W): the power curve is inverted",
         "set busy_watts above idle_watts");
  }
  if (f_min <= 0.0 || f_base <= 0.0 || f_min > f_max) {
    emit(report, rules, "CPM-L009", at("tiers", index, "power"),
         "DVFS range [" + format_double(f_min, 3) + ", " +
             format_double(f_max, 3) + "] with f_base " +
             format_double(f_base, 3) +
             " is ill-formed: frequencies must be positive and f_min <= f_max",
         "fix f_min/f_max/f_base so that 0 < f_min <= f_max and f_base > 0");
  }
  if (alpha < 1.0) {
    emit(report, rules, "CPM-L010", at("tiers", index, "power.alpha"),
         "dynamic-power exponent alpha = " + format_double(alpha, 3) +
             " < 1 is physically implausible (CMOS dynamic power grows at "
             "least linearly in f)",
         "use alpha in [1, 3]; 3 models classic voltage-frequency scaling");
  }
}

/// Walks the raw document and reports every defect the loader or the
/// ClusterModel constructor would reject, with a precise path. Returns
/// the tier names seen, for route-reference checking.
std::vector<std::string> check_document(const Json& doc, const RuleSet& rules,
                                        LintReport& report) {
  std::vector<std::string> tier_names;
  if (!doc.is_object()) {
    emit(report, rules, "CPM-L016", "", "document must be a JSON object");
    return tier_names;
  }
  for (const char* key : {"tiers", "classes"}) {
    if (!doc.contains(key) || !doc.at(key).is_array() || doc.at(key).size() == 0) {
      emit(report, rules, "CPM-L016", key,
           std::string("document needs a non-empty '") + key + "' array");
    }
  }
  if (report.count_at_least(Severity::kError) > 0) return tier_names;

  const JsonArray& tiers = doc.at("tiers").as_array();
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const Json& tj = tiers[i];
    if (!tj.is_object()) {
      emit(report, rules, "CPM-L016", at("tiers", i), "tier must be an object");
      continue;
    }
    if (!tj.contains("name") || !tj.at("name").is_string()) {
      emit(report, rules, "CPM-L016", at("tiers", i, "name"),
           "tier needs a string 'name'");
      tier_names.emplace_back();
    } else {
      tier_names.push_back(tj.at("name").as_string());
    }
    if (tj.number_or("servers", 1.0) < 1.0) {
      emit(report, rules, "CPM-L014", at("tiers", i, "servers"),
           "tier '" + tier_names.back() + "' has " +
               format_double(tj.number_or("servers", 1.0), 0) +
               " servers: needs at least 1",
           "set servers >= 1");
    }
    const std::string discipline = tj.string_or("discipline", "np-priority");
    try {
      core::discipline_from_name(discipline);
    } catch (const Error&) {
      emit(report, rules, "CPM-L016", at("tiers", i, "discipline"),
           "unknown discipline '" + discipline +
               "' (expected fcfs | np-priority | p-priority | ps)");
    }
    check_power_block(tj, i, rules, report);
  }

  const JsonArray& classes = doc.at("classes").as_array();
  for (std::size_t k = 0; k < classes.size(); ++k) {
    const Json& cj = classes[k];
    if (!cj.is_object()) {
      emit(report, rules, "CPM-L016", at("classes", k), "class must be an object");
      continue;
    }
    const std::string cls_name = cj.string_or("name", at("classes", k));
    if (!cj.contains("rate") || !cj.at("rate").is_number()) {
      emit(report, rules, "CPM-L016", at("classes", k, "rate"),
           "class '" + cls_name + "' needs a numeric 'rate'");
    } else if (cj.at("rate").as_number() < 0.0) {
      emit(report, rules, "CPM-L007", at("classes", k, "rate"),
           "class '" + cls_name + "' has negative arrival rate " +
               format_double(cj.at("rate").as_number(), 4),
           "rates must be >= 0");
    }
    if (!cj.contains("route") || !cj.at("route").is_array() ||
        cj.at("route").size() == 0) {
      emit(report, rules, "CPM-L015", at("classes", k, "route"),
           "class '" + cls_name + "' needs a non-empty 'route' array",
           "add at least one {tier, service} step");
      continue;
    }
    const JsonArray& route = cj.at("route").as_array();
    for (std::size_t j = 0; j < route.size(); ++j) {
      const std::string step_path = at("classes", k, at("route", j));
      const Json& step = route[j];
      if (!step.is_object() || !step.contains("tier")) {
        emit(report, rules, "CPM-L015", step_path,
             "route step must be an object with a 'tier' reference");
        continue;
      }
      const Json& ref = step.at("tier");
      bool known = false;
      if (ref.is_number()) {
        const double idx = ref.as_number();
        known = idx >= 0.0 && idx < static_cast<double>(tier_names.size());
      } else if (ref.is_string()) {
        for (const auto& name : tier_names)
          if (name == ref.as_string()) known = true;
      }
      if (!known) {
        emit(report, rules, "CPM-L015", step_path + ".tier",
             "class '" + cls_name + "' routes to unknown tier" +
                 (ref.is_string() ? " '" + ref.as_string() + "'" : ""),
             "reference a tier by its name or by index");
      }
      if (!step.contains("service")) {
        emit(report, rules, "CPM-L016", step_path + ".service",
             "route step needs a 'service' distribution");
        continue;
      }
      try {
        core::distribution_from_json(step.at("service"));
      } catch (const Error& e) {
        emit(report, rules, "CPM-L016", step_path + ".service", e.what());
      }
    }
  }
  return tier_names;
}

/// Applies the document's "lint" suppression block to a copy of `rules`:
///   "lint": {"disable": ["CPM-L002"], "reason": "stress scenario"}.
RuleSet apply_suppressions(const Json& doc, RuleSet rules, LintReport& report) {
  if (!doc.is_object() || !doc.contains("lint")) return rules;
  const Json& block = doc.at("lint");
  if (!block.is_object() || !block.contains("disable") ||
      !block.at("disable").is_array())
    return rules;
  const JsonArray& disable = block.at("disable").as_array();
  if (block.string_or("reason", "").empty() && !disable.empty()) {
    emit(report, rules, "CPM-L017", "lint",
         "suppression block disables " + std::to_string(disable.size()) +
             " rule(s) without stating a reason",
         "add a \"reason\" string explaining why the findings are accepted");
  }
  for (std::size_t i = 0; i < disable.size(); ++i) {
    const Json& entry = disable[i];
    if (!entry.is_string() || find_rule(entry.as_string()) == nullptr) {
      emit(report, rules, "CPM-L017", at("lint.disable", i),
           "suppression lists unknown rule" +
               (entry.is_string() ? " '" + entry.as_string() + "'" : ""),
           "use a registry ID (CPM-Lxxx) or rule name");
      continue;
    }
    rules.disable(entry.as_string());
  }
  return rules;
}

}  // namespace

LintReport lint_model(const core::ClusterModel& model, const RuleSet& rules) {
  LintReport report;
  rule_tier_stability(model, rules, report);
  rule_sla_floors(model, rules, report);
  rule_unreachable_tiers(model, rules, report);
  rule_zero_rate_classes(model, rules, report);
  rule_priority_sla_order(model, rules, report);
  return report;
}

LintReport lint_sim_settings(const core::SimSettings& settings,
                             const RuleSet& rules) {
  LintReport report;
  if (settings.warmup_time >= settings.end_time) {
    emit(report, rules, "CPM-L012", "settings.warmup_time",
         "warm-up period " + format_double(settings.warmup_time, 2) +
             " s is not below the end time " +
             format_double(settings.end_time, 2) +
             " s: the measurement window is empty",
         "end the run after the warm-up period");
  }
  if (settings.replications < 2) {
    emit(report, rules, "CPM-L013", "settings.replications",
         std::to_string(settings.replications) +
             " replication(s): no confidence interval can be formed",
         "run at least 2 (typically 8+) replications");
  }
  return report;
}

LintReport lint_document(const Json& document, const RuleSet& rules) {
  LintReport report;
  const RuleSet effective = apply_suppressions(document, rules, report);
  check_document(document, effective, report);
  if (report.count_at_least(Severity::kError) > 0) return report;
  // Document-scope rules found nothing fatal: the model should construct.
  // Any residual loader failure is a schema gap worth surfacing verbatim.
  try {
    const core::ClusterModel model = core::model_from_json(document);
    report.merge(lint_model(model, effective));
  } catch (const Error& e) {
    emit(report, effective, "CPM-L016", "", e.what());
  }
  return report;
}

LintReport lint_text(const std::string& text, const RuleSet& rules) {
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const Error& e) {
    LintReport report;
    emit(report, rules, "CPM-L016", "", e.what());
    return report;
  }
  return lint_document(doc, rules);
}

}  // namespace cpm::lint
