// Per-rule coverage of the cpm::lint analyzer: every rule gets a fixture
// that triggers it AND a near-miss fixture sitting just on the legal side
// of the threshold. The near-misses are the important half — they pin the
// "zero false positives on healthy models" contract the CI lint gate
// relies on.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>

#include "cpm/core/cpm.hpp"
#include "cpm/core/model_io.hpp"
#include "cpm/core/preconditions.hpp"
#include "cpm/lint/analyze.hpp"

namespace cpm {
namespace {

using core::make_enterprise_model;
using lint::LintReport;
using lint::RuleSet;
using lint::Severity;

Json base_doc(double load = 0.5) {
  return core::model_to_json(make_enterprise_model(load));
}

// The factory rejects load >= 1, so overload by scaling rates afterwards:
// db lands at rho = 1.1 while web/app stay stable.
core::ClusterModel overloaded_model() {
  return make_enterprise_model(0.55).with_rate_scale(2.0);
}

std::size_t count_rule(const LintReport& report, const std::string& id) {
  std::size_t n = 0;
  for (const auto& d : report.diagnostics())
    if (d.rule_id == id) ++n;
  return n;
}

const lint::Diagnostic* find_diag(const LintReport& report,
                                  const std::string& id) {
  for (const auto& d : report.diagnostics())
    if (d.rule_id == id) return &d;
  return nullptr;
}

// Mutation helpers: Json values are immutable, so edits copy the affected
// sub-tree, patch it and reassemble the document.
Json edit_doc(const Json& doc, const std::function<void(JsonObject&)>& fn) {
  JsonObject d = doc.as_object();
  fn(d);
  return Json(std::move(d));
}

Json edit_tier(const Json& doc, std::size_t i,
               const std::function<void(JsonObject&)>& fn) {
  return edit_doc(doc, [&](JsonObject& d) {
    JsonArray tiers = d.at("tiers").as_array();
    JsonObject t = tiers[i].as_object();
    fn(t);
    tiers[i] = Json(std::move(t));
    d["tiers"] = Json(std::move(tiers));
  });
}

Json edit_power(const Json& doc, std::size_t i,
                const std::function<void(JsonObject&)>& fn) {
  return edit_tier(doc, i, [&](JsonObject& t) {
    JsonObject p = t.at("power").as_object();
    fn(p);
    t["power"] = Json(std::move(p));
  });
}

Json edit_class(const Json& doc, std::size_t k,
                const std::function<void(JsonObject&)>& fn) {
  return edit_doc(doc, [&](JsonObject& d) {
    JsonArray classes = d.at("classes").as_array();
    JsonObject c = classes[k].as_object();
    fn(c);
    classes[k] = Json(std::move(c));
    d["classes"] = Json(std::move(classes));
  });
}

Json with_sla(const Json& doc, std::size_t k, const char* field, double value) {
  return edit_class(doc, k, [&](JsonObject& c) {
    JsonObject sla = c.at("sla").as_object();
    sla[field] = value;
    c["sla"] = Json(std::move(sla));
  });
}

// ---- zero false positives on healthy models --------------------------------

TEST(LintClean, EnterpriseModelsAreCleanAcrossLoadsAndDisciplines) {
  for (const double load : {0.3, 0.5, 0.7, 0.9}) {
    for (const queueing::Discipline d :
         {queueing::Discipline::kFcfs,
          queueing::Discipline::kNonPreemptivePriority,
          queueing::Discipline::kPreemptiveResume,
          queueing::Discipline::kProcessorSharing}) {
      const Json doc = core::model_to_json(make_enterprise_model(load, d));
      const LintReport report = lint::lint_document(doc);
      EXPECT_TRUE(report.empty())
          << "load " << load << " discipline " << static_cast<int>(d) << ": "
          << (report.empty() ? "" : report.diagnostics()[0].message);
    }
  }
}

// ---- CPM-L001 tier-overloaded ----------------------------------------------

TEST(LintModel, L001FiresOnOverloadedTier) {
  const LintReport report = lint::lint_model(overloaded_model());
  ASSERT_EQ(count_rule(report, "CPM-L001"), 1u);  // only db saturates
  const auto* d = find_diag(report, "CPM-L001");
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->path, "tiers[2]");
  EXPECT_NE(d->message.find("no steady state"), std::string::npos);
  EXPECT_FALSE(d->hint.empty());
}

TEST(LintModel, L001NearMissJustBelowSaturation) {
  const LintReport report = lint::lint_model(make_enterprise_model(0.94));
  EXPECT_EQ(count_rule(report, "CPM-L001"), 0u);
  EXPECT_EQ(count_rule(report, "CPM-L002"), 0u);
}

// ---- CPM-L002 tier-near-saturation -----------------------------------------

TEST(LintModel, L002FiresAboveNinetyFivePercent) {
  const LintReport report = lint::lint_model(make_enterprise_model(0.96));
  EXPECT_EQ(count_rule(report, "CPM-L001"), 0u);
  ASSERT_EQ(count_rule(report, "CPM-L002"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L002")->severity, Severity::kWarning);
  EXPECT_EQ(find_diag(report, "CPM-L002")->path, "tiers[2].servers");
}

// ---- CPM-L003 / CPM-L004 SLA floors ----------------------------------------

TEST(LintDocument, L003FiresOnMeanSlaBelowFloor) {
  // Gold route demand at f_max: 0.02 + 0.015 + 0.02 = 0.055 s.
  const Json doc = with_sla(base_doc(), 0, "max_mean_delay", 0.054);
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L003"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L003")->path,
            "classes[0].sla.max_mean_delay");
  EXPECT_EQ(find_diag(report, "CPM-L003")->severity, Severity::kError);
}

TEST(LintDocument, L003FiresAtExactFloor) {
  // The floor is attainable only with zero queueing, which no stable
  // stochastic system achieves — a target exactly AT the floor is
  // statically infeasible, so feasibility is the open comparison
  // target > floor (shared via sla_mean_target_feasible with the
  // optimizer's bail-out and certify). Compute the floor with the shared
  // core function so the comparison is bit-exact.
  const auto model = make_enterprise_model(0.5);
  const double floor =
      core::class_delay_floor(model, 0, model.max_frequencies()).value();
  const Json doc = with_sla(base_doc(), 0, "max_mean_delay", floor);
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L003"), 1u);
  // Just above the floor is feasible again.
  const Json ok = with_sla(base_doc(), 0, "max_mean_delay",
                           floor * (1.0 + 1e-12));
  EXPECT_EQ(count_rule(lint::lint_document(ok), "CPM-L003"), 0u);
}

TEST(LintDocument, L004FiresOnPercentileSlaBelowFloorAsWarningOnly) {
  const Json doc = with_sla(base_doc(), 0, "max_percentile_delay", 0.01);
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L004"), 1u);
  // A percentile below the MEAN floor is suspicious but not provably
  // infeasible (low percentiles sit below the mean): warning, not error.
  EXPECT_EQ(find_diag(report, "CPM-L004")->severity, Severity::kWarning);
  EXPECT_EQ(count_rule(report, "CPM-L003"), 0u);
}

TEST(LintDocument, L004NearMissAtExactFloor) {
  const auto model = make_enterprise_model(0.5);
  const double floor =
      core::class_delay_floor(model, 0, model.max_frequencies()).value();
  const Json doc = with_sla(base_doc(), 0, "max_percentile_delay", floor);
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L004"), 0u);
}

// ---- CPM-L005 unreachable-tier ---------------------------------------------

TEST(LintDocument, L005FiresOnTierNoClassVisits) {
  const Json doc = edit_doc(base_doc(), [](JsonObject& d) {
    JsonArray tiers = d.at("tiers").as_array();
    JsonObject ghost = tiers[0].as_object();
    ghost["name"] = "cache";
    tiers.emplace_back(std::move(ghost));
    d["tiers"] = Json(std::move(tiers));
  });
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L005"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L005")->path, "tiers[3]");
  EXPECT_NE(find_diag(report, "CPM-L005")->message.find("cache"),
            std::string::npos);
}

// ---- CPM-L006 / CPM-L007 class rates ---------------------------------------

TEST(LintDocument, L006FiresOnZeroRateAndL007OnNegativeRate) {
  const Json zero =
      edit_class(base_doc(), 1, [](JsonObject& c) { c["rate"] = 0.0; });
  const LintReport zero_report = lint::lint_document(zero);
  ASSERT_EQ(count_rule(zero_report, "CPM-L006"), 1u);
  EXPECT_EQ(count_rule(zero_report, "CPM-L007"), 0u);
  EXPECT_EQ(find_diag(zero_report, "CPM-L006")->path, "classes[1].rate");

  const Json neg =
      edit_class(base_doc(), 1, [](JsonObject& c) { c["rate"] = -1.0; });
  const LintReport neg_report = lint::lint_document(neg);
  ASSERT_EQ(count_rule(neg_report, "CPM-L007"), 1u);
  EXPECT_EQ(find_diag(neg_report, "CPM-L007")->severity, Severity::kError);
}

TEST(LintDocument, RateNearMissTinyPositiveRateIsClean) {
  const Json doc =
      edit_class(base_doc(), 1, [](JsonObject& c) { c["rate"] = 1e-6; });
  const LintReport report = lint::lint_document(doc);
  EXPECT_EQ(count_rule(report, "CPM-L006"), 0u);
  EXPECT_EQ(count_rule(report, "CPM-L007"), 0u);
}

// ---- CPM-L008 power-curve-inverted -----------------------------------------

TEST(LintDocument, L008FiresWhenBusyDoesNotExceedIdle) {
  const Json doc =
      edit_power(base_doc(), 0, [](JsonObject& p) { p["busy_watts"] = 150.0; });
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L008"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L008")->path, "tiers[0].power.busy_watts");
  // The document-scope error must pre-empt the duplicate the ServerPower
  // constructor would raise: no CPM-L016 alongside.
  EXPECT_EQ(count_rule(report, "CPM-L016"), 0u);
}

TEST(LintDocument, L008ReadsAnAbsentBusyPowerAsTheLoaderDoes) {
  // Without busy_watts the loader takes the typical 2011 server's 250 W.
  const auto idle_at = [](double idle) {
    return edit_power(base_doc(), 0, [idle](JsonObject& p) {
      p.erase("busy_watts");
      p["idle_watts"] = idle;
    });
  };
  EXPECT_EQ(count_rule(lint::lint_document(idle_at(250.0)), "CPM-L008"), 1u);
  EXPECT_EQ(count_rule(lint::lint_document(idle_at(249.0)), "CPM-L008"), 0u);
  EXPECT_NO_THROW(static_cast<void>(core::model_from_json(idle_at(249.0))));
  EXPECT_THROW(static_cast<void>(core::model_from_json(idle_at(250.0))), Error);
}

TEST(LintDocument, L008NearMissBusyJustAboveIdle) {
  const Json doc =
      edit_power(base_doc(), 0, [](JsonObject& p) { p["busy_watts"] = 151.0; });
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L008"), 0u);
}

// ---- CPM-L009 dvfs-range-invalid -------------------------------------------

TEST(LintDocument, L009FiresWhenFminExceedsFmax) {
  const Json doc =
      edit_power(base_doc(), 1, [](JsonObject& p) { p["f_min"] = 1.2; });
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L009"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L009")->path, "tiers[1].power");
}

TEST(LintDocument, L009NearMissDegenerateRangeIsLegal) {
  // f_min == f_max (no DVFS headroom) is a valid, fixed-frequency tier.
  const Json doc =
      edit_power(base_doc(), 1, [](JsonObject& p) { p["f_min"] = 1.0; });
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L009"), 0u);
}

// ---- CPM-L010 alpha-sublinear ----------------------------------------------

TEST(LintDocument, L010FiresOnSublinearAlpha) {
  const Json doc =
      edit_power(base_doc(), 2, [](JsonObject& p) { p["alpha"] = 0.5; });
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L010"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L010")->path, "tiers[2].power.alpha");
  EXPECT_EQ(count_rule(report, "CPM-L016"), 0u);
}

TEST(LintDocument, L010NearMissLinearAlphaIsLegal) {
  const Json doc =
      edit_power(base_doc(), 2, [](JsonObject& p) { p["alpha"] = 1.0; });
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L010"), 0u);
}

// ---- CPM-L011 priority-sla-inversion ---------------------------------------

TEST(LintDocument, L011FiresWhenLowPriorityHasTighterSla) {
  // bronze (priority 2) tighter than gold (priority 0, SLA 0.25 s).
  const Json doc = with_sla(base_doc(), 2, "max_mean_delay", 0.1);
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L011"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L011")->path, "classes[2].sla");
  EXPECT_EQ(find_diag(report, "CPM-L011")->severity, Severity::kWarning);
}

TEST(LintDocument, L011NearMissEqualSlasAreLegal) {
  const Json doc = with_sla(base_doc(), 1, "max_mean_delay", 0.25);
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L011"), 0u);
}

// ---- CPM-L012 / CPM-L013 settings ------------------------------------------

TEST(LintSettings, L012FiresWhenWarmupSwallowsHorizon) {
  core::SimSettings s;
  s.warmup_time = s.end_time;  // empty measurement window
  const LintReport report = lint::lint_sim_settings(s);
  ASSERT_EQ(count_rule(report, "CPM-L012"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L012")->path, "settings.warmup_time");
}

TEST(LintSettings, L012NearMissWarmupJustBelowHorizon) {
  core::SimSettings s;
  s.warmup_time = s.end_time - 1.0;
  EXPECT_EQ(count_rule(lint::lint_sim_settings(s), "CPM-L012"), 0u);
}

TEST(LintSettings, L013NotesSingleReplication) {
  core::SimSettings s;
  s.replications = 1;
  const LintReport report = lint::lint_sim_settings(s);
  ASSERT_EQ(count_rule(report, "CPM-L013"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L013")->severity, Severity::kNote);

  s.replications = 2;  // near miss: the smallest CI-capable count
  EXPECT_EQ(count_rule(lint::lint_sim_settings(s), "CPM-L013"), 0u);
}

// ---- CPM-L014 servers-not-positive -----------------------------------------

TEST(LintDocument, L014FiresOnZeroServers) {
  const Json doc =
      edit_tier(base_doc(), 1, [](JsonObject& t) { t["servers"] = 0; });
  const LintReport report = lint::lint_document(doc);
  ASSERT_EQ(count_rule(report, "CPM-L014"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L014")->path, "tiers[1].servers");
}

TEST(LintDocument, L014NearMissSingleServerIsLegal) {
  const Json doc =
      edit_tier(base_doc(), 1, [](JsonObject& t) { t["servers"] = 1; });
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L014"), 0u);
}

// ---- CPM-L015 route-invalid ------------------------------------------------

TEST(LintDocument, L015FiresOnEmptyRouteAndUnknownTier) {
  const Json empty = edit_class(
      base_doc(), 0, [](JsonObject& c) { c["route"] = Json(JsonArray{}); });
  EXPECT_EQ(count_rule(lint::lint_document(empty), "CPM-L015"), 1u);

  const Json dangling = edit_class(base_doc(), 0, [](JsonObject& c) {
    JsonArray route = c.at("route").as_array();
    JsonObject step = route[1].as_object();
    step["tier"] = "apppp";  // typo
    route[1] = Json(std::move(step));
    c["route"] = Json(std::move(route));
  });
  const LintReport report = lint::lint_document(dangling);
  ASSERT_EQ(count_rule(report, "CPM-L015"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L015")->path, "classes[0].route[1].tier");
  EXPECT_NE(find_diag(report, "CPM-L015")->message.find("apppp"),
            std::string::npos);
}

TEST(LintDocument, L015NearMissTierReferenceByIndexIsLegal) {
  const Json doc = edit_class(base_doc(), 0, [](JsonObject& c) {
    JsonArray route = c.at("route").as_array();
    JsonObject step = route[1].as_object();
    step["tier"] = 1;  // numeric index instead of name
    route[1] = Json(std::move(step));
    c["route"] = Json(std::move(route));
  });
  EXPECT_EQ(count_rule(lint::lint_document(doc), "CPM-L015"), 0u);
}

// ---- CPM-L016 schema-error -------------------------------------------------

TEST(LintDocument, L016FiresOnStructuralDefects) {
  // Not an object at all.
  EXPECT_GE(count_rule(lint::lint_document(Json(3.0)), "CPM-L016"), 1u);

  // Missing classes array.
  const Json no_classes = edit_doc(
      base_doc(), [](JsonObject& d) { d.erase("classes"); });
  EXPECT_GE(count_rule(lint::lint_document(no_classes), "CPM-L016"), 1u);

  // Unknown service distribution.
  const Json bad_dist = edit_class(base_doc(), 0, [](JsonObject& c) {
    JsonArray route = c.at("route").as_array();
    JsonObject step = route[0].as_object();
    JsonObject service = step.at("service").as_object();
    service["dist"] = "zipf";
    step["service"] = Json(std::move(service));
    route[0] = Json(std::move(step));
    c["route"] = Json(std::move(route));
  });
  const LintReport report = lint::lint_document(bad_dist);
  ASSERT_GE(count_rule(report, "CPM-L016"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L016")->path, "classes[0].route[0].service");
}

TEST(LintText, ParseErrorsBecomeL016InsteadOfThrowing) {
  const LintReport report = lint::lint_text("{\"tiers\": [");
  ASSERT_EQ(count_rule(report, "CPM-L016"), 1u);
  EXPECT_EQ(report.worst(), Severity::kError);
}

TEST(LintText, CleanDocumentRoundTripsClean) {
  EXPECT_TRUE(lint::lint_text(base_doc().dump(2)).empty());
}

// ---- CPM-L017 suppressions -------------------------------------------------

TEST(LintDocument, SuppressionWithReasonSilencesRuleWithoutL017) {
  const Json noisy = core::model_to_json(make_enterprise_model(0.96));
  ASSERT_EQ(count_rule(lint::lint_document(noisy), "CPM-L002"), 1u);

  const Json waived = edit_doc(noisy, [](JsonObject& d) {
    JsonObject block;
    block["disable"] = Json(JsonArray{Json("CPM-L002")});
    block["reason"] = "deliberately near-saturated stress scenario";
    d["lint"] = Json(std::move(block));
  });
  EXPECT_TRUE(lint::lint_document(waived).empty());
}

TEST(LintDocument, L017FiresOnReasonlessOrUnknownSuppression) {
  const Json reasonless = edit_doc(base_doc(), [](JsonObject& d) {
    JsonObject block;
    block["disable"] = Json(JsonArray{Json("CPM-L002")});
    d["lint"] = Json(std::move(block));
  });
  const LintReport report = lint::lint_document(reasonless);
  ASSERT_EQ(count_rule(report, "CPM-L017"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L017")->severity, Severity::kWarning);

  const Json unknown = edit_doc(base_doc(), [](JsonObject& d) {
    JsonObject block;
    block["disable"] = Json(JsonArray{Json("CPM-L999")});
    block["reason"] = "typo in the rule id";
    d["lint"] = Json(std::move(block));
  });
  EXPECT_EQ(count_rule(lint::lint_document(unknown), "CPM-L017"), 1u);
}

// ---- consistency with the runtime preconditions ----------------------------

TEST(LintConsistency, L001MessageMatchesValidateModelPrecondition) {
  const auto model = overloaded_model();
  const auto finding = core::probe_stability(model, model.max_frequencies());
  ASSERT_FALSE(finding.stable);
  const std::string shared = core::overload_description(model, finding);

  // The static finding embeds the canonical description verbatim...
  const LintReport report = lint::lint_model(model);
  ASSERT_EQ(count_rule(report, "CPM-L001"), 1u);
  EXPECT_EQ(find_diag(report, "CPM-L001")->message.rfind(shared, 0), 0u);

  // ...and so does the runtime error validate_model throws.
  try {
    core::validate_model(model, model.max_frequencies(), core::SimSettings{});
    FAIL() << "validate_model accepted an unstable model";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[CPM-L001]"), std::string::npos) << what;
    EXPECT_NE(what.find(shared), std::string::npos) << what;
  }
}

TEST(LintConsistency, DisabledRuleSuppressesFinding) {
  RuleSet rules;
  rules.disable("tier-overloaded");  // by name, not ID
  const LintReport report = lint::lint_model(overloaded_model(), rules);
  EXPECT_EQ(count_rule(report, "CPM-L001"), 0u);
}

}  // namespace
}  // namespace cpm
