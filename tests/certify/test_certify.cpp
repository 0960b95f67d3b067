// cpm::certify verdict semantics: degenerate boxes reproduce lint's point
// verdicts rule for rule (same rule IDs, paths and message prefixes),
// wide boxes refute with concrete witnesses, bisection turns UNDECIDED
// into PROVED, and the box parser rejects malformed specs with CPM-C009.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "cpm/certify/certify.hpp"
#include "cpm/common/error.hpp"
#include "cpm/common/json.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/preconditions.hpp"
#include "cpm/lint/analyze.hpp"

namespace cpm::certify {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const PropertyResult* find_property(const CertifyReport& report,
                                    const std::string& name) {
  for (const auto& p : report.properties)
    if (p.property == name) return &p;
  return nullptr;
}

const lint::Diagnostic* find_diag(const lint::LintReport& report,
                                  const std::string& rule,
                                  const std::string& path) {
  for (const auto& d : report.diagnostics())
    if (d.rule_id == rule && d.path == path) return &d;
  return nullptr;
}

TEST(Certify, HealthyModelProvesEverythingOnThePointBox) {
  const auto model = core::make_enterprise_model(0.6);
  const BoxSpec box = default_box(model);
  EXPECT_TRUE(box.is_point());

  const CertifyReport report = certify_model(model, box);
  EXPECT_TRUE(report.all_proved());
  EXPECT_TRUE(report.diagnostics.diagnostics().empty());
  // 3 tiers + (floor + mean) per mean-bounded class.
  EXPECT_GE(report.properties.size(), 3u);
  for (const auto& p : report.properties) {
    EXPECT_EQ(p.verdict, Verdict::kProved) << p.property;
    EXPECT_EQ(p.boxes_explored, 1) << p.property;
    EXPECT_FALSE(p.witness.valid);
  }
}

TEST(Certify, DegenerateBoxMatchesLintRuleForRule) {
  // Overload one tier (huge gold rate) AND make one SLA statically
  // infeasible: certify on the point box must fire CPM-C001/C003/C005
  // exactly where lint fires CPM-L001/L003, with identical paths and the
  // same shared-precondition message prefix.
  auto classes = core::make_enterprise_model(0.6).classes();
  classes[0].rate *= 50.0;
  classes[1].sla.max_mean_e2e_delay = units::seconds(1e-6);
  const core::ClusterModel doomed(core::make_enterprise_model(0.6).tiers(),
                                  classes);

  const CertifyReport cert = certify_model(doomed, default_box(doomed));
  const lint::LintReport lint_report = lint::lint_model(doomed);

  for (const auto& p : cert.properties) {
    EXPECT_NE(p.verdict, Verdict::kUndecided)
        << p.property << ": a point box must always be decided";
  }

  const auto rho = core::tier_utilizations(doomed, doomed.max_frequencies());
  for (std::size_t i = 0; i < doomed.num_tiers(); ++i) {
    const std::string path = "tiers[" + std::to_string(i) + "]";
    const auto* l = find_diag(lint_report, "CPM-L001", path);
    const auto* c = find_diag(cert.diagnostics, "CPM-C001", path);
    EXPECT_EQ(l != nullptr, c != nullptr) << path;
    if (l != nullptr && c != nullptr) {
      // Both spell the defect with the shared overload_description; lint
      // appends " even at f_max", certify the witness corner.
      const std::string shared =
          core::overload_description(doomed, {false, i, rho[i]});
      EXPECT_EQ(l->message.rfind(shared, 0), 0u) << l->message;
      EXPECT_EQ(c->message.rfind(shared, 0), 0u) << c->message;
      EXPECT_NE(c->message.find("at box corner"), std::string::npos);
    }
  }

  const auto* l3 = find_diag(lint_report, "CPM-L003",
                             "classes[1].sla.max_mean_delay");
  const auto* c3 = find_diag(cert.diagnostics, "CPM-C003",
                             "classes[1].sla.max_mean_delay");
  ASSERT_NE(l3, nullptr);
  ASSERT_NE(c3, nullptr);
  const std::string shared = core::sla_floor_description(
      doomed, 1, units::seconds(1e-6),
      core::class_delay_floor(doomed, 1, doomed.max_frequencies()));
  EXPECT_EQ(c3->message.rfind(shared, 0), 0u) << c3->message;
}

TEST(Certify, WideBoxRefutesWithConcreteWitness) {
  const auto model = core::make_enterprise_model(0.6);
  BoxSpec box = default_box(model);
  box.rates[0] = core::Interval{model.classes()[0].rate.value(),
                                model.classes()[0].rate.value() * 100.0};

  const CertifyReport report = certify_model(model, box);
  const auto* stab = find_property(report, "stability[" +
                                               model.tiers()[0].name + "]");
  ASSERT_NE(stab, nullptr);
  EXPECT_EQ(stab->verdict, Verdict::kRefuted);
  ASSERT_TRUE(stab->witness.valid);
  EXPECT_GE(stab->witness.value, 1.0);

  // The witness must be a real point the concrete analyzer rejects.
  const core::ClusterModel at = model_at(model, stab->witness.point);
  EXPECT_GE(core::tier_utilizations(at, stab->witness.point.frequencies)[0],
            1.0);
  EXPECT_FALSE(at.evaluate(stab->witness.point.frequencies).stable);
}

TEST(Certify, ModestBoxProvesEverySla) {
  const auto model = core::make_enterprise_model(0.6);
  BoxSpec box = default_box(model);
  for (auto& r : box.rates) r = core::Interval{r.lo * 0.9, r.hi * 1.05};
  for (auto& m : box.mu_scale) m = core::Interval{0.97, 1.03};

  const CertifyReport report = certify_model(model, box);
  EXPECT_TRUE(report.all_proved()) << render_certify_text(report, "m");
  // Root enclosures must still contain the nominal point's values.
  const auto ev = model.evaluate(model.max_frequencies());
  ASSERT_TRUE(ev.stable);
  for (std::size_t k = 0; k < model.num_classes(); ++k) {
    const auto* p = find_property(
        report, "sla-mean[" + model.classes()[k].name + "]");
    if (p == nullptr) continue;
    EXPECT_TRUE(p->bound.contains(ev.net.e2e_delay[k].value())) << p->property;
  }
}

TEST(Certify, BisectionDecidesWhatDepthZeroCannot) {
  // Dependency-problem overestimation: at depth 0 a near-critical box
  // leaves the mean-delay enclosure too wide to prove a tight SLA, but
  // the true sup (at the congestion corner) is below it — bisection must
  // recover the proof.
  const auto base = core::make_enterprise_model(0.75);
  BoxSpec box = default_box(base);
  for (auto& r : box.rates) r = core::Interval{r.lo * 0.85, r.hi * 1.1};

  // Find the enclosure and the concrete worst corner with SLAs detached.
  auto relaxed = base.classes();
  for (auto& c : relaxed) c.sla = core::Sla{};
  relaxed[0].sla.max_mean_e2e_delay = units::seconds(1e9);
  const core::ClusterModel probe(base.tiers(), relaxed);
  CertifyOptions shallow;
  shallow.bisect_depth = 0;
  const CertifyReport loose = certify_model(probe, box, shallow);
  const auto* wide = find_property(loose, "sla-mean[gold]");
  ASSERT_NE(wide, nullptr);
  ASSERT_TRUE(std::isfinite(wide->bound.hi));
  const ParameterPoint worst = congestion_corner(box);
  const auto worst_ev = model_at(probe, worst).evaluate(worst.frequencies);
  ASSERT_TRUE(worst_ev.stable);
  const double corner = worst_ev.net.e2e_delay[0].value();
  ASSERT_LT(corner, wide->bound.hi);

  // A target between the corner value and the loose bound: undecidable
  // at depth 0, proved with the default bisection budget.
  relaxed[0].sla.max_mean_e2e_delay = units::seconds(corner + 0.5 * (wide->bound.hi - corner));
  const core::ClusterModel tight(base.tiers(), relaxed);

  const CertifyReport shallow_report = certify_model(tight, box, shallow);
  const auto* undecided = find_property(shallow_report, "sla-mean[gold]");
  ASSERT_NE(undecided, nullptr);
  EXPECT_EQ(undecided->verdict, Verdict::kUndecided);

  const CertifyReport deep = certify_model(tight, box);
  const auto* proved = find_property(deep, "sla-mean[gold]");
  ASSERT_NE(proved, nullptr);
  EXPECT_EQ(proved->verdict, Verdict::kProved) << proved->boxes_explored;
  EXPECT_GT(proved->boxes_explored, 1);
}

TEST(Certify, PercentileSlasAreCornerCheckedOnly) {
  auto classes = core::make_enterprise_model(0.6).classes();
  classes[0].sla.max_percentile_e2e_delay = units::seconds(1e9);  // never refuted
  const core::ClusterModel model(core::make_enterprise_model(0.6).tiers(),
                                 classes);
  BoxSpec box = default_box(model);
  box.rates[0] = core::Interval{box.rates[0].lo * 0.9, box.rates[0].hi * 1.1};

  const CertifyReport report = certify_model(model, box);
  const auto* p = find_property(report, "sla-percentile[gold]");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->verdict, Verdict::kUndecided);
  const auto* d = find_diag(report.diagnostics, "CPM-C006",
                            "classes[0].sla.max_percentile_delay");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("percentile"), std::string::npos);

  // On the point box the same SLA is decided concretely.
  const CertifyReport point = certify_model(model, default_box(model));
  EXPECT_EQ(find_property(point, "sla-percentile[gold]")->verdict,
            Verdict::kProved);
}

TEST(Certify, PowerBudgetProperty) {
  const auto model = core::make_enterprise_model(0.6);
  BoxSpec box = default_box(model);
  const double nominal = model.power_at(model.max_frequencies()).value();

  box.max_power_watts = units::watts(nominal * 1.5);
  EXPECT_TRUE(certify_model(model, box).all_proved());

  box.max_power_watts = units::watts(nominal * 0.5);
  const CertifyReport over = certify_model(model, box);
  const auto* p = find_property(over, "power-budget");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->verdict, Verdict::kRefuted);
  ASSERT_TRUE(p->witness.valid);
  EXPECT_GT(p->witness.value, box.max_power_watts.value());
  EXPECT_NE(find_diag(over.diagnostics, "CPM-C007", "certify.max_power_watts"),
            nullptr);
}

TEST(Certify, BoxJsonRoundTripAndValidation) {
  const auto model = core::make_enterprise_model(0.6);
  const Json spec = Json::parse(R"({
    "rates": {"gold": [3.0, 4.0], "silver": 2.5},
    "mu_scale": {"db": [0.9, 1.1]},
    "frequencies": {"web": [0.8, 1.0]},
    "max_power_watts": 1500
  })");
  const BoxSpec box = box_from_json(model, spec);
  EXPECT_EQ(box.rates[0].lo, 3.0);
  EXPECT_EQ(box.rates[0].hi, 4.0);
  EXPECT_TRUE(box.rates[1].is_point());
  EXPECT_EQ(box.rates[1].lo, 2.5);
  EXPECT_EQ(box.max_power_watts.value(), 1500.0);

  const BoxSpec round = box_from_json(model, box_to_json(box, model));
  for (std::size_t k = 0; k < box.rates.size(); ++k) {
    EXPECT_EQ(round.rates[k].lo, box.rates[k].lo);
    EXPECT_EQ(round.rates[k].hi, box.rates[k].hi);
  }

  const auto throws_c009 = [&](const char* text) {
    try {
      box_from_json(model, Json::parse(text));
      return false;
    } catch (const Error& e) {
      return std::string(e.what()).find("CPM-C009") != std::string::npos;
    }
  };
  EXPECT_TRUE(throws_c009(R"({"rates": {"nope": [1, 2]}})"));
  EXPECT_TRUE(throws_c009(R"({"rates": {"gold": [4, 1]}})"));
  EXPECT_TRUE(throws_c009(R"({"rates": {"gold": [-1, 2]}})"));
  EXPECT_TRUE(throws_c009(R"({"frequencies": {"web": [0.1, 0.5]}})"));
  EXPECT_TRUE(throws_c009(R"({"mu_scale": {"db": 0}})"));
  EXPECT_TRUE(throws_c009(R"({"unknown_key": 1})"));
  EXPECT_TRUE(throws_c009(R"({"max_power_watts": -5})"));
}

TEST(Certify, RenderJsonCarriesVerdictsAndWitness) {
  const auto model = core::make_enterprise_model(0.6);
  BoxSpec box = default_box(model);
  box.rates[0] = core::Interval{model.classes()[0].rate.value(),
                                model.classes()[0].rate.value() * 100.0};
  const CertifyReport report = certify_model(model, box);

  const Json doc =
      Json::parse(render_certify_json(report, "m.json", box, model).dump(2));
  EXPECT_EQ(doc.at("format").as_string(), "cpm-certify/v1");
  EXPECT_EQ(doc.at("file").as_string(), "m.json");
  EXPECT_GT(doc.at("verdicts").at("refuted").as_number(), 0.0);
  EXPECT_EQ(doc.at("properties").size(), report.properties.size());
  bool saw_witness = false;
  for (std::size_t i = 0; i < doc.at("properties").size(); ++i) {
    const Json& p = doc.at("properties").at(i);
    EXPECT_EQ(p.at("bound").size(), 2u);
    if (p.contains("witness")) {
      saw_witness = true;
      EXPECT_EQ(p.at("witness").at("rates").size(), model.num_classes());
    }
  }
  EXPECT_TRUE(saw_witness);
  EXPECT_EQ(doc.at("diagnostics").at("format").as_string(), "cpm-lint/v1");
}

TEST(Certify, RuleSetSilencesCertifyRules) {
  const auto model = core::make_enterprise_model(0.6);
  BoxSpec box = default_box(model);
  box.rates[0] = core::Interval{model.classes()[0].rate.value(),
                                model.classes()[0].rate.value() * 100.0};
  CertifyOptions options;
  options.rules.disable("CPM-C001");
  const CertifyReport report = certify_model(model, box, options);
  // The verdict still records the refutation; only the diagnostic is
  // silenced.
  EXPECT_GT(report.count(Verdict::kRefuted), 0u);
  for (const auto& d : report.diagnostics.diagnostics())
    EXPECT_NE(d.rule_id, "CPM-C001");
}

// --- Boundary agreement: lint, certify and runtime validation ----------

core::ClusterModel rho_exactly_one_model() {
  // One single-server FCFS tier, one class, lambda * E[S] == 1 exactly:
  // rate 2, demand mean 0.5, f == f_base so no rescaling happens.
  core::Tier tier;
  tier.name = "only";
  tier.servers = 1;
  tier.discipline = queueing::Discipline::kFcfs;
  auto dvfs = tier.power.dvfs();
  core::WorkloadClass cls;
  cls.name = "all";
  cls.rate = units::per_second(2.0 * dvfs.f_max.value());  // cancel the f_max speedup exactly...
  cls.route = {{0, Distribution::exponential(0.5)}};  // ...E[S] = 0.5
  // Guard the construction: rho must be exactly 1.0 at f_max.
  return core::ClusterModel({tier}, {cls});
}

TEST(CertifyBoundary, RhoExactlyOneAgreesAcrossLintCertifyAndRuntime) {
  const auto model = rho_exactly_one_model();
  const auto f = model.max_frequencies();
  ASSERT_EQ(core::tier_utilizations(model, f)[0], 1.0);

  // Runtime: the boundary is unstable (steady state needs rho < 1).
  EXPECT_FALSE(model.evaluate(f).stable);
  EXPECT_EQ(model.power_at(f).value(), kInf);

  // Lint: CPM-L001 fires with the shared description.
  const lint::LintReport lint_report = lint::lint_model(model);
  const auto* l = find_diag(lint_report, "CPM-L001", "tiers[0]");
  ASSERT_NE(l, nullptr);

  // Certify: the point box refutes stability with witness value 1.0 and
  // the identical shared-description prefix.
  const CertifyReport cert = certify_model(model, default_box(model));
  const auto* stab = find_property(cert, "stability[only]");
  ASSERT_NE(stab, nullptr);
  EXPECT_EQ(stab->verdict, Verdict::kRefuted);
  EXPECT_EQ(stab->witness.value, 1.0);
  const auto* c = find_diag(cert.diagnostics, "CPM-C001", "tiers[0]");
  ASSERT_NE(c, nullptr);
  const std::string shared =
      core::overload_description(model, {false, 0, 1.0});
  EXPECT_EQ(l->message.rfind(shared, 0), 0u) << l->message;
  EXPECT_EQ(c->message.rfind(shared, 0), 0u) << c->message;
}

TEST(CertifyBoundary, ZeroClassModelsAreRejectedEverywhere) {
  // The model type itself refuses empty tiers/classes, so certify can
  // never see one; the document-scope linter reports the same defect as
  // diagnostics instead of throwing.
  EXPECT_THROW(core::ClusterModel({}, {}), Error);
  EXPECT_THROW(
      core::ClusterModel(core::make_enterprise_model(0.6).tiers(), {}), Error);
  const lint::LintReport report =
      lint::lint_document(Json::parse(R"({"tiers": [], "classes": []})"));
  EXPECT_FALSE(report.diagnostics().empty());
}

TEST(CertifyBoundary, SingleServerTiersAgreeAtThePointBox) {
  // Single-server tiers take the exact single_server_delays path (no
  // Bondi-Buzen approximation): certify's point enclosure must pin the
  // concrete evaluation bit for bit.
  auto model = core::make_enterprise_model(0.6);
  std::vector<int> servers(model.num_tiers(), 1);
  // Keep it stable: shrink rates until every tier fits one server.
  core::ClusterModel single = model.with_servers(servers).with_rate_scale(0.1);
  const auto ev = single.evaluate(single.max_frequencies());
  ASSERT_TRUE(ev.stable);

  const CertifyReport cert = certify_model(single, default_box(single));
  EXPECT_TRUE(cert.all_proved());
  for (std::size_t k = 0; k < single.num_classes(); ++k) {
    const auto* p =
        find_property(cert, "sla-mean[" + single.classes()[k].name + "]");
    if (p == nullptr) continue;
    EXPECT_EQ(p->bound.lo, ev.net.e2e_delay[k].value()) << p->property;
    EXPECT_EQ(p->bound.hi, ev.net.e2e_delay[k].value()) << p->property;
  }
}

}  // namespace
}  // namespace cpm::certify
