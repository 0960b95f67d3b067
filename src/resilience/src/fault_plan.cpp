#include "cpm/resilience/fault_plan.hpp"

#include "cpm/common/error.hpp"

namespace cpm::resilience {

FaultKind fault_kind_from_name(const std::string& name) {
  if (name == "eio") return FaultKind::kEio;
  if (name == "enospc") return FaultKind::kEnospc;
  if (name == "torn") return FaultKind::kTorn;
  if (name == "rename-fail") return FaultKind::kRenameFail;
  if (name == "bitflip") return FaultKind::kBitFlip;
  throw Error("fault plan: unknown fault kind '" + name +
              "' (expected eio|enospc|torn|rename-fail|bitflip)");
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kEio: return "eio";
    case FaultKind::kEnospc: return "enospc";
    case FaultKind::kTorn: return "torn";
    case FaultKind::kRenameFail: return "rename-fail";
    case FaultKind::kBitFlip: return "bitflip";
  }
  return "unknown";
}

namespace {

bool known_op(const std::string& op) {
  return op == "*" || op == "read" || op == "write" || op == "append" ||
         op == "remove" || op == "mkdir" || op == "list";
}

}  // namespace

FaultPlan fault_plan_from_json(const Json& doc) {
  require(doc.is_object(), "fault plan: document must be a JSON object");
  require(doc.string_or("schema", "") == "cpm-fault-plan/v1",
          "fault plan: schema must be \"cpm-fault-plan/v1\"");
  FaultPlan plan;
  plan.seed = doc.integer_or<std::uint64_t>("seed", 0, 0);
  if (!doc.contains("rules")) return plan;
  const Json& rules = doc.at("rules");
  require(rules.is_array(), "fault plan: rules must be an array");
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Json& r = rules.at(i);
    require(r.is_object(), "fault plan: each rule must be an object");
    FaultRule rule;
    rule.op = r.string_or("op", "*");
    if (!known_op(rule.op))
      throw Error("fault plan: unknown op '" + rule.op +
                  "' (expected *|read|write|append|remove|mkdir|list)");
    rule.path = r.string_or("path", "");
    rule.kind = fault_kind_from_name(r.string_or("kind", "eio"));
    rule.after = r.integer_or<std::uint64_t>("after", 0, 0);
    rule.count = r.integer_or<std::uint64_t>("count", 0, 0);
    rule.probability = r.number_or("probability", 1.0);
    require(rule.probability >= 0.0 && rule.probability <= 1.0,
            "fault plan: rule 'probability' must be in [0, 1]");
    plan.rules.push_back(rule);
  }
  return plan;
}

}  // namespace cpm::resilience
