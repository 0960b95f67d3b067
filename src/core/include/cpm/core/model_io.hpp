// JSON (de)serialisation of ClusterModel — the cpmctl CLI's file format.
//
// Schema (all power/DVFS fields optional with typical-2011 defaults):
//
// {
//   "tiers": [
//     {"name": "web", "servers": 2, "discipline": "np-priority",
//      "server_cost": 1.0,
//      "power": {"idle_watts": 150, "busy_watts": 250, "alpha": 3,
//                "f_min": 0.6, "f_max": 1.0, "f_base": 1.0}},
//     ...
//   ],
//   "classes": [                       // order = priority, 0 highest
//     {"name": "gold", "rate": 4.0,
//      "sla": {"max_mean_delay": 0.25,           // optional, any subset
//              "max_percentile_delay": 0.8, "percentile": 0.95},
//      "route": [
//        {"tier": "web", "service": {"dist": "exponential", "mean": 0.02}},
//        {"tier": "db",  "service": {"dist": "hyperexp2", "mean": 0.03,
//                                    "scv": 2.0}},
//        ...
//      ]},
//     ...
//   ]
// }
//
// Route steps may reference tiers by name or by index. Service objects
// accept: deterministic{value}, exponential{mean}, erlang{k, mean},
// gamma{shape, mean}, hyperexp2{mean, scv}, uniform{lo, hi},
// lognormal{mean, scv}, pareto{shape, mean}, or the generic
// {"mean": m, "scv": s} two-moment form.
#pragma once

#include <string>

#include "cpm/common/json.hpp"
#include "cpm/core/cluster_model.hpp"

namespace cpm::core {

/// Parses a model from its JSON form; throws cpm::Error with a
/// field-specific message on schema violations.
ClusterModel model_from_json(const Json& json);

/// Convenience: parse text then model_from_json.
ClusterModel model_from_json_text(const std::string& text);

/// Serialises a model to the schema above (always by-name tier refs).
Json model_to_json(const ClusterModel& model);

/// A tier's "power" block as power::ServerPower::typical_2011_server()
/// writes it: the value of each field the document leaves out.
Json power_field_defaults();

/// Distribution <-> JSON (exposed for tests and tooling).
Distribution distribution_from_json(const Json& json);
Json distribution_to_json(const Distribution& dist);

/// Discipline name parsing ("fcfs", "np-priority", "p-priority", "ps").
queueing::Discipline discipline_from_name(const std::string& name);

}  // namespace cpm::core
