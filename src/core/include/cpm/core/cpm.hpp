// Umbrella header: the full public API of the cpm library.
//
//   #include <cpm/core/cpm.hpp>
//
// pulls in the cluster model, the analytical queueing/power substrates,
// the optimisers (P-D, P-E, P-C), the discrete-event simulator and the
// validation harness. Fine-grained headers remain available for users who
// want a single substrate (e.g. just <cpm/queueing/priority.hpp>).
#pragma once

#include "cpm/common/distribution.hpp"
#include "cpm/common/error.hpp"
#include "cpm/common/json.hpp"
#include "cpm/common/math.hpp"
#include "cpm/common/rng.hpp"
#include "cpm/common/stats.hpp"
#include "cpm/common/table.hpp"
#include "cpm/core/cluster_model.hpp"
#include "cpm/core/optimizers.hpp"
#include "cpm/core/tier_table.hpp"
#include "cpm/core/validation.hpp"
#include "cpm/opt/integer.hpp"
#include "cpm/power/energy.hpp"
#include "cpm/power/server_power.hpp"
#include "cpm/queueing/basic.hpp"
#include "cpm/queueing/erlang.hpp"
#include "cpm/queueing/network.hpp"
#include "cpm/sim/replication.hpp"
#include "cpm/sim/simulator.hpp"
