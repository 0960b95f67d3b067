// Erlang loss/delay formulas for multi-server stations.
#pragma once

namespace cpm::queueing {

/// Erlang-B blocking probability for `servers` servers and offered load
/// `a` = lambda/mu (in Erlangs). Computed by the standard numerically
/// stable recurrence B(0) = 1, B(c) = a B(c-1) / (c + a B(c-1)).
double erlang_b(int servers, double a);

/// Erlang-C probability that an arriving job waits in an M/M/c queue with
/// offered load `a` < servers. Derived from Erlang-B:
/// C = c B / (c - a (1 - B)).
double erlang_c(int servers, double a);

/// Mean waiting time (time in queue, excluding service) of M/M/c with
/// arrival rate `lambda` and per-server rate `mu`. Requires stability
/// (lambda < servers * mu); throws cpm::Error otherwise.
double mmc_mean_wait(int servers, double lambda, double mu);

}  // namespace cpm::queueing
