// Machine-checkable certificates for optimizer outputs.
//
// The optimizers (minimize_cost_for_slas, the P-D/P-E frequency programs)
// return a point solution plus a feasibility flag — trusted only at the
// nominal parameters they were solved for. certify_cost_solution() and
// certify_frequency_solution() re-verify that solution STATICALLY over an
// uncertainty box: the sized/tuned model's stability and every SLA must
// be PROVED for all parameter choices, or the certificate records which
// constraint is refuted (with a concrete witness) or undecided. A failed
// certificate additionally emits the summary rule CPM-C010 so exit-code
// gating catches it like any other error diagnostic.
#pragma once

#include <string>

#include "cpm/certify/box.hpp"
#include "cpm/certify/certify.hpp"
#include "cpm/common/json.hpp"
#include "cpm/core/optimizers.hpp"

namespace cpm::certify {

struct Certificate {
  std::string solution;       ///< "server-sizing" or "frequency-plan"
  bool optimizer_feasible = false;  ///< the optimizer's own claim
  bool certified = false;     ///< every property PROVED over the box
  std::vector<int> servers;          ///< server-sizing solutions
  std::vector<double> frequencies;   ///< frequency-plan solutions
  CertifyReport report;
};

/// Certifies a P-C server-sizing result: the model resized to
/// solution.servers must prove every property over `box` at the sizing
/// frequencies, every tier at f_max. An infeasible solution yields an
/// uncertified certificate without running the prover.
Certificate certify_cost_solution(const core::ClusterModel& model,
                                  const core::CostOptResult& solution,
                                  const BoxSpec& box,
                                  const CertifyOptions& options = {});

/// Certifies a P-D/P-E frequency plan: the model must prove every
/// property over `box` with its frequency dimensions pinned to the
/// solution's operating point (rates and mu_scale stay uncertain).
Certificate certify_frequency_solution(const core::ClusterModel& model,
                                       const core::FrequencyOptResult& solution,
                                       const BoxSpec& box,
                                       const CertifyOptions& options = {});

/// Serialises a certificate, format "cpm-certificate/v1".
Json certificate_to_json(const Certificate& cert,
                         const core::ClusterModel& model, const BoxSpec& box);

}  // namespace cpm::certify
