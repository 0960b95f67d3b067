#include "cpm/certify/certificate.hpp"

#include <utility>

namespace cpm::certify {

namespace {

/// Re-verdict summary: emitted as CPM-C010 when the certificate fails.
void emit_not_certified(Certificate& cert, const CertifyOptions& options,
                        const std::string& reason) {
  lint::emit(cert.report.diagnostics, options.rules, "CPM-C010", "solution",
             cert.solution + " solution is not certified: " + reason,
             "re-run the optimizer with tighter margins or shrink the "
             "uncertainty box");
}

std::string verdict_summary(const CertifyReport& report) {
  return std::to_string(report.count(Verdict::kRefuted)) + " refuted and " +
         std::to_string(report.count(Verdict::kUndecided)) +
         " undecided propert(ies) over the box";
}

Certificate run_certificate(std::string solution_kind, bool feasible,
                            const core::ClusterModel& solved_model,
                            const BoxSpec& box, const CertifyOptions& options) {
  Certificate cert;
  cert.solution = std::move(solution_kind);
  cert.optimizer_feasible = feasible;
  if (!feasible) {
    emit_not_certified(cert, options,
                       "the optimizer itself reported it infeasible");
    return cert;
  }
  cert.report = certify_model(solved_model, box, options);
  cert.certified = cert.report.all_proved();
  if (!cert.certified)
    emit_not_certified(cert, options, verdict_summary(cert.report));
  return cert;
}

}  // namespace

Certificate certify_cost_solution(const core::ClusterModel& model,
                                  const core::CostOptResult& solution,
                                  const BoxSpec& box,
                                  const CertifyOptions& options) {
  // P-C sizes servers at f_max, so the certificate pins the box's
  // frequency dimensions to that operating point.
  BoxSpec pinned = box;
  const std::vector<double> freqs = model.max_frequencies();
  for (std::size_t i = 0; i < pinned.frequencies.size(); ++i)
    pinned.frequencies[i] = core::Interval::point(freqs[i]);

  if (!solution.feasible) {
    Certificate cert = run_certificate("server-sizing", false, model, pinned,
                                       options);
    cert.servers = solution.servers;
    return cert;
  }
  Certificate cert =
      run_certificate("server-sizing", true,
                      model.with_servers(solution.servers), pinned, options);
  cert.servers = solution.servers;
  return cert;
}

Certificate certify_frequency_solution(const core::ClusterModel& model,
                                       const core::FrequencyOptResult& solution,
                                       const BoxSpec& box,
                                       const CertifyOptions& options) {
  BoxSpec pinned = box;
  if (solution.feasible)
    for (std::size_t i = 0; i < pinned.frequencies.size(); ++i)
      pinned.frequencies[i] = core::Interval::point(solution.frequencies[i]);

  Certificate cert =
      run_certificate("frequency-plan", solution.feasible, model, pinned,
                      options);
  cert.frequencies = solution.frequencies;
  return cert;
}

Json certificate_to_json(const Certificate& cert,
                         const core::ClusterModel& model, const BoxSpec& box) {
  JsonObject doc;
  doc["format"] = "cpm-certificate/v1";
  doc["solution"] = cert.solution;
  doc["optimizer_feasible"] = cert.optimizer_feasible;
  doc["certified"] = cert.certified;
  if (!cert.servers.empty()) {
    JsonArray servers;
    for (int n : cert.servers) servers.emplace_back(n);
    doc["servers"] = Json(std::move(servers));
  }
  if (!cert.frequencies.empty()) {
    JsonArray freqs;
    for (double f : cert.frequencies) freqs.emplace_back(f);
    doc["frequencies"] = Json(std::move(freqs));
  }
  doc["report"] = render_certify_json(cert.report, "certificate", box, model);
  return Json(std::move(doc));
}

}  // namespace cpm::certify
