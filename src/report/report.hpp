#pragma once
// Expectation-gated regression evaluation: joins run manifests
// (obs/manifest.hpp, schema ecnd-manifest-v1) against the codified paper
// claims in bench/expectations.json, then renders a Markdown report with one
// pass/warn/fail verdict per observable. Performance is compared elsewhere,
// by scripts/ab.py over perfbench.
// The `ecnd-report` binary (ecnd_report_main.cpp) is the CLI;
// scripts/check.sh --report is the CI gate built on it.
//
// Expectation schema (ecnd-expectations-v1):
//   { "schema": "ecnd-expectations-v1",
//     "tools": {
//       "<tool>": {
//         "claim": "<EXPERIMENTS.md anchor this tool's claims live under>",
//         "observables": {
//           "<name>": { "min": x, "max": y,          // hard range -> fail
//                       "warn_min": a, "warn_max": b, // soft range -> warn
//                       "equals": true|false|n,       // exact alternative
//                       "claim": "<one-line paper claim>" }, ... } }, ... } }
//
// Semantics per observable:
//   * missing manifest, missing observable, or a JSON-null value -> FAIL
//     (an expectation that cannot be measured is a broken gate, not a pass);
//   * value outside [min, max] (or != equals) -> FAIL;
//   * value inside the hard range but outside [warn_min, warn_max] -> WARN;
//   * otherwise PASS.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace ecnd::report {

enum class Status { kPass, kWarn, kFail };

const char* status_name(Status s);

struct Finding {
  std::string tool;             ///< harness
  std::string name;             ///< observable / metric name
  std::optional<double> value;  ///< measured value (nullopt: missing/null)
  std::string expected;         ///< human-readable expectation text
  Status status = Status::kPass;
  std::string note;             ///< claim text or failure explanation
};

struct Report {
  std::vector<Finding> observables;

  int count(Status s) const;
  /// Gate verdict: no FAIL anywhere.
  bool ok() const;
};

/// Evaluate expectations against parsed manifests (any JSON without the
/// manifest schema is ignored).
Report evaluate(const Json& expectations, const std::vector<Json>& manifests);

/// Render the report as Markdown. `meta` is a one-line provenance note
/// (which expectation file, how many manifests) placed under the title.
void write_markdown(const Report& report, const std::string& meta,
                    std::ostream& out);

}  // namespace ecnd::report
