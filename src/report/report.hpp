#pragma once
// Expectation-gated regression evaluation: joins run manifests
// (obs/manifest.hpp, schema ecnd-manifest-v1) against the codified paper
// claims in bench/expectations.json, and the current perf numbers against
// the recorded BENCH_obs.json baseline with its per-metric tolerances, then
// renders a Markdown report with one pass/warn/fail verdict per observable.
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
// Perf metrics compare current/baseline against the baseline's recorded
// per-metric tolerance; out-of-tolerance is WARN by default (wall-clock on a
// shared CI box is noisy) and FAIL with strict_perf.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace ecnd::report {

enum class Status { kPass, kWarn, kFail };

const char* status_name(Status s);

struct Finding {
  std::string tool;             ///< harness (or "perf" for baseline rows)
  std::string name;             ///< observable / metric name
  std::optional<double> value;  ///< measured value (nullopt: missing/null)
  std::string expected;         ///< human-readable expectation text
  Status status = Status::kPass;
  std::string note;             ///< claim text or failure explanation
};

struct Report {
  std::vector<Finding> observables;
  std::vector<Finding> perf;

  int count(Status s) const;
  /// Gate verdict: no FAIL anywhere.
  bool ok() const;
};

/// Evaluate expectations against parsed manifests (any JSON without the
/// manifest schema is ignored). bench_baseline / bench_current may be
/// nullptr to skip the perf section; both must be ecnd-bench-v2
/// ({"metrics": {name: {value, tolerance}}}; a missing tolerance defaults to
/// `default_tolerance`), anything else throws std::runtime_error.
Report evaluate(const Json& expectations, const std::vector<Json>& manifests,
                const Json* bench_baseline, const Json* bench_current,
                bool strict_perf, double default_tolerance = 0.5);

/// Render the report as Markdown. `meta` is a one-line provenance note
/// (which expectation file, how many manifests) placed under the title.
void write_markdown(const Report& report, const std::string& meta,
                    std::ostream& out);

}  // namespace ecnd::report
