// Figure 9: two TIMELY flows under three starting conditions end up in
// completely different operating regimes (infinite fixed points, Theorem 4):
//   (a) both start at 5 Gb/s at t=0
//   (b) both start at 5 Gb/s, the second 10 ms late
//   (c) one starts at 7 Gb/s, the other at 3 Gb/s
// Packet-level simulation with per-packet pacing, as in the paper.

#include <iostream>
#include <optional>
#include <string>

#include "bench_common.hpp"
#include "core/stats.hpp"
#include "exp/scenarios.hpp"
#include "obs/analyzers.hpp"
#include "obs/manifest.hpp"

using namespace ecnd;

namespace {

exp::LongFlowResult run_case(std::vector<double> fractions,
                             std::vector<double> starts) {
  exp::LongFlowConfig config;
  config.protocol = exp::Protocol::kTimely;
  config.flows = 2;
  config.duration_s = 0.3;
  config.initial_rate_fraction = std::move(fractions);
  config.start_times_s = std::move(starts);
  return exp::run_long_flows(config);
}

}  // namespace

int main() {
  bench::banner("Figure 9 - TIMELY ends wherever it started",
                "same workload, different starts -> arbitrary final splits");

  struct Case {
    const char* label;
    const char* key;
    std::vector<double> fractions;
    std::vector<double> starts;
  };
  const Case cases[] = {
      {"(a) both 5 Gb/s at t=0", "a", {0.5, 0.5}, {0.0, 0.0}},
      {"(b) both 5 Gb/s, one 10 ms late", "b", {0.5, 0.5}, {0.0, 0.01}},
      {"(c) 7 Gb/s vs 3 Gb/s", "c", {0.7, 0.3}, {0.0, 0.0}},
  };

  obs::RunManifest manifest("fig09");
  manifest.param("flows", 2)
      .param("duration_s", 0.3)
      .param("tail_t0_s", 0.2)
      .param("tail_t1_s", 0.3);

  Table table({"case", "flow0 (Gb/s)", "flow1 (Gb/s)", "Jain index",
               "sum (Gb/s)"});
  for (const Case& c : cases) {
    const auto result = run_case(c.fractions, c.starts);
    const double r0 = result.rate_gbps[0].mean_over(0.2, 0.3);
    const double r1 = result.rate_gbps[1].mean_over(0.2, 0.3);
    const double jain = require_stat(jain_fairness({r0, r1}), "jain(r0,r1)");
    table.row()
        .cell(c.label)
        .cell(r0, 2)
        .cell(r1, 2)
        .cell(jain, 3)
        .cell(r0 + r1, 2);
    std::cout << c.label << "  flow rates (Gb/s):\n  f0: "
              << bench::shape_line(result.rate_gbps[0], 0.2, 0.3, 1.0)
              << "\n  f1: "
              << bench::shape_line(result.rate_gbps[1], 0.2, 0.3, 1.0) << "\n";

    // Fairness over the settled tail, windowed: the worst 10 ms window shows
    // whether the split is persistent or merely transient.
    const std::optional<double> worst_jain = obs::windowed_jain(
        {&result.rate_gbps[0], &result.rate_gbps[1]}, 0.01, 1e-4, 0.2, 0.3);
    const std::string suffix = std::string(".case_") + c.key;
    manifest.observable("jain_tail" + suffix, jain)
        .observable("jain_windowed_min" + suffix, worst_jain)
        .observable("rate0_gbps" + suffix, r0)
        .observable("rate1_gbps" + suffix, r1)
        .observable("sum_rate_gbps" + suffix, r0 + r1);
  }
  std::cout << "\n";
  table.print(std::cout);
  manifest.write_if_requested();
  return 0;
}
