// Figure 16: bottleneck queue length over time at load 0.8.
//
// Paper: TIMELY's queue grows very high and is highly variable; DCQCN's has
// a fixed point between the RED thresholds and stays within the band even in
// transients; patched TIMELY operates between the two.
//
// The queue excursions here are fleet-aggregate; to attribute one to the
// flows riding it, arm the flight recorder (ECND_RUN_DIR=q16
// ECND_RUN_DETAIL=flight) — each sampled flow's postcards carry the backlog
// it joined and the marking probability it saw at the bottleneck
// (OBSERVABILITY.md "Flight recorder").

#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "exp/scenarios.hpp"
#include "obs/analyzers.hpp"
#include "obs/manifest.hpp"

using namespace ecnd;

int main() {
  bench::banner("Figure 16 - bottleneck queue at load 0.8",
                "TIMELY large + highly variable; DCQCN within the RED band");

  const char* quick = std::getenv("ECND_QUICK");
  const int flows = quick ? 800 : 3000;
  const double kmax_bytes = 200e3;

  obs::RunManifest manifest("fig16");
  manifest.param("flows", flows)
      .param("seed", std::int64_t{20161212})
      .param("load", 0.8)
      .param("kmax_kb", 200.0)
      .param("quick", quick != nullptr);

  Table table({"protocol", "queue mean (KB)", "p50 (KB)", "std (KB)",
               "max (KB)", "time > Kmax(200KB) %"});
  for (auto protocol : {exp::Protocol::kDcqcn, exp::Protocol::kTimely,
                        exp::Protocol::kPatchedTimely}) {
    auto config = exp::make_fct_config(protocol, 0.8);
    config.num_flows = flows;
    config.seed = 20161212;
    const auto result = exp::run_fct_experiment(config);
    const auto& q = result.queue_bytes;
    std::vector<double> samples;
    std::size_t above = 0;
    for (const auto& s : q.samples()) {
      samples.push_back(s.value);
      above += s.value > kmax_bytes;
    }
    const double mean_kb = q.mean_over(0.0, 1e9) / 1e3;
    const double std_kb = q.stddev_over(0.0, 1e9) / 1e3;
    const double max_kb = require_stat(q.max_over(0.0, 1e9), "queue max") / 1e3;
    table.row()
        .cell(exp::protocol_name(protocol))
        .cell(mean_kb, 1)
        .cell(require_stat(percentile(samples, 50.0), "queue median") / 1e3, 1)
        .cell(std_kb, 1)
        .cell(max_kb, 1)
        .cell(100.0 * static_cast<double>(above) /
                  static_cast<double>(q.size()), 2);
    std::cout << exp::protocol_name(protocol) << " queue (KB):\n  "
              << bench::shape_line(q, 0.0, 1e9) << "\n";

    // Time-weighted excursion above the RED Kmax band (the sample-count
    // percentage in the table ignores spacing; this one integrates).
    const auto over = q.empty()
                          ? obs::OvershootResult{}
                          : obs::overshoot(q, kmax_bytes, 0.0, 1e9);
    const std::string suffix = std::string(".") + exp::protocol_key(protocol);
    manifest.observable("queue_mean_kb" + suffix, mean_kb)
        .observable("queue_std_kb" + suffix, std_kb)
        .observable("queue_max_kb" + suffix, max_kb)
        .observable("time_above_kmax" + suffix, over.time_above_fraction)
        .observable("overshoot_kb" + suffix, over.max_excursion / 1e3);
  }
  std::cout << "\n";
  table.print(std::cout);
  manifest.write_if_requested();
  return 0;
}
