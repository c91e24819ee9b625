// Figure 15: CDF of small-flow FCT at load 0.8 for the three protocols.

#include <iostream>

#include "bench_common.hpp"
#include "core/env_knob.hpp"
#include "core/stats.hpp"
#include "exp/scenarios.hpp"

using namespace ecnd;

int main() {
  bench::banner("Figure 15 - CDF of small-flow FCT at load 0.8",
                "TIMELY's tail stretches far beyond DCQCN's; patched between");

  const bool quick = env::quick();
  const int flows = quick ? 800 : 3000;

  std::vector<std::vector<CdfPoint>> cdfs;
  std::vector<const char*> names;
  int truncated = 0;
  for (auto protocol : {exp::Protocol::kDcqcn, exp::Protocol::kTimely,
                        exp::Protocol::kPatchedTimely}) {
    auto config = exp::make_fct_config(protocol, 0.8);
    config.num_flows = flows;
    config.seed = 20161212;
    const auto result = exp::run_fct_experiment(config);
    cdfs.push_back(empirical_cdf(result.small_fcts_us, 1024));
    names.push_back(exp::protocol_name(protocol));
    if (result.truncated > 0) {
      std::cout << exp::protocol_name(protocol) << ": " << result.truncated
                << " flow(s) truncated at the horizon (excluded from the "
                   "CDF)\n";
      truncated += result.truncated;
    }
  }

  Table table({"percentile", "DCQCN (us)", "TIMELY (us)", "Patched (us)"});
  auto value_at = [](const std::vector<CdfPoint>& cdf, double frac) {
    for (const auto& point : cdf) {
      if (point.fraction >= frac) return point.value;
    }
    return cdf.empty() ? 0.0 : cdf.back().value;
  };
  for (double pct : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    table.row().cell(pct, 1);
    for (const auto& cdf : cdfs) table.cell(value_at(cdf, pct / 100.0), 0);
  }
  table.print(std::cout);
  std::cout << "truncated flows (all protocols): " << truncated << "\n";
  return 0;
}
