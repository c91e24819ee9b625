// Ablation (paper §5.1: "We sweep the values of all DCQCN and TIMELY
// parameters and present the best combinations. Therefore, the performance
// difference is less about parameter tuning..."). We sweep each protocol's
// main knobs at load 0.6 and report small-flow FCT: no TIMELY setting
// reaches DCQCN's tail behavior.

#include <iostream>

#include "bench_common.hpp"
#include "core/env_knob.hpp"
#include "exp/scenarios.hpp"

using namespace ecnd;

namespace {

void report(Table& table, const char* label, const exp::FctConfig& config) {
  const auto result = exp::run_fct_experiment(config);
  table.row()
      .cell(label)
      .cell(result.small.median_us, 0)
      .cell(result.small.p90_us, 0)
      .cell(result.small.p99_us, 0)
      .cell(result.queue_bytes.mean_over(0.0, 1e9) / 1e3, 1)
      .cell(require_stat(result.queue_bytes.max_over(0.0, 1e9), "queue max") / 1e3, 1);
}

}  // namespace

int main() {
  bench::banner("Ablation - parameter sweeps at load 0.6",
                "the DCQCN/TIMELY gap is structural, not a tuning artifact");

  const bool quick = env::quick();
  const int flows = quick ? 500 : 1500;
  const double load = 0.6;

  Table table({"configuration", "median (us)", "p90 (us)", "p99 (us)",
               "queue mean (KB)", "queue max (KB)"});

  {
    auto c = exp::make_fct_config(exp::Protocol::kDcqcn, load);
    c.num_flows = flows;
    report(table, "DCQCN defaults", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kDcqcn, load);
    c.num_flows = flows;
    c.dcqcn.rate_ai = mbps(10.0);
    report(table, "DCQCN R_AI=10Mb/s", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kDcqcn, load);
    c.num_flows = flows;
    c.red.kmin = kilobytes(5.0);
    c.red.kmax = kilobytes(100.0);
    report(table, "DCQCN Kmin=5KB Kmax=100KB", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kDcqcn, load);
    c.num_flows = flows;
    c.dcqcn.g = 1.0 / 64.0;
    report(table, "DCQCN g=1/64", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kTimely, load);
    c.num_flows = flows;
    report(table, "TIMELY defaults (64KB bursts)", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kTimely, load);
    c.num_flows = flows;
    c.timely.segment = kilobytes(16.0);
    report(table, "TIMELY Seg=16KB bursts", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kTimely, load);
    c.num_flows = flows;
    c.timely.burst_pacing = false;
    c.timely.segment = kilobytes(16.0);
    report(table, "TIMELY per-packet pacing", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kTimely, load);
    c.num_flows = flows;
    c.timely.t_low = microseconds(20.0);
    c.timely.t_high = microseconds(200.0);
    report(table, "TIMELY T_low=20us T_high=200us", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kTimely, load);
    c.num_flows = flows;
    c.timely.delta = mbps(40.0);
    report(table, "TIMELY delta=40Mb/s", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kPatchedTimely, load);
    c.num_flows = flows;
    report(table, "Patched TIMELY defaults", c);
  }
  {
    auto c = exp::make_fct_config(exp::Protocol::kPatchedTimely, load);
    c.num_flows = flows;
    c.patched.beta = 0.02;
    report(table, "Patched TIMELY beta=0.02", c);
  }
  table.print(std::cout);
  std::cout << "\n(set ECND_QUICK=1 for a faster, noisier run)\n";
  return 0;
}
