// Figure 20: protocol stability under uniform random feedback jitter up to
// 100us. ECN feedback is merely *late*; delay feedback is late AND noisy
// (the jitter lands inside the measured RTT). DCQCN shrugs; (patched)
// TIMELY destabilizes.
//
// The six (jitter, protocol) fluid integrations are independent — each run
// owns its model, jitter process and traces — so the sweep runs on the
// parallel engine into pre-sized slots.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/timely_model.hpp"
#include "obs/analyzers.hpp"
#include "obs/manifest.hpp"

using namespace ecnd;

namespace {

struct SweepPoint {
  bool dcqcn = true;
  double jitter_us = 0.0;
};

struct RowData {
  double queue_mean_kb = 0.0;
  double queue_std_kb = 0.0;
  double rate0_std_gbps = 0.0;
  double sum_rate_gbps = 0.0;
  // Limit-cycle signature of the steady-state queue (reference = window
  // mean, 2KB hysteresis to ignore integrator ripple): a destabilized run
  // shows a large peak-to-peak swing at a well-defined period.
  double osc_pp_kb = 0.0;
  double osc_period_us = 0.0;
};

RowData reduce(const fluid::FluidRun& run) {
  RowData row;
  row.queue_mean_kb = run.queue_bytes.mean_over(0.2, 0.3) / 1e3;
  row.queue_std_kb = run.queue_bytes.stddev_over(0.2, 0.3) / 1e3;
  row.rate0_std_gbps = run.flow_rate_gbps[0].stddev_over(0.2, 0.3);
  row.sum_rate_gbps = run.flow_rate_gbps[0].mean_over(0.2, 0.3) +
                      run.flow_rate_gbps[1].mean_over(0.2, 0.3);
  const auto osc =
      obs::oscillation(run.queue_bytes, 0.2, 0.3, std::nullopt, 2e3);
  row.osc_pp_kb = osc.peak_to_peak / 1e3;
  row.osc_period_us = osc.period * 1e6;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepContext ctx(argc, argv);
  bench::banner("Figure 20 - resilience to feedback jitter (fluid models)",
                "jitter [0,100us]: DCQCN unaffected, TIMELY destabilized");

  std::vector<SweepPoint> grid;
  for (double jitter_us : {0.0, 50.0, 100.0}) {
    grid.push_back({true, jitter_us});
    grid.push_back({false, jitter_us});
  }

  // Canonical cell strings: everything a row depends on, so the journal key
  // changes whenever the scenario (or the build, via the fingerprint) does.
  std::vector<std::string> cells;
  for (const SweepPoint& point : grid) {
    char cell[96];
    std::snprintf(cell, sizeof(cell),
                  "fig20|%s|jitter_us=%.17g|flows=2|dur=0.3|sample=2e-4",
                  point.dcqcn ? "dcqcn" : "patched_timely", point.jitter_us);
    cells.push_back(cell);
  }

  const auto sweep = journaled_map<RowData>(
      ctx.journal(), cells,
      [&](std::size_t i, int) {
        const SweepPoint& point = grid[i];
        const fluid::JitterProcess jitter =
            point.jitter_us > 0.0
                ? fluid::JitterProcess(point.jitter_us * 1e-6, 20e-6, 4242)
                : fluid::JitterProcess();
        if (point.dcqcn) {
          fluid::DcqcnFluidParams p;
          p.num_flows = 2;
          p.feedback_delay = 4e-6;
          p.feedback_jitter = jitter;
          fluid::DcqcnFluidModel model(p);
          return reduce(fluid::simulate(model, 0.3, 2e-4));
        }
        fluid::TimelyFluidParams p = fluid::patched_timely_defaults();
        p.num_flows = 2;
        p.feedback_jitter = jitter;
        fluid::PatchedTimelyFluidModel model(p);
        return reduce(fluid::simulate(model, 0.3, 2e-4));
      },
      [](const RowData& r) {
        FieldWriter w;
        w.f(r.queue_mean_kb)
            .f(r.queue_std_kb)
            .f(r.rate0_std_gbps)
            .f(r.sum_rate_gbps)
            .f(r.osc_pp_kb)
            .f(r.osc_period_us);
        return w.str();
      },
      [](FieldParser& p) {
        RowData r;
        r.queue_mean_kb = p.f();
        r.queue_std_kb = p.f();
        r.rate0_std_gbps = p.f();
        r.sum_rate_gbps = p.f();
        r.osc_pp_kb = p.f();
        r.osc_period_us = p.f();
        return r;
      },
      // One attempt: the integration is deterministic, so a retry would
      // fail the same way.
      par::FaultPolicy{1});
  const std::vector<RowData>& rows = sweep.rows;
  bench::report_timing("fig20", sweep.report.timing);
  bench::report_journal("fig20", ctx.journal(), sweep.stats);

  Table table({"protocol", "jitter", "queue mean (KB)", "queue std (KB)",
               "rate0 std (Gb/s)", "sum rate (Gb/s)", "osc p2p (KB)"});
  obs::RunManifest manifest("fig20");
  manifest.param("flows", 2)
      .param("duration_s", 0.3)
      .param("jitters_us", "0,50,100")
      .param("osc_window_t0_s", 0.2)
      .param("osc_window_t1_s", 0.3);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.row()
        .cell(grid[i].dcqcn ? "DCQCN" : "Patched TIMELY")
        .cell(grid[i].jitter_us, 0)
        .cell(rows[i].queue_mean_kb, 1)
        .cell(rows[i].queue_std_kb, 2)
        .cell(rows[i].rate0_std_gbps, 3)
        .cell(rows[i].sum_rate_gbps, 2)
        .cell(rows[i].osc_pp_kb, 1);

    char key[48];
    std::snprintf(key, sizeof(key), ".%s.jit%03d",
                  grid[i].dcqcn ? "dcqcn" : "patched_timely",
                  static_cast<int>(grid[i].jitter_us));
    manifest.observable("queue_std_kb" + std::string(key),
                        rows[i].queue_std_kb)
        .observable("rate0_std_gbps" + std::string(key),
                    rows[i].rate0_std_gbps)
        .observable("osc_pp_kb" + std::string(key), rows[i].osc_pp_kb)
        .observable("osc_period_us" + std::string(key),
                    rows[i].osc_period_us)
        .observable("sum_rate_gbps" + std::string(key),
                    rows[i].sum_rate_gbps);
  }
  table.print(std::cout);
  std::cout << "\nDelay-based control sees the jitter twice: as staleness and"
               " as corruption of the signal itself (§5.2).\n";
  bench::record_failures("fig20", cells, sweep.report, manifest);
  manifest.write_if_requested();
  return sweep.report.all_ok() ? 0 : 1;
}
