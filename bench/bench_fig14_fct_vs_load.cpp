// Figure 14: median and 90th-percentile FCT of small (<100KB) flows vs load
// on the Figure-13 dumbbell, for DCQCN, original TIMELY and Patched TIMELY
// at their papers' default settings (load 1.0 = 8 Gb/s offered).
//
// The 12 (load, protocol) runs are independent simulations, so the sweep
// runs on the parallel engine; rows land in pre-sized slots and print in
// sweep order, byte-identical at any ECND_THREADS.
//
// Expected shape: at higher loads TIMELY's tail FCT blows up (queue grows
// large and variable); patched TIMELY narrows but does not close the gap;
// DCQCN stays bounded by the RED band.
//
// To decompose an inflated tail into per-hop queueing, run with the flight
// recorder armed (ECND_RUN_DIR=fct ECND_RUN_DETAIL=flight ECND_QUICK=1): the
// sampled flows' postcards and Perfetto spans localize where FCT was spent
// without perturbing the CSV (OBSERVABILITY.md "Flight recorder").

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/env_knob.hpp"
#include "exp/scenarios.hpp"
#include "obs/manifest.hpp"

using namespace ecnd;

namespace {

struct SweepPoint {
  double load = 0.0;
  exp::Protocol protocol = exp::Protocol::kDcqcn;
};

// Journalable reduction of one cell: the statistics the table and manifest
// actually print, not the full FctResult (whose traces would bloat the
// journal for nothing).
struct FctRow {
  double median_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t count = 0;
  double queue_mean_kb = 0.0;
  std::uint64_t drops = 0;
  std::uint64_t truncated = 0;  ///< flows still in flight at the horizon
};

}  // namespace

int main(int argc, char** argv) {
  bench::SweepContext ctx(argc, argv);
  bench::banner("Figure 14 - small-flow FCT vs load",
                "DCQCN best; TIMELY worst at high load; patched in between");

  const bool quick = env::quick();
  const int flows = quick ? 800 : 3000;

  std::vector<SweepPoint> grid;
  for (double load : {0.2, 0.4, 0.6, 0.8}) {
    for (auto protocol : {exp::Protocol::kDcqcn, exp::Protocol::kTimely,
                          exp::Protocol::kPatchedTimely}) {
      grid.push_back({load, protocol});
    }
  }

  std::vector<std::string> cells;
  for (const SweepPoint& point : grid) {
    char cell[96];
    std::snprintf(cell, sizeof(cell),
                  "fig14|%s|load=%.17g|flows=%d|seed=20161212",
                  exp::protocol_key(point.protocol), point.load, flows);
    cells.push_back(cell);
  }

  const auto sweep = journaled_map<FctRow>(
      ctx.journal(), cells,
      [&](std::size_t i, int) {
        auto config = exp::make_fct_config(grid[i].protocol, grid[i].load);
        config.num_flows = flows;
        config.seed = 20161212;  // CoNEXT'16
        const exp::FctResult result = exp::run_fct_experiment(config);
        FctRow row;
        row.median_us = result.small.median_us;
        row.p90_us = result.small.p90_us;
        row.p99_us = result.small.p99_us;
        row.count = static_cast<std::uint64_t>(result.small.count);
        row.queue_mean_kb = result.queue_bytes.mean_over(0.0, 1e9) / 1e3;
        row.drops = static_cast<std::uint64_t>(result.drops);
        row.truncated = static_cast<std::uint64_t>(result.truncated);
        return row;
      },
      [](const FctRow& r) {
        FieldWriter w;
        w.f(r.median_us).f(r.p90_us).f(r.p99_us).u(r.count).f(r.queue_mean_kb);
        w.u(r.drops).u(r.truncated);
        return w.str();
      },
      [](FieldParser& p) {
        FctRow r;
        r.median_us = p.f();
        r.p90_us = p.f();
        r.p99_us = p.f();
        r.count = p.u();
        r.queue_mean_kb = p.f();
        r.drops = p.u();
        r.truncated = p.u();
        return r;
      },
      // One attempt: a cell is a pure function of its index, so a retry
      // would fail the same way.
      par::FaultPolicy{1});
  const std::vector<FctRow>& results = sweep.rows;
  bench::report_timing("fig14", sweep.report.timing);
  bench::report_journal("fig14", ctx.journal(), sweep.stats);

  obs::RunManifest manifest("fig14");
  manifest.param("flows", flows)
      .param("seed", std::int64_t{20161212})
      .param("quick", quick)
      .param("loads", "0.2,0.4,0.6,0.8");

  Table table({"load", "protocol", "median (us)", "p90 (us)", "p99 (us)",
               "small flows", "queue mean (KB)", "drops", "truncated"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const FctRow& result = results[i];
    table.row()
        .cell(grid[i].load, 1)
        .cell(exp::protocol_name(grid[i].protocol))
        .cell(result.median_us, 0)
        .cell(result.p90_us, 0)
        .cell(result.p99_us, 0)
        .cell(static_cast<long long>(result.count))
        .cell(result.queue_mean_kb, 1)
        .cell(static_cast<long long>(result.drops))
        .cell(static_cast<long long>(result.truncated));

    char key[64];
    std::snprintf(key, sizeof(key), ".%s.load%02d",
                  exp::protocol_key(grid[i].protocol),
                  static_cast<int>(grid[i].load * 10 + 0.5));
    manifest.observable("fct_median_us" + std::string(key), result.median_us)
        .observable("fct_p90_us" + std::string(key), result.p90_us)
        .observable("queue_mean_kb" + std::string(key), result.queue_mean_kb)
        .observable("fct_truncated" + std::string(key),
                    static_cast<double>(result.truncated));
  }
  table.print(std::cout);
  bench::record_failures("fig14", cells, sweep.report, manifest);
  manifest.write_if_requested();
  std::cout << "\n(set ECND_QUICK=1 for a faster, noisier run; ECND_THREADS=k"
               " caps the sweep's workers)\n";
  return sweep.report.all_ok() ? 0 : 1;
}
