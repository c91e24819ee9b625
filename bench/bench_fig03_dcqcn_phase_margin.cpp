// Figure 3: DCQCN phase margin.
//   (a) vs number of flows, for control-loop delays tau* in {1..100us}
//   (b) effect of shrinking R_AI at high delay
//   (c) effect of widening Kmax at high delay
//
// The margins come from numerically linearizing the symmetric-flow reduced
// fluid model around the Theorem-1 fixed point (on the extended marking
// slope, which the paper's Equations 9/14 implicitly assume) and sweeping
// the Bode criterion, the same procedure as the paper's Appendix A.
//
// Every (parameter, N) cell is an independent linearization, so each grid
// runs on the parallel sweep engine (ECND_THREADS workers) into pre-sized
// slots; the printed tables are byte-identical at any thread count.
//
// Reproduction note (also in EXPERIMENTS.md): our linearization yields
// margins that *increase* monotonically with N and decrease with delay —
// the paper's large-N stabilization and delay sensitivity — while its
// mid-N negative dip appears in our framework as a saturation-driven limit
// cycle of the verbatim Equation-3 profile (bench_fig04/05) rather than as
// a negative linear margin.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "control/dcqcn_analysis.hpp"
#include "obs/manifest.hpp"

using namespace ecnd;

namespace {

/// One grid point: a parameter value (delay, R_AI or Kmax) crossed with N,
/// mutated onto the defaults by `apply` below.
struct GridPoint {
  double param = 0.0;
  int num_flows = 0;
};

/// One sub-figure's sweep output: the flat margin grid (param-major,
/// matching the printed rows), the canonical cell strings it was journaled
/// under, and the fault-isolation report for the manifest.
struct MarginGrid {
  std::vector<double> margins;
  std::vector<std::string> cells;
  par::IsolationReport report;
};

/// Sweep margins for param x N on the thread pool; rows print in grid order.
/// `cell_tag` canonically names the swept parameter in the journal key
/// (e.g. "a|tau_us").
template <typename Apply>
MarginGrid print_margin_grid(bench::SweepContext& ctx, const char* label,
                             const char* cell_tag, const char* param_header,
                             const std::vector<double>& params,
                             const std::vector<int>& flow_counts,
                             int param_precision, Apply apply) {
  std::vector<GridPoint> grid;
  grid.reserve(params.size() * flow_counts.size());
  for (double param : params) {
    for (int n : flow_counts) grid.push_back({param, n});
  }

  MarginGrid out;
  for (const GridPoint& point : grid) {
    char cell[96];
    std::snprintf(cell, sizeof(cell), "fig03|%s=%.17g|n=%d", cell_tag,
                  point.param, point.num_flows);
    out.cells.push_back(cell);
  }

  auto sweep = journaled_map<double>(
      ctx.journal(), out.cells,
      [&](std::size_t i, int) {
        fluid::DcqcnFluidParams p;
        p.num_flows = grid[i].num_flows;
        apply(p, grid[i].param);
        return control::dcqcn_stability(p).phase_margin_deg;
      },
      [](double margin) { return FieldWriter().f(margin).str(); },
      [](FieldParser& p) { return p.f(); },
      // One attempt: the analysis is deterministic, so a retry would fail
      // the same way.
      par::FaultPolicy{1});
  bench::report_timing(label, sweep.report.timing);
  bench::report_journal(label, ctx.journal(), sweep.stats);
  out.margins = std::move(sweep.rows);
  out.report = std::move(sweep.report);

  std::vector<std::string> headers{param_header};
  for (int n : flow_counts) headers.push_back("N=" + std::to_string(n));
  Table table(std::move(headers));
  std::size_t slot = 0;
  for (double param : params) {
    table.row().cell(param, param_precision);
    for (std::size_t c = 0; c < flow_counts.size(); ++c) {
      table.cell(out.margins[slot++], 1);
    }
  }
  table.print(std::cout);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::SweepContext ctx(argc, argv);
  bench::banner("Figure 3 - DCQCN phase margin vs flows / R_AI / Kmax",
                "stable at small+large N; tuning R_AI down or Kmax up stabilizes");

  const std::vector<int> flow_counts{2, 4, 6, 8, 10, 16, 24, 32, 48, 64, 100};
  const std::size_t ncols = flow_counts.size();

  std::cout << "(a) phase margin [deg] vs N, per control delay\n";
  const MarginGrid sweep_a = print_margin_grid(
      ctx, "fig03a", "a|tau_us", "tau* (us)", {1.0, 20.0, 50.0, 85.0, 100.0},
      flow_counts, 0, [](fluid::DcqcnFluidParams& p, double delay_us) {
        p.feedback_delay = delay_us * 1e-6;
      });
  const std::vector<double>& grid_a = sweep_a.margins;

  std::cout << "\n(b) phase margin vs N at tau*=100us, per R_AI\n";
  const MarginGrid sweep_b = print_margin_grid(
      ctx, "fig03b", "b|rai_mbps", "R_AI (Mb/s)", {40.0, 20.0, 10.0, 5.0},
      flow_counts, 0, [](fluid::DcqcnFluidParams& p, double rai) {
        p.feedback_delay = 100e-6;
        p.rate_ai = mbps(rai);
      });
  const std::vector<double>& grid_b = sweep_b.margins;

  std::cout << "\n(c) phase margin vs N at tau*=100us, per Kmax\n";
  const MarginGrid sweep_c = print_margin_grid(
      ctx, "fig03c", "c|kmax_kb", "Kmax (KB)", {200.0, 400.0, 1000.0},
      flow_counts, 0, [](fluid::DcqcnFluidParams& p, double kmax) {
        p.feedback_delay = 100e-6;
        p.kmax = kilobytes(kmax);
      });
  const std::vector<double>& grid_c = sweep_c.margins;

  obs::RunManifest manifest("fig03");
  manifest.param("flow_counts_min", flow_counts.front())
      .param("flow_counts_max", flow_counts.back())
      .param("delays_us", "1,20,50,85,100")
      .param("rai_mbps", "40,20,10,5")
      .param("kmax_kb", "200,400,1000");
  // (a) rows: param-major; row 0 = tau*=1us, row 4 = tau*=100us.
  manifest.observable("pm_deg.tau1us.n2", grid_a[0 * ncols])
      .observable("pm_deg.tau1us.n100", grid_a[0 * ncols + ncols - 1])
      .observable("pm_deg.tau100us.n2", grid_a[4 * ncols])
      .observable("pm_deg.tau100us.n100", grid_a[4 * ncols + ncols - 1])
      .observable("pm_deg.tau100us.min",
                  *std::min_element(grid_a.begin() + 4 * ncols, grid_a.end()));
  // (b) shrinking R_AI at tau*=100us recovers margin at small N: compare the
  // N=2 cell at R_AI=40 Mb/s (row 0) vs 5 Mb/s (row 3).
  manifest.observable("pm_gain_deg.rai40to5.n2",
                      grid_b[3 * ncols] - grid_b[0 * ncols]);
  // (c) widening Kmax likewise: N=2 cell at Kmax=200KB (row 0) vs 1MB (row 2).
  manifest.observable("pm_gain_deg.kmax200to1000.n2",
                      grid_c[2 * ncols] - grid_c[0 * ncols]);
  bench::record_failures("fig03a", sweep_a.cells, sweep_a.report, manifest);
  bench::record_failures("fig03b", sweep_b.cells, sweep_b.report, manifest);
  bench::record_failures("fig03c", sweep_c.cells, sweep_c.report, manifest);
  manifest.write_if_requested();
  const bool ok = sweep_a.report.all_ok() && sweep_b.report.all_ok() &&
                  sweep_c.report.all_ok();
  return ok ? 0 : 1;
}
