// stability_map: sweep the control-theory layer over (N, feedback delay) and
// print a stability map for DCQCN, plus the patched-TIMELY margin curve —
// the tool you'd use to answer "is my deployment's parameter corner safe?"
//
// Both sweeps run on the parallel engine (ECND_THREADS workers); every grid
// cell is an independent linearization, and the map prints from pre-sized
// slots so output is byte-identical at any thread count.
//
// Usage: stability_map [n_max >= 2] [delay_max_us >= 5]
// The bounds keep both grids non-empty; bad arguments print usage and exit 2.

#include <cstdio>
#include <vector>

#include "cli_args.hpp"
#include "control/dcqcn_analysis.hpp"
#include "control/timely_analysis.hpp"
#include "core/parallel.hpp"

using namespace ecnd;

namespace {

struct TimelyRow {
  control::PatchedTimelyFixedPoint fp;
  bool interior = false;
  control::StabilityReport report;
};

}  // namespace

int main(int argc, char** argv) {
  int n_max = 64;
  double delay_max_us = 100.0;
  if (argc > 3 || (argc > 1 && !cli::parse_int(argv[1], n_max)) ||
      (argc > 2 && !cli::parse_double(argv[2], delay_max_us)) || n_max < 2 ||
      delay_max_us < 5.0) {
    std::fprintf(stderr,
                 "usage: stability_map [n_max >= 2] [delay_max_us >= 5]\n");
    return 2;
  }

  std::printf("DCQCN phase-margin map (rows: delay, cols: N). "
              "Symbols: '#'>45deg  '+'>15deg  '.'>0deg  '!'<=0deg\n\n      ");
  std::vector<int> ns;
  for (int n = 2; n <= n_max; n = n < 8 ? n + 2 : n * 3 / 2) ns.push_back(n);
  std::vector<double> delays;
  for (double delay_us = 5.0; delay_us <= delay_max_us; delay_us *= 1.8) {
    delays.push_back(delay_us);
  }

  std::vector<std::pair<double, int>> grid;
  for (double delay_us : delays) {
    for (int n : ns) grid.emplace_back(delay_us, n);
  }
  const std::vector<double> margins = par::parallel_map(
      grid, [](const std::pair<double, int>& cell) {
        fluid::DcqcnFluidParams p;
        p.num_flows = cell.second;
        p.feedback_delay = cell.first * 1e-6;
        return control::dcqcn_stability(p).phase_margin_deg;
      });

  for (int n : ns) std::printf("%4d", n);
  std::printf("   (N)\n");
  std::size_t slot = 0;
  for (double delay_us : delays) {
    std::printf("%5.0fus", delay_us);
    for (std::size_t c = 0; c < ns.size(); ++c) {
      const double pm = margins[slot++];
      std::printf("   %c", pm > 45.0 ? '#' : pm > 15.0 ? '+' : pm > 0.0 ? '.' : '!');
    }
    std::printf("\n");
  }

  std::printf("\nPatched TIMELY margin vs N (default §4.3 parameters):\n");
  std::vector<int> timely_ns;
  for (int n = 2; n <= n_max; n = n < 8 ? n + 2 : n + 8) timely_ns.push_back(n);
  const std::vector<TimelyRow> rows = par::parallel_map(
      timely_ns, [](int n) {
        TimelyRow row;
        fluid::TimelyFluidParams p = fluid::patched_timely_defaults();
        p.num_flows = n;
        row.fp = control::patched_timely_fixed_point(p);
        row.interior = row.fp.q_star_pkts < p.qhigh_pkts();
        if (row.interior) row.report = control::patched_timely_stability(p);
        return row;
      });
  for (std::size_t i = 0; i < timely_ns.size(); ++i) {
    const TimelyRow& row = rows[i];
    if (!row.interior) {
      std::printf("  N=%3d: no interior fixed point (q* above C*T_high)\n",
                  timely_ns[i]);
      continue;
    }
    std::printf("  N=%3d: q*=%6.1f KB  tau'=%6.1f us  margin %+7.1f deg  %s\n",
                timely_ns[i], row.fp.q_star_pkts, row.fp.feedback_delay * 1e6,
                row.report.phase_margin_deg,
                row.report.stable() ? "stable" : "UNSTABLE");
  }
  return 0;
}
