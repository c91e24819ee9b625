#pragma once
// Shared helpers for the figure-regeneration harnesses. Each bench binary
// reproduces one table or figure from the paper: it prints the same rows /
// series the paper reports (values in our simulator's units), plus compact
// ASCII charts so the *shape* is visible in the terminal.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/journal.hpp"
#include "core/parallel.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "core/timeseries.hpp"
#include "obs/manifest.hpp"

namespace ecnd::bench {

inline void banner(const std::string& title, const std::string& paper_claim) {
  std::cout << "\n==== " << title << " ====\n";
  std::cout << "Paper: " << paper_claim << "\n\n";
}

/// Render a time series as a one-line sparkline plus summary numbers, both
/// restricted to the [t0, t1] window so the shape and the statistics describe
/// the same data.
inline std::string shape_line(const TimeSeries& series, double t0, double t1,
                              double scale = 1e-3) {
  const TimeSeries rs = series.resampled(64, t0, t1);
  std::vector<double> values;
  values.reserve(rs.size());
  for (const auto& s : rs.samples()) values.push_back(s.value);
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  mean=%8.1f std=%8.1f min=%8.1f max=%8.1f",
                series.mean_over(t0, t1) * scale, series.stddev_over(t0, t1) * scale,
                require_stat(series.min_over(t0, t1), "shape_line min") * scale,
                require_stat(series.max_over(t0, t1), "shape_line max") * scale);
  return sparkline(values) + buf;
}

/// Report a sweep's wall-clock accounting to STDERR: table output on stdout
/// must stay byte-identical whatever ECND_THREADS is, but the speedup should
/// still be visible when regenerating figures interactively.
inline void report_timing(const std::string& label, const par::SweepTiming& t) {
  std::fprintf(stderr,
               "[%s] %zu tasks on %zu threads: wall %.2fs (serial-equivalent "
               "%.2fs, slowest task %.2fs, speedup %.1fx)\n",
               label.c_str(), t.tasks, t.threads, t.wall_s, t.task_sum_s,
               t.task_max_s, t.speedup());
}

/// Sweep journal wiring shared by the figure harnesses: the journal file
/// comes from ECND_JOURNAL=<path>, and `--resume` on the command line loads
/// completed cells from it instead of truncating. Any other argument prints
/// usage and exits 2 before the journal is opened, so a mistyped `--resume`
/// cannot truncate the journal it meant to resume. Without ECND_JOURNAL the
/// context is inert and the harness behaves exactly as before.
class SweepContext {
 public:
  SweepContext(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      if (std::string_view(argv[i]) != "--resume") {
        std::fprintf(stderr,
                     "unknown argument '%s'\n"
                     "usage: %s [--resume]  (journal path from ECND_JOURNAL)\n",
                     argv[i], argv[0]);
        std::exit(2);
      }
      resume_ = true;
    }
    const char* path = std::getenv("ECND_JOURNAL");
    if (path != nullptr) {
      journal_.open(path, resume_);
    } else if (resume_) {
      std::fprintf(stderr,
                   "[journal] --resume given but ECND_JOURNAL is not set; "
                   "running the full sweep\n");
    }
  }

  SweepJournal& journal() { return journal_; }
  bool resume() const { return resume_; }

 private:
  SweepJournal journal_;
  bool resume_ = false;
};

/// Report journal reuse to STDERR (stdout stays byte-identical between clean
/// and resumed runs — that is the whole point). scripts/check.sh
/// --resume-smoke parses this line.
inline void report_journal(const std::string& label, const SweepJournal& journal,
                           const JournalStats& stats) {
  if (!journal.enabled()) return;
  std::fprintf(stderr,
               "[journal] %s: reused %zu of %zu cells (%zu run, %zu "
               "quarantined)\n",
               label.c_str(), stats.reused, stats.cells, stats.executed,
               stats.quarantined);
}

/// Surface quarantined cells on STDERR and in the manifest's failures
/// section. `cells` are the canonical cell strings the sweep was keyed on
/// (report indices are grid indices).
inline void record_failures(const std::string& label,
                            const std::vector<std::string>& cells,
                            const par::IsolationReport& report,
                            obs::RunManifest& manifest) {
  for (const par::TaskFailureRecord& f : report.failures) {
    std::fprintf(stderr, "[%s] cell %zu (%s) quarantined after %d attempt(s): %s\n",
                 label.c_str(), f.index, cells[f.index].c_str(), f.attempts,
                 f.message.c_str());
    if (f.has_diagnostic) {
      manifest.failure(cells[f.index], f.diagnostic.component,
                       f.diagnostic.variable, f.diagnostic.time,
                       f.diagnostic.value, f.diagnostic.detail, f.attempts);
    } else {
      manifest.failure(cells[f.index], "", "", 0.0, 0.0, f.message,
                       f.attempts);
    }
  }
}

}  // namespace ecnd::bench
