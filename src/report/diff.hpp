#pragma once
// Cross-run artifact diff: the engine behind the ecnd-diff CLI.
//
// Takes two run artifacts of the same kind and reduces "something changed
// between these runs" to a ranked list of per-key differences. Understands
// the run artifacts the tree emits — run manifests (ecnd-manifest-v1),
// metric dumps (ecnd-metrics-v1), sim-time metric snapshots
// (ecnd-metrics-ts-v1, where a difference localizes to the first divergent
// sim-timestamp per series) — plus the append-only sweep journal
// (core/journal.hpp `ecnd1` lines). Unparseable journal lines are skipped
// with a count, never fatal: a torn tail is the format's documented crash
// mode.
//
// Severity model (mirrors ecnd-report's exit semantics):
//   kNone       — artifacts are equivalent (after --tolerance suppression)
//   kNumeric    — values drifted: same shape, different numbers.
//   kStructural — shapes disagree: keys/series/tasks present on one side
//                 only, kind mismatch between the two files, parse failure.
// The CLI exits 0/1/2 respectively.
//
// `tolerance` is a relative-change suppression threshold applied to numeric
// drift (|b-a| / max(|a|,|b|)); 0 reports every drift. Structural entries
// are never suppressed.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ecnd::report {

enum class DiffSeverity : std::uint8_t { kNone = 0, kNumeric = 1, kStructural = 2 };

/// One reported difference. `rel` is the relative change used for ranking
/// (structural entries rank above any numeric one); `note` carries the
/// kind-specific context (first-divergence timestamp, added/removed
/// direction).
struct DiffEntry {
  DiffSeverity severity = DiffSeverity::kNumeric;
  std::string key;
  std::string a;  ///< rendered left value ("—" when absent)
  std::string b;  ///< rendered right value ("—" when absent)
  double rel = 0.0;
  std::string note;
};

struct DiffResult {
  std::string kind;  ///< "manifest", "metrics", "metrics_ts", "journal"
  std::string path_a;
  std::string path_b;
  double tolerance = 0.0;
  std::vector<DiffEntry> entries;  ///< structural first, then |rel| descending
  std::uint64_t suppressed = 0;    ///< numeric drifts under the tolerance
  std::uint64_t skipped_lines = 0; ///< unparseable journal lines
  std::vector<std::string> context;  ///< header facts (digests, cell counts)

  DiffSeverity severity() const;
};

/// Classify a file by schema field / line shape: returns one of the kind
/// strings above. Throws std::runtime_error for unreadable or unrecognized
/// files (the CLI maps that to exit 2).
std::string detect_artifact(const std::string& path);

/// Diff two artifacts. Both files must detect as the same kind; a kind
/// mismatch yields a single structural entry rather than throwing. Parse
/// errors throw std::runtime_error (CLI: exit 2).
DiffResult diff_artifacts(const std::string& path_a, const std::string& path_b,
                          double tolerance = 0.0);

/// Render a DiffResult as the markdown report the CLI prints.
void write_markdown(std::ostream& out, const DiffResult& result);

}  // namespace ecnd::report
