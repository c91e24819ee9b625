#pragma once
// Content-addressed sweep journal: crash-tolerant resume for figure sweeps.
//
// A figure harness is a grid of independent cells, each a deterministic pure
// function of (scenario config, build, seed). That makes a completed cell a
// cacheable artifact: key it on the FNV-1a digest of the build fingerprint
// plus a canonical description of the cell, append `key -> encoded row` to a
// journal file the moment the cell finishes, and a killed sweep becomes
// resumable — the re-run loads the journal, skips every cell whose key it
// already holds, and executes only the missing (and quarantined) ones. The
// final table is bit-identical to an uninterrupted run because the rows
// round-trip exactly (doubles via shortest-round-trip to_chars/from_chars).
//
// Crash tolerance is structural, not transactional: the journal is
// append-only text, one line per cell, each written with a single
// fwrite+fflush. A SIGKILL can tear at most the final line; a resume cuts
// that line off before appending and the loader skips any line that does
// not parse, so a torn tail costs one recomputed cell, never a corrupted
// resume.
//
// Line format (text, one record per line):
//
//   ecnd1 <16-hex key> done <payload fields...>
//   ecnd1 <16-hex key> quarantined <final failure message>
//
// Only `done` lines satisfy lookups; a quarantined line documents the
// failure for the post-mortem but is deliberately re-executed on resume (the
// retry may succeed, and a stale failure must never poison a fresh sweep).
// Keys include the build fingerprint (git SHA), so a journal written by
// different code never matches: refuse and re-run, never reinterpret.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/parallel.hpp"

namespace ecnd {

/// Identity of the code producing journal rows: the ECND_GIT_SHA environment
/// variable when set (relocated binaries, CI), else the commit hash baked in
/// at configure time, else "unknown".
std::string build_fingerprint();

/// What a journaled sweep did: how many cells it reused vs executed.
struct JournalStats {
  std::size_t cells = 0;        ///< grid size
  std::size_t reused = 0;       ///< rows decoded from the journal
  std::size_t executed = 0;     ///< rows computed this run
  std::size_t quarantined = 0;  ///< cells that stayed failed (see report)
};

/// Append-only, content-addressed record of completed sweep cells. Default
/// state is disabled (every lookup misses, every record is a no-op), so the
/// harnesses run identically when no journal path is configured. record() is
/// thread-safe; open()/find() belong to the coordinating thread.
class SweepJournal {
 public:
  SweepJournal();
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Attach to `path`. resume=false truncates (clean sweep); resume=true
  /// loads every complete `done` line first, cuts off a torn final line,
  /// then appends. Throws std::runtime_error when the file cannot be opened
  /// for writing.
  void open(const std::string& path, bool resume);

  bool enabled() const { return file_ != nullptr; }
  /// Number of `done` rows loaded by open(resume=true).
  std::size_t loaded() const { return entries_.size(); }

  /// Content address of a cell: fnv1a64(build_fingerprint | cell). The cell
  /// string must canonically pin everything the row depends on (figure,
  /// parameters, seed) — two cells that could differ must never share a key.
  std::uint64_t key(std::string_view cell) const;

  /// Payload of a previously completed cell, or nullptr (miss, quarantined,
  /// or journal disabled). Counts journal.hits.
  const std::string* find(std::uint64_t key) const;

  /// Append one record (no-op when disabled). Newlines in the payload are
  /// flattened to spaces so one record is always exactly one line.
  void record(std::uint64_t key, bool done, std::string_view payload);

 private:
  void load(const std::string& path);

  std::FILE* file_ = nullptr;
  std::string fingerprint_;
  std::unordered_map<std::uint64_t, std::string> entries_;
  std::mutex write_mutex_;
};

/// Space-separated payload codec, write side. Doubles are rendered with
/// std::to_chars shortest-round-trip, so decode(encode(row)) == row exactly.
class FieldWriter {
 public:
  FieldWriter& f(double v);
  FieldWriter& u(std::uint64_t v);
  const std::string& str() const { return out_; }

 private:
  std::string out_;
};

/// Payload codec, read side. Every accessor throws std::runtime_error on a
/// malformed or missing field; finish() rejects trailing fields. A throwing
/// decode is treated as a journal miss by journaled_map — the cell is simply
/// recomputed.
class FieldParser {
 public:
  explicit FieldParser(std::string_view text) : text_(text) {}

  double f();
  std::uint64_t u();
  void finish() const;

 private:
  std::string_view next_token();

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Result of a journaled sweep: the full row vector (grid order), the fault
/// isolation report for the cells that actually ran, and reuse accounting.
/// Failure indices in `report` are remapped to grid indices.
template <typename Row>
struct JournaledSweep {
  std::vector<Row> rows;
  par::IsolationReport report;
  JournalStats stats;
};

/// Sweep `cells` (canonical cell strings, grid order) into rows: journal
/// hits are decoded, misses run under fault isolation, and every completed
/// cell is journaled the moment it finishes — a kill loses only in-flight
/// cells. Quarantined cells keep their default-constructed Row and appear in
/// the report (and in the journal as `quarantined`, which resume re-runs).
///
///   run(grid_index, attempt) -> Row    compute one cell (attempt counts
///                                      the policy's tries from 0)
///   encode(const Row&) -> std::string  payload via FieldWriter
///   decode(FieldParser&) -> Row        inverse of encode
template <typename Row, typename Run, typename Encode, typename Decode>
JournaledSweep<Row> journaled_map(SweepJournal& journal,
                                  const std::vector<std::string>& cells,
                                  Run run, Encode encode, Decode decode,
                                  par::FaultPolicy policy = {},
                                  std::size_t threads = 0) {
  JournaledSweep<Row> out;
  const std::size_t n = cells.size();
  out.rows.resize(n);
  out.stats.cells = n;

  std::vector<std::uint64_t> keys(n);
  std::vector<std::size_t> pending;  // grid indices still to compute
  pending.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = journal.key(cells[i]);
    bool reused = false;
    if (const std::string* payload = journal.find(keys[i])) {
      try {
        FieldParser p(*payload);
        out.rows[i] = decode(p);
        p.finish();
        reused = true;
      } catch (const std::exception&) {
        // Malformed or stale payload: fall through and recompute the cell.
      }
    }
    if (reused) {
      ++out.stats.reused;
    } else {
      pending.push_back(i);
    }
  }

  out.report = par::parallel_for_each_isolated(
      pending.size(),
      [&](std::size_t pi, int attempt) {
        const std::size_t gi = pending[pi];
        out.rows[gi] = run(gi, attempt);
        journal.record(keys[gi], /*done=*/true, encode(out.rows[gi]));
      },
      policy, threads);

  // The isolation report indexed the pending subspace; remap to grid indices
  // and journal each quarantine so a resumed sweep re-runs (never trusts) it.
  for (par::TaskFailureRecord& f : out.report.failures) {
    const std::size_t gi = pending[f.index];
    f.index = gi;
    if (f.has_diagnostic) {
      f.diagnostic.task_index = static_cast<std::int64_t>(gi);
    }
    journal.record(keys[gi], /*done=*/false, f.message);
  }
  out.stats.quarantined = out.report.failures.size();
  out.stats.executed = pending.size() - out.stats.quarantined;
  return out;
}

}  // namespace ecnd
