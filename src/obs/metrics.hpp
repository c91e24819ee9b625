#pragma once
// Unified metrics registry: named counters, gauges (high-watermarks) and
// fixed-bucket histograms shared by the packet simulator, the fluid engine,
// the robustness layer and the parallel sweep engine.
//
// Design constraints (see OBSERVABILITY.md):
//   * Hot-path increments are cheap: one relaxed atomic load (the global
//     enable flag) and, when enabled, an add into a per-thread shard cell.
//     No locks, no allocation, no RNG — instrumentation never perturbs a
//     seeded run's random streams or its stdout.
//   * Per-thread sharding composes with core::parallel: every worker thread
//     accumulates into its own shard and merges it into the global
//     accumulator when the thread exits (the sweep engine joins its workers
//     before returning). All merge operators are commutative — counters and
//     histogram cells add, gauges take the max — so the merged totals are a
//     function of the task grid, never of the schedule or ECND_THREADS.
//   * Deterministic output: dump_metrics_json() sorts metrics by name, and
//     every metric is a pure function of the simulated scenario (wall-clock
//     time lives only in the profiler, obs/profile.hpp), so the dump is
//     bit-identical across thread counts and machines.
//
// Compile-time kill switch: configuring with -DECND_OBS=OFF defines
// ECND_OBS_DISABLED and every entry point below collapses to an inline no-op
// (call sites stay unconditional; the optimizer erases them).
//
// Runtime: a run directory (run_file below) or set_metrics_enabled(true)
// arms the hot-path increments; the directory gets metrics.json and
// summary.txt.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ecnd::obs {

/// Log2 bucket index for histogram values: 0 holds the value 0, bucket b >= 1
/// holds [2^(b-1), 2^b - 1], and the top bucket (63) is open-ended.
int bucket_index(std::uint64_t value);
/// Inclusive lower edge of bucket `b` (0 for bucket 0, else 2^(b-1)).
std::uint64_t bucket_lower_edge(int b);

inline constexpr int kHistogramBuckets = 64;

#if !defined(ECND_OBS_DISABLED)

namespace detail {
extern std::atomic<bool> g_metrics_on;
/// Reference to the calling thread's shard cell `index` (shard grows to the
/// registry's current layout on demand).
std::uint64_t* cells(std::uint32_t index);

// -- registry hooks for the sim-time snapshot sampler (obs/snapshot.cpp) --

/// One registered metric and where its first cell sits in a shard. Name is a
/// copy: the registry's own strings can move when its table grows.
struct SnapshotRow {
  std::string name;
  std::uint8_t kind;  ///< 0 counter, 1 gauge, 2 histogram
  std::uint32_t cell;
};
/// Copy of the registry's metric table, registration order.
std::vector<SnapshotRow> snapshot_rows();
/// Registered-metric count: a cheap generation stamp for caching
/// snapshot_rows() (the table is append-only).
std::size_t metric_count();
/// Fold the calling thread's shard into the global accumulator and zero it,
/// so subsequent shard reads see only work done by this thread afterwards.
/// Totals are unchanged (merges are commutative and happen exactly once).
void merge_and_zero_calling_thread();
/// Read cell `index` of the calling thread's shard without growing it
/// (0 when the shard has no such cell yet).
std::uint64_t read_thread_cell(std::uint32_t index);
}  // namespace detail

/// True when some consumer (env knob or set_metrics_enabled) wants counts.
inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests, embedding programs). Env knobs win once at
/// startup; this flips the same flag afterwards.
void set_metrics_enabled(bool on);

/// Zero every metric value (global accumulator + the calling thread's shard)
/// and discard all trace buffers. Registrations (names/ids) survive. Only
/// call while no sweep is in flight.
void reset();

/// Intern a dynamically-built string (e.g. a port name) into a process-wide
/// table, returning a pointer that stays valid forever — the form trace
/// events require for their name field.
const char* intern(std::string_view s);

/// Monotonically increasing count (merge: sum).
class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t v = 1) const {
    if (metrics_enabled()) *detail::cells(cell_) += v;
  }

 private:
  friend Counter counter(std::string_view);
  explicit Counter(std::uint32_t cell) : cell_(cell) {}
  std::uint32_t cell_ = 0;
};

/// High-watermark gauge (merge: max). Use for "largest X ever seen" values;
/// a last-write gauge cannot merge deterministically across shards.
class Gauge {
 public:
  Gauge() = default;
  void set_max(std::uint64_t v) const {
    if (metrics_enabled()) {
      std::uint64_t* cell = detail::cells(cell_);
      if (v > *cell) *cell = v;
    }
  }

 private:
  friend Gauge gauge(std::string_view);
  explicit Gauge(std::uint32_t cell) : cell_(cell) {}
  std::uint32_t cell_ = 0;
};

/// Fixed-bucket (powers of two) histogram over unsigned values, plus exact
/// count and sum (merge: per-cell sum).
class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t v) const {
    if (metrics_enabled()) {
      std::uint64_t* base = detail::cells(cell_);
      base[0] += 1;                                  // count
      base[1] += v;                                  // sum
      base[2 + static_cast<std::uint32_t>(bucket_index(v))] += 1;
    }
  }

 private:
  friend Histogram histogram(std::string_view);
  explicit Histogram(std::uint32_t cell) : cell_(cell) {}
  std::uint32_t cell_ = 0;
};

/// Look up or register a metric by name. Handles are cheap values; register
/// once (file-scope const or function-local static) and reuse. Re-requesting
/// a name returns the same metric; requesting it as a different kind throws.
Counter counter(std::string_view name);
Gauge gauge(std::string_view name);
Histogram histogram(std::string_view name);

/// Registry-side percentile over a histogram's exported log2 buckets
/// (q in [0, 1]): Prometheus-style linear interpolation inside the bucket
/// where the cumulative count crosses q * count, so manifests and the
/// summary table can report p50/p99 instead of only bucket counts. Not a
/// hot-path call (merges the calling thread's shard and snapshots the
/// registry). nullopt when `name` is not a histogram or has no samples.
std::optional<double> histogram_percentile(std::string_view name, double q);

/// Merge the calling thread's shard and write every metric as JSON, sorted
/// by name.
void dump_metrics_json(std::ostream& out);

/// Human-readable end-of-run table (counters, gauges, histograms with
/// count/mean/p50/p99): the run directory's summary.txt.
void print_summary(std::ostream& out);

/// `<dir>/<name>` in the run directory, or "" when none is armed. Before
/// main(), ECND_RUN_DIR=<dir> creates <dir> and arms the recorders that
/// ECND_RUN_DETAIL selects; their exports land in <dir> at exit.
std::string run_file(std::string_view name);

#else  // ECND_OBS_DISABLED: every entry point is an inline no-op.

inline bool metrics_enabled() { return false; }
inline void set_metrics_enabled(bool) {}
void reset();
const char* intern(std::string_view s);

class Counter {
 public:
  void add(std::uint64_t = 1) const {}
};
class Gauge {
 public:
  void set_max(std::uint64_t) const {}
};
class Histogram {
 public:
  void record(std::uint64_t) const {}
};

inline Counter counter(std::string_view) { return {}; }
inline Gauge gauge(std::string_view) { return {}; }
inline Histogram histogram(std::string_view) { return {}; }
inline std::optional<double> histogram_percentile(std::string_view, double) {
  return std::nullopt;
}

void dump_metrics_json(std::ostream& out);
void print_summary(std::ostream& out);

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
