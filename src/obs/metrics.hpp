#pragma once
// Unified metrics registry: named counters, gauges (high-watermarks) and
// fixed-bucket histograms shared by the packet simulator, the fluid engine,
// the robustness layer and the parallel sweep engine.
//
// Design constraints (see OBSERVABILITY.md):
//   * Hot-path increments are cheap: one relaxed atomic load (the global
//     enable flag) and, when enabled, an add into the current task's shard
//     through a cached thread-local pointer. No locks, no allocation, no RNG
//     — instrumentation never perturbs a seeded run's random streams or its
//     stdout.
//   * Per-task sharding composes with core::parallel: every sweep task
//     (obs::TaskScope) counts into its own shard, kept in the per-task store
//     beside the trace, flight and snapshot buffers. Exports merge the
//     shards with commutative operators — counters and histogram cells add,
//     gauges take the max — so the totals, like the sampler's per-task
//     series, are a function of the task grid, never of the schedule or
//     ECND_THREADS.
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
#include <cstdint>
#include <iosfwd>
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
/// Cell `index` of the calling thread's current-task shard (the shard grows
/// to the registry's current layout on demand).
std::uint64_t* cells(std::uint32_t index);
/// Forget the cached shard pointer: the calling thread's task changed.
void unbind_cells();

// -- registry hooks for the sim-time snapshot sampler (obs/snapshot.cpp) --

/// One registered metric. Its index in metric_rows() is its registration
/// index, which never changes (the table is append-only).
struct MetricRow {
  std::string name;
  std::uint8_t kind;  ///< 0 counter, 1 gauge, 2 histogram
};
/// Copy of the registry's metric table, registration order.
std::vector<MetricRow> metric_rows();
/// The calling thread's current task: every counter's and gauge's value by
/// registration index (histograms read 0).
std::vector<std::uint64_t> task_scalars();
}  // namespace detail

/// True when some consumer (env knob or set_metrics_enabled) wants counts.
inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests, embedding programs). Env knobs win once at
/// startup; this flips the same flag afterwards.
void set_metrics_enabled(bool on);

/// Zero every metric value (every task's shard) and discard all trace,
/// flight and snapshot buffers. Registrations (names/ids) survive. Only call
/// while no sweep is in flight.
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

/// Merge every task's shard and write every metric as JSON, sorted by name.
/// A histogram carries count, sum, its non-empty buckets and p50/p99,
/// interpolated linearly inside the bucket where the cumulative count
/// crosses q * count (null when it recorded nothing).
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

void dump_metrics_json(std::ostream& out);
void print_summary(std::ostream& out);

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
