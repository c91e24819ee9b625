#pragma once
// Sim-time event tracer: ring-buffered records exported as Chrome
// trace-event JSON (load the file at https://ui.perfetto.dev).
//
// Timestamps are SIMULATION time in microseconds — the packet simulator's
// integer picoseconds and the fluid solver's continuous seconds both convert
// to the same axis — so a trace shows what the *scenario* did, not what the
// host CPU did (wall-clock lives in the profiler, never here).
//
// Each sweep task writes into its own fixed-capacity ring buffer, installed
// by obs::TaskScope (the parallel engine wraps every task; task 0 is the
// main thread). Exported events carry the task index as their pid, so a
// 12-task sweep renders as 12 process tracks and the byte-for-byte output
// depends only on the grid — never on ECND_THREADS or scheduling.
//
// Overflow policy: a full ring overwrites its OLDEST record (the tail of a
// run is usually the interesting part) and counts what it dropped; the count
// is reported in the export and via trace_dropped_total().
//
// trace.json is the one Perfetto file: within each task's pid, the tracer's
// events sit on tid 0 and the flight recorder's flow lanes (obs/flight.hpp)
// on tids 1, 2, ... The two keep separate per-task stores, because the ring
// wraps and the lanes must survive it; only the writer merges them.
//
// Runtime: ECND_RUN_DETAIL=trace (or above) arms tracing and writes
// trace.json into the run directory at process exit; the per-task ring holds
// 65536 events (set_trace_capacity for tests). Compile-time: -DECND_OBS=OFF
// no-ops everything here.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

namespace ecnd::obs {

#if !defined(ECND_OBS_DISABLED)

namespace detail {
extern std::atomic<bool> g_trace_on;
void trace_push(const char* name, char phase, double ts_us, double value,
                std::uint64_t id);
/// Drop every buffer (obs::reset's trace half).
void trace_reset();
/// The task index the calling thread currently records under (TaskScope TLS;
/// 0 outside any scope). Every per-task store keys its buffers by this.
std::uint32_t current_task();
}  // namespace detail

inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests). ECND_RUN_DETAIL=trace arms this at
/// startup.
void set_trace_enabled(bool on);

/// Per-task ring capacity in events. Applies to buffers created after the
/// call; reset() drops existing buffers so tests can shrink the ring.
void set_trace_capacity(std::size_t events);

/// Route this thread's subsequent per-task records (metric counts, trace
/// events, flight records, metric snapshots) to task `task` (RAII; restores
/// the previous task on destruction). The parallel sweep engine installs
/// TaskScope(grid_index + 1) around every task; 0 is the main-thread default.
class TaskScope {
 public:
  explicit TaskScope(std::uint32_t task);
  ~TaskScope();
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  std::uint32_t prev_;
};

/// Point event ("something happened at sim time ts"). `name` must outlive
/// the tracer: a string literal or an obs::intern()ed string.
inline void trace_instant(const char* name, double ts_us, double value = 0.0,
                          std::uint64_t id = 0) {
  if (trace_enabled()) detail::trace_push(name, 'i', ts_us, value, id);
}

/// Counter-track sample (queue depth, rate register): renders as a stepped
/// area chart per (task, name) in Perfetto.
inline void trace_counter(const char* name, double ts_us, double value) {
  if (trace_enabled()) detail::trace_push(name, 'C', ts_us, value, 0);
}

/// Events dropped to ring overflow, summed over all task buffers.
std::uint64_t trace_dropped_total();

/// Per-task drop counts, task index order, tasks with zero drops omitted.
/// The run manifest embeds this so a truncated trace can't masquerade as
/// complete to ecnd-report.
std::vector<std::pair<std::uint32_t, std::uint64_t>> trace_dropped_by_task();

/// Write every buffered event, then the flight recorder's flow lanes, as
/// Chrome trace-event JSON: tasks in index order (every task with either
/// kind of record), events in emission order within a task. Deterministic
/// for a deterministic run at any thread count.
void write_trace_json(std::ostream& out);

#else  // ECND_OBS_DISABLED

inline bool trace_enabled() { return false; }
inline void set_trace_enabled(bool) {}
inline void set_trace_capacity(std::size_t) {}

class TaskScope {
 public:
  explicit TaskScope(std::uint32_t) {}
};

inline void trace_instant(const char*, double, double = 0.0,
                          std::uint64_t = 0) {}
inline void trace_counter(const char*, double, double) {}
inline std::uint64_t trace_dropped_total() { return 0; }
inline std::vector<std::pair<std::uint32_t, std::uint64_t>>
trace_dropped_by_task() {
  return {};
}
void write_trace_json(std::ostream& out);

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
