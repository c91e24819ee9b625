#pragma once
// Sim-time metric snapshots: a periodic sampler that walks the metrics
// registry at a fixed SIMULATION-time interval and records, per sweep task,
// a time-series of every sim-domain counter and gauge. Where the metrics
// dump answers "how much, in total", the snapshot answers "when" — the file
// two runs are diffed on to find the first sim-timestamp at which they
// diverged (ecnd-diff's metrics_ts mode).
//
// Determinism contract (same stance as the flight recorder):
//   * Samples are keyed by the obs::TaskScope task index, and each reads
//     that task's own metric shard (obs/metrics.hpp): a series is the task's
//     cumulative counts, everything it counted up to the sample included —
//     a pure function of the scenario, never of ECND_THREADS or the
//     schedule. When a later sweep reuses the index, its samples continue
//     from what the earlier task counted.
//   * Sample instants are sim-time threshold crossings (t >= next multiple
//     of the interval), evaluated against the engine-reported sim clock —
//     identical in every schedule.
//   * The export walks tasks in index order, series sorted by metric name,
//     all-zero series omitted, doubles via shortest-round-trip to_chars:
//     byte-identical at any thread count.
//   * No stdout, no RNG, no sim-visible side effects: armed vs idle runs
//     produce identical scenario output.
//
// The tick is driven by the engines that advance sim time (Simulator::
// run_one, DdeSolver::run_until); when the sampler is idle a tick costs one
// relaxed atomic load.
//
// Runtime: a run directory (ECND_RUN_DIR) arms the sampler and gets
// metrics_ts.json at exit. Compile-time: -DECND_OBS=OFF no-ops everything
// here and writes no files.

#include <atomic>
#include <iosfwd>

namespace ecnd::obs {

/// Default sampling interval in sim seconds: 1 ms — hundreds of samples over
/// a typical figure horizon.
inline constexpr double kDefaultSnapshotInterval = 1e-3;

#if !defined(ECND_OBS_DISABLED)

namespace detail {
extern std::atomic<bool> g_snapshot_on;
void snapshot_sample(double t_s);
/// Drop every buffer (obs::reset's snapshot half).
void snapshot_reset();
}  // namespace detail

inline bool snapshot_enabled() {
  return detail::g_snapshot_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests). A run directory arms this at startup.
/// Enabling also arms metric counting (the sampler reads the task's counts).
void set_snapshot_enabled(bool on);

/// Sampling interval in sim seconds (clamped to > 0).
void set_snapshot_interval(double seconds);
double snapshot_interval();

/// Hot-path hook: engines advancing sim time call this with the current sim
/// time in seconds. One relaxed load when the sampler is idle.
inline void snapshot_tick(double t_s) {
  if (snapshot_enabled()) detail::snapshot_sample(t_s);
}

/// Write the collected series as ecnd-metrics-ts-v1 JSON (see format notes
/// above).
void write_metrics_ts_json(std::ostream& out);

#else  // ECND_OBS_DISABLED

inline bool snapshot_enabled() { return false; }
inline void set_snapshot_enabled(bool) {}
inline void set_snapshot_interval(double) {}
inline double snapshot_interval() { return kDefaultSnapshotInterval; }
inline void snapshot_tick(double) {}
void write_metrics_ts_json(std::ostream& out);

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
