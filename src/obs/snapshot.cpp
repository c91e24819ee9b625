#include "obs/snapshot.hpp"

#if !defined(ECND_OBS_DISABLED)

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "core/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/task_store.hpp"

namespace ecnd::obs {

namespace detail {
std::atomic<bool> g_snapshot_on{false};
}  // namespace detail

namespace {

// Sim-domain volume counters: zero unless the sampler is armed, so the
// default metrics dump is unchanged by this module. They are themselves
// sampled (deterministically — sample counts are a function of the scenario
// and the interval, never of the schedule).
const Counter kSnapSamples = counter("obs.snapshot_samples");
const Counter kSnapDropped = counter("obs.snapshot_dropped");

std::atomic<double> g_interval{kDefaultSnapshotInterval};

/// One sweep task's time-series, capped at the store capacity (65536
/// samples): keep-first, since the divergence hunt metrics_ts exists for
/// starts from t = 0; overflow is counted and reported.
struct TaskSnap {
  explicit TaskSnap(std::size_t capacity) : cap(capacity) {}

  std::vector<double> times;
  /// samples[i][m]: metric m's value (m = registration index) at times[i].
  std::vector<std::vector<std::uint64_t>> samples;
  double next_t = 0.0;   ///< next sampling threshold (sim seconds)
  double last_t = -1.0;  ///< restart detector: t going backwards = new run
  std::size_t cap;
  std::uint64_t drops = 0;

  std::uint64_t dropped() const { return drops; }
};

using SnapStore = detail::TaskStore<TaskSnap>;

}  // namespace

namespace detail {

void snapshot_sample(double t_s) {
  TaskSnap& b = SnapStore::instance().current();
  if (t_s < b.last_t) b.next_t = 0.0;  // sim clock restarted: new run, resample
  b.last_t = t_s;
  if (t_s < b.next_t) return;

  const double interval = g_interval.load(std::memory_order_relaxed);
  b.next_t = (std::floor(t_s / interval) + 1.0) * interval;
  if (b.samples.size() >= b.cap) {
    ++b.drops;
    kSnapDropped.add();
    return;
  }
  b.times.push_back(t_s);
  b.samples.push_back(task_scalars());
  kSnapSamples.add();
}

void snapshot_reset() { SnapStore::instance().clear(); }

}  // namespace detail

void set_snapshot_enabled(bool on) {
  detail::g_snapshot_on.store(on, std::memory_order_relaxed);
  if (on) set_metrics_enabled(true);  // the sampler reads the metric cells
}

void set_snapshot_interval(double seconds) {
  if (seconds > 0.0 && std::isfinite(seconds)) {
    g_interval.store(seconds, std::memory_order_relaxed);
  }
}

double snapshot_interval() {
  return g_interval.load(std::memory_order_relaxed);
}

void write_metrics_ts_json(std::ostream& out) {
  const std::vector<detail::MetricRow> metrics = detail::metric_rows();
  const auto tasks = SnapStore::instance().snapshot();

  // Counter and gauge series in name order (histograms have their own dump
  // section).
  std::vector<std::uint32_t> ids;
  for (std::uint32_t id = 0; id < metrics.size(); ++id) {
    if (metrics[id].kind != 2) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
    return metrics[a].name < metrics[b].name;
  });

  out << "{\n  \"schema\": \"ecnd-metrics-ts-v1\",\n";
  out << "  \"interval_s\": " << json::number(snapshot_interval()) << ",\n";
  out << "  \"dropped_samples\": " << SnapStore::instance().dropped_total()
      << ",\n";
  out << "  \"tasks\": [";

  bool first_task = true;
  for (const auto& [task, buf] : tasks) {
    if (buf->times.empty()) continue;
    if (!first_task) out << ",";
    first_task = false;
    out << "\n    {\n      \"task\": " << task << ",\n      \"t_s\": [";
    for (std::size_t i = 0; i < buf->times.size(); ++i) {
      if (i != 0) out << ", ";
      out << json::number(buf->times[i]);
    }
    out << "],\n      \"series\": [";

    // Zero-filled where a sample predates the metric's registration;
    // all-zero series omitted.
    bool first_series = true;
    std::vector<std::uint64_t> col(buf->times.size(), 0);
    for (const std::uint32_t id : ids) {
      bool any = false;
      for (std::size_t i = 0; i < buf->samples.size(); ++i) {
        col[i] = id < buf->samples[i].size() ? buf->samples[i][id] : 0;
        any = any || col[i] != 0;
      }
      if (!any) continue;
      if (!first_series) out << ",";
      first_series = false;
      const bool is_gauge = metrics[id].kind == 1;
      out << "\n        {\"name\": " << json::quote(metrics[id].name)
          << ", \"kind\": \"" << (is_gauge ? "gauge" : "counter") << "\", ";
      if (is_gauge) {
        out << "\"values\": [";
        for (std::size_t i = 0; i < col.size(); ++i) {
          if (i != 0) out << ", ";
          out << col[i];
        }
        out << "]}";
      } else {
        out << "\"cum\": [";
        for (std::size_t i = 0; i < col.size(); ++i) {
          if (i != 0) out << ", ";
          out << col[i];
        }
        out << "], \"inc\": [";
        for (std::size_t i = 0; i < col.size(); ++i) {
          if (i != 0) out << ", ";
          out << (i == 0 ? col[0] : col[i] - col[i - 1]);
        }
        out << "]}";
      }
    }
    out << (first_series ? "]" : "\n      ]") << "\n    }";
  }
  out << (first_task ? "]" : "\n  ]") << "\n}\n";
}

}  // namespace ecnd::obs

#else  // ECND_OBS_DISABLED

#include <ostream>

namespace ecnd::obs {

void write_metrics_ts_json(std::ostream& out) {
  out << "{\n  \"schema\": \"ecnd-metrics-ts-v1\",\n  \"interval_s\": 0.001,"
         "\n  \"dropped_samples\": 0,\n  \"tasks\": []\n}\n";
}

}  // namespace ecnd::obs

#endif  // ECND_OBS_DISABLED
