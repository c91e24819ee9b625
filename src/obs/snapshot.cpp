#include "obs/snapshot.hpp"

#if !defined(ECND_OBS_DISABLED)

#include <algorithm>
#include <cmath>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
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

/// Process-wide dense series ids. Metric names are appended on first sight
/// and never move, so a sample row is a plain vector indexed by id and two
/// runs that register metrics in the same order agree on every id.
class IdTable {
 public:
  static IdTable& instance() {
    static IdTable* t = new IdTable;
    return *t;
  }

  std::uint32_t id_for(const std::string& name, std::uint8_t kind) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name, kind);
    ids_.emplace(name, id);
    return id;
  }

  std::vector<std::pair<std::string, std::uint8_t>> names() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return names_;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::pair<std::string, std::uint8_t>> names_;  // {name, kind}
};

/// One sweep task's time-series, capped at the store capacity (65536
/// samples): keep-first, since the divergence hunt metrics_ts exists for
/// starts from t = 0; overflow is counted and reported. `carry` holds counts
/// the task accrued in a shard that has since been folded away (the thread
/// moved to another task and back): sampled value = carry ⊕ live shard cell,
/// where ⊕ is the metric's merge operator.
struct TaskSnap {
  explicit TaskSnap(std::size_t capacity) : cap(capacity) {}

  std::vector<double> times;
  std::vector<std::vector<std::uint64_t>> samples;  ///< samples[i][id]
  std::vector<std::uint64_t> carry;                 ///< by id
  double next_t = 0.0;   ///< next sampling threshold (sim seconds)
  double last_t = -1.0;  ///< restart detector: t going backwards = new run
  std::size_t cap;
  std::uint64_t drops = 0;

  std::uint64_t dropped() const { return drops; }
};

using SnapStore = detail::TaskStore<TaskSnap>;

/// The calling thread's view of the registry: which shard cell feeds which
/// series id. Rebuilt when the registry grows (metric_count is the
/// generation stamp; the table is append-only). Counters and gauges only —
/// histograms have their own dump section.
struct Col {
  std::uint32_t cell;
  std::uint32_t id;
  std::uint8_t kind;  // 0 counter, 1 gauge
};

thread_local std::vector<Col> t_layout;
thread_local std::size_t t_layout_gen = 0;

void refresh_layout() {
  const std::size_t count = detail::metric_count();
  if (count == t_layout_gen) return;
  t_layout.clear();
  for (const detail::SnapshotRow& row : detail::snapshot_rows()) {
    if (row.kind > 1) continue;  // counters and gauges only
    const std::uint32_t id = IdTable::instance().id_for(row.name, row.kind);
    t_layout.push_back({row.cell, id, row.kind});
  }
  t_layout_gen = count;
}

/// Fold the calling thread's live shard cells into `b.carry` with the
/// per-kind merge operator (counters add, gauges max). Called when the
/// thread's TaskScope moves on: the departing task keeps what it accrued.
void fold_shard_into(TaskSnap& b) {
  for (const Col& c : t_layout) {
    const std::uint64_t v = detail::read_thread_cell(c.cell);
    if (v == 0) continue;
    if (b.carry.size() <= c.id) b.carry.resize(c.id + 1, 0);
    if (c.kind == 1) {
      b.carry[c.id] = std::max(b.carry[c.id], v);
    } else {
      b.carry[c.id] += v;
    }
  }
}

}  // namespace

namespace detail {

void snapshot_sample(double t_s) {
  TaskSnap& b = SnapStore::instance().current([](TaskSnap* prev) {
    refresh_layout();
    // The thread moved to another task: attribute the shard's counts to the
    // task that produced them before zeroing.
    if (prev != nullptr) fold_shard_into(*prev);
    // Purge schedule-dependent shard leftovers (commutative merge into the
    // global accumulator: totals unchanged) so subsequent shard reads see
    // only this task's own work.
    merge_and_zero_calling_thread();
  });
  if (t_s < b.last_t) b.next_t = 0.0;  // sim clock restarted: new run, resample
  b.last_t = t_s;
  if (t_s < b.next_t) return;

  refresh_layout();
  const double interval = g_interval.load(std::memory_order_relaxed);
  b.next_t = (std::floor(t_s / interval) + 1.0) * interval;
  if (b.samples.size() >= b.cap) {
    ++b.drops;
    kSnapDropped.add();
    return;
  }

  std::vector<std::uint64_t> row;
  row.resize(t_layout.empty() ? 0 : (t_layout.back().id + 1), 0);
  for (const Col& c : t_layout) {
    const std::uint64_t live = read_thread_cell(c.cell);
    const std::uint64_t carried = c.id < b.carry.size() ? b.carry[c.id] : 0;
    row[c.id] = c.kind == 1 ? std::max(carried, live) : carried + live;
  }
  b.times.push_back(t_s);
  b.samples.push_back(std::move(row));
  kSnapSamples.add();
}

// Thread-local layouts stay: the registry survives reset().
void snapshot_reset() { SnapStore::instance().clear(); }

}  // namespace detail

void set_snapshot_enabled(bool on) {
  detail::g_snapshot_on.store(on, std::memory_order_relaxed);
  if (on) set_metrics_enabled(true);  // the sampler records shard counts
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
  const auto names = IdTable::instance().names();
  const auto tasks = SnapStore::instance().snapshot();

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

    // Column view per id, zero-filled where a sample predates the metric's
    // registration; all-zero series omitted; name order for stable output.
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < names.size(); ++id) ids.push_back(id);
    std::sort(ids.begin(), ids.end(), [&](std::uint32_t a, std::uint32_t b) {
      return names[a].first < names[b].first;
    });

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
      const bool is_gauge = names[id].second == 1;
      out << "\n        {\"name\": " << json::quote(names[id].first)
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
