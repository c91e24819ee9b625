#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>  // environ

#include "core/env_knob.hpp"
#include "core/json_writer.hpp"
#include "obs/flight.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace ecnd::obs {

int bucket_index(std::uint64_t value) {
  const int b = std::bit_width(value);  // 0 for 0, else 1 + floor(log2 v)
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

std::uint64_t bucket_lower_edge(int b) {
  return b <= 0 ? 0 : std::uint64_t{1} << (b - 1);
}

#if !defined(ECND_OBS_DISABLED)

namespace detail {
std::atomic<bool> g_metrics_on{false};
}  // namespace detail

namespace {

enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

struct MetricInfo {
  std::string name;
  Kind kind;
  std::uint32_t cell;    // first cell in the shard/global layout
  std::uint32_t ncells;  // 1, or 2 + kHistogramBuckets for histograms
};

/// Global metric table + accumulator. Leaked on purpose: thread shards merge
/// into it from thread-exit destructors whose order vs static destruction is
/// unknowable.
class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry;
    return *r;
  }

  std::uint32_t register_metric(std::string_view name, Kind kind,
                                std::uint32_t ncells) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const MetricInfo& m : metrics_) {
      if (m.name == name) {
        if (m.kind != kind) {
          throw std::logic_error("obs metric '" + std::string(name) +
                                 "' re-registered as a different kind");
        }
        return m.cell;
      }
    }
    MetricInfo info{std::string(name), kind,
                    static_cast<std::uint32_t>(total_cells_), ncells};
    metrics_.push_back(info);
    total_cells_ += ncells;
    global_.resize(total_cells_, 0);
    return info.cell;
  }

  std::size_t total_cells() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_cells_;
  }

  std::size_t metric_count() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size();
  }

  /// Fold a shard into the global accumulator and zero it. Merge operators
  /// are commutative, so the result is independent of merge order.
  void merge_and_zero(std::vector<std::uint64_t>& shard) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const MetricInfo& m : metrics_) {
      for (std::uint32_t c = m.cell; c < m.cell + m.ncells; ++c) {
        if (c >= shard.size()) break;
        if (m.kind == Kind::kGauge) {
          if (shard[c] > global_[c]) global_[c] = shard[c];
        } else {
          global_[c] += shard[c];
        }
        shard[c] = 0;
      }
    }
  }

  void zero_global() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint64_t& v : global_) v = 0;
  }

  /// Snapshot of (metric table, merged values) for export.
  void snapshot(std::vector<MetricInfo>& metrics,
                std::vector<std::uint64_t>& values) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    metrics = metrics_;
    values = global_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<MetricInfo> metrics_;
  std::vector<std::uint64_t> global_;
  std::size_t total_cells_ = 0;
};

/// Per-thread shard storage. The cells live on the heap behind a trivially-
/// destructible TLS pointer; a separate reaper object merges them into the
/// registry and nulls the pointer when the thread exits. The split matters on
/// the main thread: glibc runs thread_local destructors *before* atexit
/// handlers, so export_at_exit must find either live cells or a null pointer
/// — never a destroyed vector. Both destruction orders are safe: whichever of
/// {reaper, atexit export} runs first merges, the other sees zeros/null.
thread_local std::vector<std::uint64_t>* t_cells = nullptr;

struct ShardReaper {
  ~ShardReaper() {
    if (t_cells != nullptr) {
      Registry::instance().merge_and_zero(*t_cells);
      delete t_cells;
      t_cells = nullptr;
    }
  }
};

thread_local ShardReaper t_reaper;

void merge_calling_thread() {
  if (t_cells != nullptr) Registry::instance().merge_and_zero(*t_cells);
}

/// Percentile from log2 buckets with Prometheus-style linear interpolation
/// inside the bucket where the cumulative count crosses q * count. Bucket 0
/// holds the exact value 0; bucket b >= 1 interpolates over [2^(b-1), 2^b).
double bucket_percentile(const std::uint64_t* buckets, std::uint64_t count,
                         double q) {
  if (count == 0) return 0.0;
  const double target =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  double seen = 0.0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = seen + static_cast<double>(buckets[b]);
    if (next >= target) {
      if (b == 0) return 0.0;
      const double lower = static_cast<double>(bucket_lower_edge(b));
      const double frac =
          std::clamp((target - seen) / static_cast<double>(buckets[b]), 0.0, 1.0);
      return lower + frac * lower;  // bucket width == its lower edge
    }
    seen = next;
  }
  return static_cast<double>(bucket_lower_edge(kHistogramBuckets - 1));
}

/// Interned-string table (leaked; std::set nodes give stable addresses).
std::mutex g_intern_mutex;
std::set<std::string>& intern_table() {
  static auto* table = new std::set<std::string>;
  return *table;
}

}  // namespace

namespace detail {

std::uint64_t* cells(std::uint32_t index) {
  if (t_cells == nullptr) {
    t_cells = new std::vector<std::uint64_t>;
    (void)t_reaper;  // force the reaper's construction (and thus destruction)
  }
  std::vector<std::uint64_t>& c = *t_cells;
  if (index >= c.size()) c.resize(Registry::instance().total_cells(), 0);
  return c.data() + index;
}

std::vector<SnapshotRow> snapshot_rows() {
  std::vector<MetricInfo> metrics;
  std::vector<std::uint64_t> values;
  Registry::instance().snapshot(metrics, values);
  std::vector<SnapshotRow> rows;
  rows.reserve(metrics.size());
  for (const MetricInfo& m : metrics) {
    rows.push_back({m.name, static_cast<std::uint8_t>(m.kind), m.cell});
  }
  return rows;
}

std::size_t metric_count() { return Registry::instance().metric_count(); }

void merge_and_zero_calling_thread() { merge_calling_thread(); }

std::uint64_t read_thread_cell(std::uint32_t index) {
  if (t_cells == nullptr || index >= t_cells->size()) return 0;
  return (*t_cells)[index];
}

}  // namespace detail

void set_metrics_enabled(bool on) {
  detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

const char* intern(std::string_view s) {
  const std::lock_guard<std::mutex> lock(g_intern_mutex);
  return intern_table().emplace(s).first->c_str();
}

Counter counter(std::string_view name) {
  return Counter(Registry::instance().register_metric(name, Kind::kCounter, 1));
}

Gauge gauge(std::string_view name) {
  return Gauge(Registry::instance().register_metric(name, Kind::kGauge, 1));
}

Histogram histogram(std::string_view name) {
  return Histogram(Registry::instance().register_metric(
      name, Kind::kHistogram, 2 + kHistogramBuckets));
}

std::optional<double> histogram_percentile(std::string_view name, double q) {
  merge_calling_thread();
  std::vector<MetricInfo> metrics;
  std::vector<std::uint64_t> values;
  Registry::instance().snapshot(metrics, values);
  for (const MetricInfo& m : metrics) {
    if (m.name != name || m.kind != Kind::kHistogram) continue;
    const std::uint64_t* base = values.data() + m.cell;
    if (base[0] == 0) return std::nullopt;
    return bucket_percentile(base + 2, base[0], q);
  }
  return std::nullopt;
}

void dump_metrics_json(std::ostream& out) {
  merge_calling_thread();
  std::vector<MetricInfo> metrics;
  std::vector<std::uint64_t> values;
  Registry::instance().snapshot(metrics, values);

  // Sort by name within each kind: registration order depends on which code
  // ran first (and on which thread), the dump must not.
  std::map<std::string, const MetricInfo*> counters, gauges, histograms;
  for (const MetricInfo& m : metrics) {
    (m.kind == Kind::kCounter  ? counters
     : m.kind == Kind::kGauge ? gauges
                              : histograms)[m.name] = &m;
  }

  out << "{\n  \"schema\": \"ecnd-metrics-v1\",\n";
  out << "  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, m] : counters) {
    out << sep << "\n    " << json::quote(name) << ": " << values[m->cell];
    sep = ",";
  }
  out << (counters.empty() ? "},\n" : "\n  },\n");
  out << "  \"gauges\": {";
  sep = "";
  for (const auto& [name, m] : gauges) {
    out << sep << "\n    " << json::quote(name) << ": " << values[m->cell];
    sep = ",";
  }
  out << (gauges.empty() ? "},\n" : "\n  },\n");
  out << "  \"histograms\": {";
  sep = "";
  for (const auto& [name, m] : histograms) {
    const std::uint64_t* base = values.data() + m->cell;
    out << sep << "\n    " << json::quote(name) << ": {\"count\": " << base[0]
        << ", \"sum\": " << base[1] << ", \"buckets\": [";
    const char* bsep = "";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (base[2 + b] == 0) continue;
      out << bsep << "[" << bucket_lower_edge(b) << ", " << base[2 + b] << "]";
      bsep = ", ";
    }
    out << "]";
    if (base[0] > 0) {
      out << ", \"p50\": " << json::number(bucket_percentile(base + 2, base[0], 0.5))
          << ", \"p99\": " << json::number(bucket_percentile(base + 2, base[0], 0.99));
    } else {
      out << ", \"p50\": null, \"p99\": null";
    }
    out << "}";
    sep = ",";
  }
  out << (histograms.empty() ? "}\n" : "\n  }\n");
  out << "}\n";
}

void print_summary(std::ostream& out) {
  merge_calling_thread();
  std::vector<MetricInfo> metrics;
  std::vector<std::uint64_t> values;
  Registry::instance().snapshot(metrics, values);

  std::map<std::string, const MetricInfo*> by_name;
  for (const MetricInfo& m : metrics) by_name[m.name] = &m;

  out << "== ecnd observability summary ==\n";
  out << "-- counters / gauges --\n";
  for (const auto& [name, m] : by_name) {
    if (m->kind == Kind::kHistogram) continue;
    if (values[m->cell] == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-34s %20llu%s\n", name.c_str(),
                  static_cast<unsigned long long>(values[m->cell]),
                  m->kind == Kind::kGauge ? "  (max)" : "");
    out << line;
  }
  out << "-- histograms --\n";
  for (const auto& [name, m] : by_name) {
    if (m->kind != Kind::kHistogram) continue;
    const std::uint64_t* base = values.data() + m->cell;
    const std::uint64_t count = base[0];
    if (count == 0) continue;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  %-34s count=%-10llu mean=%-10.0f p50~%-10.0f p99~%.0f\n",
                  name.c_str(), static_cast<unsigned long long>(count),
                  static_cast<double>(base[1]) / static_cast<double>(count),
                  bucket_percentile(base + 2, count, 0.5),
                  bucket_percentile(base + 2, count, 0.99));
    out << line;
  }
  if (const std::uint64_t dropped = trace_dropped_total()) {
    out << "  (trace ring overflow dropped " << dropped << " events)\n";
  }
  out << "== end summary ==\n";
}

void reset() {
  merge_calling_thread();
  Registry::instance().zero_global();
  detail::trace_reset();
  detail::flight_reset();
  detail::snapshot_reset();
  detail::prof_reset();
}

namespace {

// The run directory: ECND_RUN_DIR and ECND_RUN_DETAIL are read once, before
// main(); only export_at_exit and RunManifest (through run_file) write there.
using env::RunDetail;

const char* g_run_dir = nullptr;  // points into environ; null while idle
RunDetail g_run_detail = RunDetail::kBasic;

/// Write `name` in the run directory.
template <typename Writer>
void write_run_file(const char* name, Writer&& writer) {
  json::write_file(run_file(name), "ECND_RUN_DIR", writer);
}

/// Every export the level recorded, each under its fixed name.
void export_at_exit() {
  write_run_file("metrics.json", dump_metrics_json);
  if (g_run_detail >= RunDetail::kTrace) {
    write_run_file("trace.json", write_trace_json);
  }
  if (g_run_detail >= RunDetail::kFlight) {
    write_run_file("flight.postcards.json", write_flight_postcards_json);
    write_run_file("flight.timeline.json", write_flight_timeline_json);
    write_run_file("flight.pausetree.json", write_flight_pausetree_json);
  }
  write_run_file("metrics_ts.json", write_metrics_ts_json);
  if (g_run_detail >= RunDetail::kProf) {
    write_run_file("profile.folded",
                   [](std::ostream& out) { write_profile_folded(out, false); });
    write_run_file("profile.wall.folded",
                   [](std::ostream& out) { write_profile_folded(out, true); });
  }
  write_run_file("summary.txt", print_summary);
}

/// Reports unknown ECND_* knobs, then arms the run directory if one is set
/// and can be created. Construction order vs other statics does not matter:
/// the registry is lazily created and atexit may be called at any time.
struct RunDirInit {
  RunDirInit() {
    env::warn_unknown_knobs(environ);
    const char* dir = std::getenv("ECND_RUN_DIR");
    const RunDetail level =
        env::parse_detail(dir, std::getenv("ECND_RUN_DETAIL"));
    if (dir == nullptr) return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "[obs] cannot create ECND_RUN_DIR path %s: %s\n",
                   dir, ec.message().c_str());
      return;
    }
    g_run_dir = dir;
    g_run_detail = level;
    // Every level counts and samples: the manifest embeds a digest of the
    // metrics registry, and the sampler records shard counts.
    constexpr auto relaxed = std::memory_order_relaxed;
    detail::g_metrics_on.store(true, relaxed);
    detail::g_snapshot_on.store(true, relaxed);
    detail::g_trace_on.store(level >= RunDetail::kTrace, relaxed);
    detail::g_flight_on.store(level >= RunDetail::kFlight, relaxed);
    detail::g_prof_on.store(level >= RunDetail::kProf, relaxed);
    std::atexit(export_at_exit);
  }
};
const RunDirInit g_run_dir_init;

}  // namespace

std::string run_file(std::string_view name) {
  return g_run_dir == nullptr ? std::string()
                              : std::string(g_run_dir) + "/" + std::string(name);
}

#else  // ECND_OBS_DISABLED

void reset() {}

const char* intern(std::string_view) { return ""; }

void dump_metrics_json(std::ostream& out) {
  out << "{\n  \"schema\": \"ecnd-metrics-v1\",\n  \"compiled_out\": true\n}\n";
}

void print_summary(std::ostream& out) {
  out << "== ecnd observability summary: compiled out (ECND_OBS=OFF) ==\n";
}

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
