#include "obs/trace.hpp"

#include <ostream>

#if !defined(ECND_OBS_DISABLED)

#include <map>
#include <string>
#include <vector>

#include "core/json_writer.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/task_store.hpp"

namespace ecnd::obs {

namespace detail {
std::atomic<bool> g_trace_on{false};
}  // namespace detail

namespace {

struct TraceEvent {
  double ts_us = 0.0;
  double value = 0.0;
  std::uint64_t id = 0;
  const char* name = "";
  char phase = 'i';
};

/// Fixed-capacity ring. Overflow overwrites the oldest record (the end of a
/// run is what post-mortems need) and counts the loss.
struct TraceBuffer {
  explicit TraceBuffer(std::size_t capacity) : cap(capacity) {
    ring.reserve(cap < 4096 ? cap : 4096);
  }
  void push(const TraceEvent& e) {
    if (ring.size() < cap) {
      ring.push_back(e);
    } else {
      ring[count % cap] = e;
    }
    ++count;
  }
  std::uint64_t dropped() const { return count > cap ? count - cap : 0; }

  std::vector<TraceEvent> ring;
  std::size_t cap;
  std::uint64_t count = 0;
};

using TraceStore = detail::TaskStore<TraceBuffer>;

thread_local std::uint32_t t_task = 0;

void write_event(std::ostream& out, std::uint32_t task, const TraceEvent& e) {
  out << "{\"name\":" << json::quote(e.name) << ",\"ph\":\"" << e.phase
      << "\",\"pid\":" << task << ",\"tid\":0,\"ts\":"
      << json::trace_us(e.ts_us);
  if (e.phase == 'C') {
    out << ",\"args\":{\"value\":" << json::trace_value(e.value) << "}}";
  } else {
    out << ",\"s\":\"p\",\"args\":{\"v\":" << json::trace_value(e.value)
        << ",\"id\":" << e.id << "}}";
  }
}

}  // namespace

namespace detail {

void trace_push(const char* name, char phase, double ts_us, double value,
                std::uint64_t id) {
  TraceStore::instance().current().push({ts_us, value, id, name, phase});
}

void trace_reset() { TraceStore::instance().clear(); }

std::uint32_t current_task() { return t_task; }

}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_on.store(on, std::memory_order_relaxed);
}

void set_trace_capacity(std::size_t events) {
  TraceStore::instance().set_capacity(events);
}

// The metric cells are cached per thread: a new task must rebind them.
TaskScope::TaskScope(std::uint32_t task) : prev_(t_task) {
  t_task = task;
  detail::unbind_cells();
}

TaskScope::~TaskScope() {
  t_task = prev_;
  detail::unbind_cells();
}

std::uint64_t trace_dropped_total() {
  return TraceStore::instance().dropped_total();
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> trace_dropped_by_task() {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (const auto& [task, buf] : TraceStore::instance().snapshot()) {
    if (const std::uint64_t dropped = buf->dropped()) {
      out.emplace_back(task, dropped);
    }
  }
  return out;
}

void write_trace_json(std::ostream& out) {
  // Every task with tracer events, flight lanes or both, in index order.
  std::map<std::uint32_t, const TraceBuffer*> tasks;
  for (const auto& [task, buf] : TraceStore::instance().snapshot()) {
    tasks.emplace(task, buf);
  }
  const std::map<std::uint32_t, std::string> lanes = detail::flight_lanes();
  for (const auto& [task, text] : lanes) tasks.try_emplace(task, nullptr);

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const char* sep = "\n";
  for (const auto& [task, buf] : tasks) {
    // pid = task index; the tracer's instants and counters live on tid 0,
    // the flight recorder's flow lanes on tids 1, 2, ...
    out << sep
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << task
        << ",\"tid\":0,\"args\":{\"name\":\"task " << task << "\"}}";
    sep = ",\n";
    if (buf != nullptr) {
      out << sep << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << task
          << ",\"tid\":0,\"args\":{\"name\":\"events\"}}";
      // Chronological order: a wrapped ring's oldest surviving record sits
      // at count % cap.
      const std::size_t n = buf->ring.size();
      const std::size_t start =
          buf->count > buf->cap ? static_cast<std::size_t>(buf->count % buf->cap)
                                : 0;
      for (std::size_t k = 0; k < n; ++k) {
        out << sep;
        write_event(out, task, buf->ring[(start + k) % n]);
      }
      if (const std::uint64_t dropped = buf->dropped()) {
        out << sep << "{\"name\":\"trace.dropped\",\"ph\":\"i\",\"pid\":"
            << task << ",\"tid\":0,\"ts\":0.000000,\"s\":\"p\",\"args\":{\"v\":"
            << dropped << ",\"id\":0}}";
      }
    }
    if (const auto found = lanes.find(task); found != lanes.end()) {
      out << found->second;
    }
  }
  out << "\n]}\n";
}

}  // namespace ecnd::obs

#else  // ECND_OBS_DISABLED

namespace ecnd::obs {

void write_trace_json(std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n";
}

}  // namespace ecnd::obs

#endif  // ECND_OBS_DISABLED
