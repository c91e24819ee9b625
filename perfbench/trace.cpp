#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::mutex g_mu;
std::vector<SpanRecord> g_spans;        // guarded by g_mu
std::vector<std::uint32_t> g_tids;      // guarded by g_mu, parallel to g_spans
std::atomic<std::uint32_t> g_next_tid{0};

const auto g_epoch = std::chrono::steady_clock::now();

struct OpenSpan {
  int id;
  std::uint32_t op;
  double weight;
};
thread_local std::vector<OpenSpan> t_stack;
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1);

int open_span(Layer layer, const char* name, int parent, std::uint32_t op,
              double weight) {
  const double t0 = now_s();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    id = static_cast<int>(g_spans.size());
    g_spans.push_back({layer, name, t0, t0, parent, op, weight});
    g_tids.push_back(t_tid);
  }
  t_stack.push_back({id, op, weight});
  return id;
}

}  // namespace

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayers] = {
      "bench", "sim", "proto", "workload", "exp", "fluid", "control", "core", "obs"};
  return kNames[static_cast<std::size_t>(layer)];
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

Span::Span(Layer layer, const char* name) {
  if (!tracing()) return;
  const bool nested = !t_stack.empty();
  id_ = open_span(layer, name, nested ? t_stack.back().id : -1,
                  nested ? t_stack.back().op : 0,
                  nested ? t_stack.back().weight : 1.0);
}

Span::Span(Layer layer, const char* name, int parent, std::uint32_t op,
           double weight) {
  if (!tracing()) return;
  id_ = open_span(layer, name, parent, op, weight);
}

Span::~Span() {
  if (id_ < 0) return;
  const double t1 = now_s();
  t_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans[static_cast<std::size_t>(id_)].t1 = t1;
}

std::vector<SpanRecord> spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans.size();
}

std::array<double, kLayers> layer_self_seconds(const std::vector<SpanRecord>& all,
                                               std::size_t begin,
                                               std::size_t end) {
  std::array<double, kLayers> self{};
  for (std::size_t i = begin; i < end; ++i) {
    const SpanRecord& s = all[i];
    const double weighted = s.weight * (s.t1 - s.t0);
    self[static_cast<std::size_t>(s.layer)] += weighted;
    if (s.parent >= static_cast<int>(begin)) {
      const SpanRecord& parent = all[static_cast<std::size_t>(s.parent)];
      self[static_cast<std::size_t>(parent.layer)] -= weighted;
    }
  }
  return self;
}

void write_chrome_trace(const std::string& path,
                        const std::string& run_record_json) {
  std::lock_guard<std::mutex> lock(g_mu);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"otherData\": " << run_record_json << ",\n\"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"id\": %zu, \"parent\": %d, \"op\": %u, "
                  "\"weight\": %.17g}}",
                  i == 0 ? "" : ",", s.name, layer_name(s.layer), s.t0 * 1e6,
                  (s.t1 - s.t0) * 1e6, g_tids[i], i, s.parent, s.op, s.weight);
    out << buf;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
