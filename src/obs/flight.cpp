#include "obs/flight.hpp"

#if !defined(ECND_OBS_DISABLED)

#include <algorithm>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/task_store.hpp"

namespace ecnd::obs {

namespace detail {
std::atomic<bool> g_flight_on{false};
std::atomic<std::uint64_t> g_flight_sample{kDefaultFlightSample};
}  // namespace detail

namespace {

// Sim-domain volume counters (catalogued in OBSERVABILITY.md): how much the
// recorder captured. Zero unless the recorder is armed, so the default
// metrics dump is unchanged by this module.
const Counter kFlightHops = counter("obs.flight_hops");
const Counter kFlightFlows = counter("obs.flight_flows");
const Counter kFlightDropped = counter("obs.flight_dropped");

/// One sweep task's record streams. Postcards are keep-first bounded: the
/// head of a flow's life is what localizes its latency, and a fixed prefix
/// is deterministic under any completion order. Spans are small by
/// construction (one record per flow).
struct TaskFlight {
  explicit TaskFlight(std::size_t capacity) : cap(capacity) {}

  std::vector<FlightHop> hops;
  std::uint64_t hop_attempts = 0;
  std::vector<FlightFlow> flows;
  std::size_t cap;

  std::uint64_t dropped() const {
    return hop_attempts > hops.size() ? hop_attempts - hops.size() : 0;
  }
};

using FlightStore = detail::TaskStore<TaskFlight>;

/// Chrome trace timestamps: sim microseconds in the tracer's fixed format.
std::string ts_us(std::int64_t ps) {
  return json::trace_us(static_cast<double>(ps) / 1e6);
}

/// Per-flow hop aggregate for the lanes' sub-slices: one slice per hop of
/// the flow's path, [first enqueue, last transmit].
struct HopSlice {
  const char* port = "";
  std::int64_t t_first_in_ps = 0;
  std::int64_t t_last_out_ps = 0;
  std::uint64_t packets = 0;
  std::uint64_t marks = 0;
  std::int64_t queue_peak_bytes = 0;
  std::int64_t dwell_ps = 0;
};

}  // namespace

namespace detail {

void flight_push_hop(const FlightHop& hop) {
  TaskFlight& buf = FlightStore::instance().current();
  ++buf.hop_attempts;
  if (buf.hops.size() < buf.cap) {
    buf.hops.push_back(hop);
    kFlightHops.add();
  } else {
    kFlightDropped.add();
  }
}

void flight_push_flow(const FlightFlow& flow) {
  FlightStore::instance().current().flows.push_back(flow);
  kFlightFlows.add();
}

void flight_reset() { FlightStore::instance().clear(); }

}  // namespace detail

void set_flight_enabled(bool on) {
  detail::g_flight_on.store(on, std::memory_order_relaxed);
}

void set_flight_sample(std::uint64_t n) {
  detail::g_flight_sample.store(n > 0 ? n : 1, std::memory_order_relaxed);
}

std::uint64_t flight_sample() {
  return detail::g_flight_sample.load(std::memory_order_relaxed);
}

void set_flight_capacity(std::size_t records) {
  FlightStore::instance().set_capacity(records);
}

std::uint64_t flight_dropped_total() {
  return FlightStore::instance().dropped_total();
}

void write_flight_postcards_json(std::ostream& out) {
  const auto buffers = FlightStore::instance().snapshot();
  out << "{\"schema\":\"ecnd-flight-postcards-v1\",\"sample_modulus\":"
      << flight_sample() << ",\"tasks\":[";
  const char* task_sep = "\n";
  for (const auto& [task, buf] : buffers) {
    out << task_sep << "{\"task\":" << task << ",\"dropped\":" << buf->dropped()
        << ",\"records\":[";
    task_sep = ",\n";
    const char* sep = "\n";
    for (const FlightHop& h : buf->hops) {
      out << sep << "{\"flow\":" << h.flow_id << ",\"seq\":" << h.seq
          << ",\"port\":" << json::quote(h.port)
          << ",\"t_in_ps\":" << h.t_in_ps << ",\"t_out_ps\":" << h.t_out_ps
          << ",\"queue_b\":" << h.queue_bytes
          << ",\"dwell_ps\":" << h.pause_dwell_ps
          << ",\"mark_p\":" << json::number(h.mark_prob)
          << ",\"marked\":" << (h.marked ? "true" : "false")
          << ",\"ecmp\":[" << h.ecmp_candidates << "," << h.ecmp_choice
          << "]}";
      sep = ",\n";
    }
    out << "\n]}";
  }
  out << "\n]}\n";
}

namespace detail {

std::map<std::uint32_t, std::string> flight_lanes() {
  std::map<std::uint32_t, std::string> lanes;
  for (const auto& [task, buf] : FlightStore::instance().snapshot()) {
    std::ostringstream out;
    // Bucket this task's postcards by flow (emission order preserved).
    std::unordered_map<std::uint64_t, std::vector<const FlightHop*>> by_flow;
    for (const FlightHop& h : buf->hops) by_flow[h.flow_id].push_back(&h);

    std::uint64_t tid = 0;
    for (const FlightFlow& flow : buf->flows) {
      const auto found = by_flow.find(flow.flow_id);

      // Aggregate per hop, in path order (per-hop FIFO + per-flow ECMP path
      // stickiness make first-occurrence order the path order).
      std::vector<HopSlice> slices;
      std::int64_t span_start = flow.start_ps;
      if (found != by_flow.end()) {
        for (const FlightHop* h : found->second) {
          HopSlice* slice = nullptr;
          for (HopSlice& s : slices) {
            if (s.port == h->port) { slice = &s; break; }
          }
          if (slice == nullptr) {
            slices.push_back({});
            slice = &slices.back();
            slice->port = h->port;
            slice->t_first_in_ps = h->t_in_ps;
          }
          slice->t_last_out_ps = std::max(slice->t_last_out_ps, h->t_out_ps);
          ++slice->packets;
          if (h->marked) ++slice->marks;
          slice->queue_peak_bytes = std::max(slice->queue_peak_bytes, h->queue_bytes);
          slice->dwell_ps += h->pause_dwell_ps;
          span_start = std::min(span_start, h->t_in_ps);
        }
      }

      // Every span and slice gets its own tid, so slices never overlap
      // within a Perfetto track.
      ++tid;
      out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << task
          << ",\"tid\":" << tid << ",\"args\":{\"name\":\"flow " << flow.flow_id
          << " h" << flow.src_host << "->h" << flow.dst_host << "\"}}";
      out << ",\n{\"name\":\"flow " << flow.flow_id << "\",\"ph\":\"X\",\"pid\":"
          << task << ",\"tid\":" << tid << ",\"ts\":" << ts_us(span_start)
          << ",\"dur\":" << ts_us(flow.end_ps - span_start)
          << ",\"args\":{\"bytes\":" << flow.size_bytes
          << ",\"fct_us\":" << ts_us(flow.end_ps - flow.start_ps) << "}}";

      for (std::size_t h = 0; h < slices.size(); ++h) {
        const HopSlice& s = slices[h];
        ++tid;
        out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << task
            << ",\"tid\":" << tid << ",\"args\":{\"name\":"
            << json::quote("hop " + std::to_string(h) + " " + s.port) << "}}";
        out << ",\n{\"name\":" << json::quote(s.port)
            << ",\"ph\":\"X\",\"pid\":" << task << ",\"tid\":" << tid
            << ",\"ts\":" << ts_us(s.t_first_in_ps)
            << ",\"dur\":" << ts_us(s.t_last_out_ps - s.t_first_in_ps)
            << ",\"args\":{\"packets\":" << s.packets << ",\"marks\":" << s.marks
            << ",\"queue_peak_b\":" << s.queue_peak_bytes
            << ",\"dwell_us\":" << ts_us(s.dwell_ps) << "}}";
      }
    }
    lanes.emplace(task, std::move(out).str());
  }
  return lanes;
}

}  // namespace detail

}  // namespace ecnd::obs

#else  // ECND_OBS_DISABLED

#include <ostream>

namespace ecnd::obs {

void write_flight_postcards_json(std::ostream& out) {
  out << "{\"schema\":\"ecnd-flight-postcards-v1\",\"sample_modulus\":0,"
      << "\"tasks\":[\n]}\n";
}

}  // namespace ecnd::obs

#endif  // ECND_OBS_DISABLED
