#pragma once
// Flight recorder: in-band path telemetry for the packet simulator.
//
// Two coordinated record streams, both in SIMULATION time:
//
//   * Postcards — for deterministically sampled flows, every hop (host NIC
//     and every switch egress) appends one POD record per packet: port,
//     enqueue/transmit times, the data backlog the packet joined, the ECN
//     marking probability in force at this hop and the CE bit on departure,
//     the ECMP candidate count + chosen index, and how long the packet sat
//     behind a PFC pause. This is the per-hop latency/queue/mark
//     decomposition an INT postcard would carry in a real fabric.
//
//   * Flow spans — per sampled flow, a Chrome-trace "X" span from first
//     transmission to FCT with one aggregated sub-slice per hop, so a
//     Perfetto timeline shows where a tail-latency flow spent its life.
//     write_trace_json places these lanes in trace.json after the tracer's
//     events.
//
// Pause causality is not recorded here: sim::PauseCause is the one record,
// and sim::measure_pause_reach stitches it into the causality forest.
//
// Sampling is an FNV-1a hash of (src, dst, flow_id) against the sampling
// modulus — the same pure-hash idiom as sim's ecmp_hash.
// No RNG stream is consumed, so a run's packet-level behavior is
// bit-identical with the recorder armed, idle, or compiled out.
//
// Records are buffered per sweep task (the obs::TaskScope index, exactly
// like the tracer's rings), so exports are byte-identical at any
// ECND_THREADS. Postcard buffers are bounded (keep-first + drop counter);
// span buffers are small by construction.
//
// Runtime: ECND_RUN_DETAIL=flight (or above) arms the recorder and writes
// flight.postcards.json, plus the flow lanes in trace.json, into the run
// directory at process exit. It samples flows whose identity hash is
// divisible by 16 (set_flight_sample for tests; 1 = every flow).
// Compile-time: -DECND_OBS=OFF no-ops everything here.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "core/fnv1a.hpp"

namespace ecnd::obs {

/// Default sampling modulus: 1 in 16 flows.
inline constexpr std::uint64_t kDefaultFlightSample = 16;

/// One postcard: a sampled packet's passage through one hop. POD; `port` must
/// be an interned (obs::intern) or static string.
struct FlightHop {
  std::uint64_t flow_id = 0;
  std::uint32_t seq = 0;
  const char* port = "";
  std::int64_t t_in_ps = 0;        ///< enqueue time at this hop
  std::int64_t t_out_ps = 0;       ///< transmit time at this hop
  std::int64_t queue_bytes = 0;    ///< data backlog the packet joined
  std::int64_t pause_dwell_ps = 0; ///< queueing time spent PFC-paused
  double mark_prob = 0.0;          ///< marking probability applied at this hop
  bool marked = false;             ///< CE bit on departure (any-hop cumulative)
  std::uint16_t ecmp_candidates = 1;
  std::uint16_t ecmp_choice = 0;
};

/// One completed sampled flow (start -> FCT), closing its span.
struct FlightFlow {
  std::uint64_t flow_id = 0;
  int src_host = -1;
  int dst_host = -1;
  std::int64_t size_bytes = 0;
  std::int64_t start_ps = 0;
  std::int64_t end_ps = 0;
};

#if !defined(ECND_OBS_DISABLED)

namespace detail {
extern std::atomic<bool> g_flight_on;
extern std::atomic<std::uint64_t> g_flight_sample;
void flight_push_hop(const FlightHop& hop);
void flight_push_flow(const FlightFlow& flow);
/// Drop every buffer (obs::reset's flight half).
void flight_reset();
/// Each task's flow lanes as Chrome trace events for write_trace_json, keyed
/// by task index: per sampled flow in emission order, its span and then one
/// slice per hop, each on its own tid counting up from 1 (the tracer's
/// events own tid 0). Every event is preceded by ",\n".
std::map<std::uint32_t, std::string> flight_lanes();
}  // namespace detail

inline bool flight_enabled() {
  return detail::g_flight_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests). ECND_RUN_DETAIL=flight arms this at
/// startup.
void set_flight_enabled(bool on);

/// Sampling modulus: a flow is recorded iff hash(src,dst,flow) % n == 0.
/// n is clamped to >= 1; 1 records every flow.
void set_flight_sample(std::uint64_t n);
std::uint64_t flight_sample();

/// Deterministic sampling decision: fnv1a64_flow over the flow identity
/// (sim::ecmp_hash's hash, unseeded) with a murmur3 avalanche finalizer,
/// reduced by the sampling modulus. The finalizer matters: FNV-1a's low bits
/// are weak, and over the correlated identities flows actually have (flow_id
/// embeds src_host) a power-of-two modulus on the raw hash can miss residue
/// 0 entirely — whole scenarios silently record nothing. Pure — consumes no
/// RNG, identical at any thread count.
inline bool flight_sampled(int src_host, int dst_host, std::uint64_t flow_id) {
  std::uint64_t h = fnv1a64_flow(src_host, dst_host, flow_id);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h % detail::g_flight_sample.load(std::memory_order_relaxed) == 0;
}

inline void flight_record_hop(const FlightHop& hop) {
  if (flight_enabled()) detail::flight_push_hop(hop);
}
inline void flight_record_flow(const FlightFlow& flow) {
  if (flight_enabled()) detail::flight_push_flow(flow);
}

/// Postcards dropped to buffer overflow, summed over all task buffers.
std::uint64_t flight_dropped_total();

/// Per-task postcard capacity (keep-first). Applies to buffers created after
/// the call; obs::reset() drops existing buffers so tests can shrink it.
void set_flight_capacity(std::size_t records);

// Exports: tasks in index order, records in emission order within a task.
// Deterministic for a deterministic run at any thread count.
void write_flight_postcards_json(std::ostream& out);

#else  // ECND_OBS_DISABLED

inline bool flight_enabled() { return false; }
inline void set_flight_enabled(bool) {}
inline void set_flight_sample(std::uint64_t) {}
inline std::uint64_t flight_sample() { return kDefaultFlightSample; }
inline bool flight_sampled(int, int, std::uint64_t) { return false; }
inline void flight_record_hop(const FlightHop&) {}
inline void flight_record_flow(const FlightFlow&) {}
inline std::uint64_t flight_dropped_total() { return 0; }
inline void set_flight_capacity(std::size_t) {}
void write_flight_postcards_json(std::ostream& out);

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
