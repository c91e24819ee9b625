#include "sim/host.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "core/diagnostic.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ecnd::sim {
namespace {

// End-host control-plane metrics (sim-domain). sim.rate_updates counts
// feedback deliveries that reached a live controller (CNP or RTT sample);
// the host.rate_update trace instant records the post-update rate in Gb/s.
const obs::Counter kCnpsGenerated = obs::counter("sim.cnps_generated");
const obs::Counter kAcksGenerated = obs::counter("sim.acks_generated");
const obs::Counter kRateUpdates = obs::counter("sim.rate_updates");

}  // namespace

Host::Host(Simulator& sim, Rng& rng, std::string name, int id, HostConfig config)
    : Node(std::move(name), id), sim_(sim), rng_(rng), config_(config) {}

void Host::attach_link(BitsPerSecond rate, PicoTime propagation) {
  assert(!nic_);
  nic_ = std::make_unique<Port>(sim_, rng_, Node::name() + ":nic", rate,
                                propagation);
  nic_->set_wire_timestamping(true);
}

std::uint64_t Host::start_flow(int dst_host, Bytes size) {
  assert(nic_ && nic_->connected());
  assert(factory_ && "set_controller_factory before starting flows");
  assert(size > 0);
  const std::uint64_t flow_id =
      (static_cast<std::uint64_t>(id()) << 32) | next_flow_seq_++;
  const int already_active = active_send_flows();
  SenderFlow& flow = send_flows_.emplace(flow_id);
  flow.dst_host = dst_host;
  flow.size = size;
  flow.controller = factory_(already_active);
  pump(flow_id);
  return flow_id;
}

Packet Host::make_data_packet(std::uint64_t flow_id, SenderFlow& flow,
                              Bytes bytes) {
  Packet pkt;
  pkt.type = PacketType::kData;
  pkt.src_host = id();
  pkt.dst_host = flow.dst_host;
  pkt.flow_id = flow_id;
  pkt.size = bytes;
  pkt.seq = flow.next_seq++;
  pkt.sent_at = sim_.now();
  flow.sent += bytes;
  flow.chunk_progress += bytes;
  const bool last = flow.sent >= flow.size;
  if (flow.chunk_progress >= flow.controller->chunk_bytes() || last) {
    pkt.chunk_end = true;
    pkt.wants_ack = flow.controller->wants_rtt();
    flow.chunk_progress = 0;
  }
  pkt.flow_end = last;
  return pkt;
}

void Host::pump(std::uint64_t flow_id) {
  SenderFlow* found = send_flows_.find(flow_id);
  if (found == nullptr) return;
  SenderFlow& flow = *found;
  RateController& ctl = *flow.controller;

  const Bytes remaining = flow.size - flow.sent;
  assert(remaining > 0);
  const Bytes installment =
      ctl.burst_pacing() ? std::min(ctl.chunk_bytes(), remaining)
                         : std::min<Bytes>(config_.mtu, remaining);

  // Emit the installment as MTU-sized packets back-to-back into the NIC
  // queue (it serializes at line rate; per-burst pacing is exactly this).
  Bytes emitted = 0;
  while (emitted < installment) {
    const Bytes bytes = std::min<Bytes>(config_.mtu, installment - emitted);
    nic_->enqueue(make_data_packet(flow_id, flow, bytes));
    emitted += bytes;
  }
  ctl.on_bytes_sent(emitted, sim_.now());

  if (flow.sent >= flow.size) {
    // All bytes handed to the NIC; the controller is no longer needed.
    // (Straggler CNPs/ACKs for this flow are dropped in receive().)
    send_flows_.erase(flow_id);
    return;
  }

  // Pace: the *average* rate equals ctl.rate() whether we emitted one MTU or
  // a whole chunk. The rate is re-read at each installment, so feedback that
  // arrives mid-gap takes effect on the very next transmission.
  //
  // Guard the rate register before using it as a divisor: a NaN or negative
  // rate (a controller arithmetic bug, or corrupted feedback) would otherwise
  // become a nonsensical pacing gap and silently garble the rest of the run.
  // Anything above 1000x the NIC rate is a runaway register, not a
  // configuration choice.
  const double raw_rate = ctl.rate();
  if (!std::isfinite(raw_rate) || raw_rate < 0.0 ||
      raw_rate > 1000.0 * nic_->rate()) {
    throw InvariantViolation(Diagnostic::make(
        "Host " + Node::name(), "flow" + std::to_string(flow_id) + ".rate",
        to_seconds(sim_.now()), raw_rate,
        "controller rate register outside [0, 1000x line rate]"));
  }
  const double rate = std::max(raw_rate, mbps(0.1));
  const PicoTime gap = serialization_time(emitted, rate);
  sim_.schedule_in(gap, [this, flow_id] { pump(flow_id); });
}

void Host::handle_data(const Packet& pkt) {
  data_bytes_received_ += static_cast<std::uint64_t>(pkt.size);
  ReceiverFlow* found = recv_flows_.find(pkt.flow_id);
  ReceiverFlow& flow = found != nullptr ? *found : recv_flows_.emplace(pkt.flow_id);
  if (flow.received == 0) flow.first_sent_at = pkt.sent_at;
  flow.received += pkt.size;

  // DCQCN NP: coalesced CNP generation on marked arrivals (paper §3).
  if (pkt.ecn_marked &&
      (!flow.cnp_ever_sent || sim_.now() - flow.last_cnp >= config_.cnp_interval)) {
    flow.cnp_ever_sent = true;
    flow.last_cnp = sim_.now();
    Packet cnp;
    cnp.type = PacketType::kCnp;
    cnp.src_host = id();
    cnp.dst_host = pkt.src_host;
    cnp.flow_id = pkt.flow_id;
    cnp.size = kControlPacketBytes;
    nic_->enqueue(cnp);
    ++cnps_sent_;
    kCnpsGenerated.add();
    obs::trace_instant("host.cnp", to_microseconds(sim_.now()), 0.0,
                       pkt.flow_id);
  }

  // Completion-event ACK carrying the RTT echo (TIMELY).
  if (pkt.wants_ack) {
    Packet ack;
    ack.type = PacketType::kAck;
    ack.src_host = id();
    ack.dst_host = pkt.src_host;
    ack.flow_id = pkt.flow_id;
    ack.size = kControlPacketBytes;
    ack.sent_at = pkt.sent_at;  // echo of the data tx timestamp
    nic_->enqueue(ack);
    ++acks_sent_;
    kAcksGenerated.add();
  }

  if (pkt.flow_end) {
    if (obs::flight_enabled() &&
        obs::flight_sampled(pkt.src_host, id(), pkt.flow_id)) {
      // Flow span for the flight lanes in trace.json: same lifetime the
      // postcards cover (first data tx to last data delivery), independent
      // of whether a completion callback is installed.
      obs::FlightFlow span;
      span.flow_id = pkt.flow_id;
      span.src_host = pkt.src_host;
      span.dst_host = id();
      span.size_bytes = static_cast<std::uint64_t>(flow.received);
      span.start_ps = flow.first_sent_at;
      span.end_ps = sim_.now();
      obs::flight_record_flow(span);
    }
    if (on_flow_complete) {
      FlowRecord record;
      record.id = pkt.flow_id;
      record.src_host = pkt.src_host;
      record.dst_host = id();
      record.size = flow.received;
      record.start = flow.first_sent_at;
      record.end = sim_.now();
      on_flow_complete(record);
    }
    recv_flows_.erase(pkt.flow_id);
  }
}

void Host::receive(Packet pkt, int ingress_port) {
  (void)ingress_port;
  switch (pkt.type) {
    case PacketType::kPause:
      // flow_id carries the pause-event id for control frames (send_pfc).
      nic_->pfc_pause(pkt.flow_id);
      break;
    case PacketType::kResume:
      nic_->pfc_resume();
      break;
    case PacketType::kData:
      handle_data(pkt);
      break;
    case PacketType::kCnp: {
      SenderFlow* flow = send_flows_.find(pkt.flow_id);
      if (flow != nullptr) {
        flow->controller->on_cnp(sim_.now());
        kRateUpdates.add();
        obs::trace_instant("host.rate_update", to_microseconds(sim_.now()),
                           flow->controller->rate() / 1e9, pkt.flow_id);
      }
      break;
    }
    case PacketType::kAck: {
      SenderFlow* flow = send_flows_.find(pkt.flow_id);
      if (flow != nullptr) {
        flow->controller->on_rtt_sample(sim_.now() - pkt.sent_at, sim_.now());
        kRateUpdates.add();
        obs::trace_instant("host.rate_update", to_microseconds(sim_.now()),
                           flow->controller->rate() / 1e9, pkt.flow_id);
      }
      break;
    }
  }
}

BitsPerSecond Host::flow_rate(std::uint64_t flow_id) const {
  const SenderFlow* flow = send_flows_.find(flow_id);
  return flow == nullptr ? 0.0 : flow->controller->rate();
}

}  // namespace ecnd::sim
