#include "sim/switch.hpp"

#include <algorithm>
#include <cassert>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace ecnd::sim {
namespace {

// PFC frames *originated* by switches (the receiving port's pause/resume
// transitions are counted separately as sim.pfc_pauses / sim.pfc_resumes).
const obs::Counter kPauseFrames = obs::counter("sim.pfc_pause_frames");
const obs::Counter kResumeFrames = obs::counter("sim.pfc_resume_frames");
// Packets forwarded through a multi-path route set (the hash actually chose).
const obs::Counter kEcmpDecisions = obs::counter("sim.ecmp_decisions");

}  // namespace

void Switch::add_route(int dst_host, int egress_port) {
  std::vector<int>& ports = routes_[dst_host];
  if (std::find(ports.begin(), ports.end(), egress_port) == ports.end()) {
    ports.push_back(egress_port);
  }
}

const std::vector<int>& Switch::route_ports(int dst_host) const {
  static const std::vector<int> kEmpty;
  const auto it = routes_.find(dst_host);
  return it == routes_.end() ? kEmpty : it->second;
}

int Switch::add_port(BitsPerSecond rate, PicoTime propagation) {
  const int index = num_ports();
  auto port = std::make_unique<Port>(
      sim_, rng_, name() + ":p" + std::to_string(index), rate, propagation);
  port->on_dequeue = [this](const Packet& pkt) { account_dequeue(pkt); };
  ports_.push_back(std::move(port));
  ingress_bytes_.push_back(0);
  ingress_paused_.push_back(false);
  return index;
}

void Switch::set_red_all(const RedConfig& red) {
  for (auto& port : ports_) port->set_red(red);
}

void Switch::send_pfc(int ingress_port, PacketType type,
                      std::uint64_t pause_id) {
  Packet frame;
  frame.type = type;
  frame.size = kControlPacketBytes;
  // Control frames have no flow, so the field carries the pause-event id
  // (see PauseCause) — zero-cost causality plumbing without growing Packet.
  frame.flow_id = pause_id;
  // PFC frames are hop-local: they terminate at the upstream neighbor. They
  // jump the control queue and ignore the buffer limit (enqueue_front): a
  // pause that waits behind queued ACKs/CNPs — or worse, tail-drops — defeats
  // the losslessness it exists to provide. Pause latency is then bounded by
  // propagation + at most one in-flight serialization.
  port(ingress_port).enqueue_front(frame);
  ++pause_frames_;
  if (type == PacketType::kPause) {
    ++pauses_only_;
    kPauseFrames.add();
    obs::trace_instant("pfc.pause_frame", to_microseconds(sim_.now()),
                       static_cast<double>(ingress_bytes_[
                           static_cast<std::size_t>(ingress_port)]),
                       static_cast<std::uint64_t>(ingress_port));
  } else {
    kResumeFrames.add();
    obs::trace_instant("pfc.resume_frame", to_microseconds(sim_.now()),
                       static_cast<double>(ingress_bytes_[
                           static_cast<std::size_t>(ingress_port)]),
                       static_cast<std::uint64_t>(ingress_port));
  }
}

void Switch::receive(Packet pkt, int ingress_port) {
  if (pkt.type == PacketType::kPause) {
    port(ingress_port).pfc_pause(pkt.flow_id);
    return;
  }
  if (pkt.type == PacketType::kResume) {
    port(ingress_port).pfc_resume();
    return;
  }

  int egress;
  {
    obs::ProfScope route_scope("sim.route");
    const auto route = routes_.find(pkt.dst_host);
    assert(route != routes_.end() && !route->second.empty() &&
           "no route for destination host");
    const std::vector<int>& candidates = route->second;
    egress = candidates.front();
    if (candidates.size() > 1) {
      // Per-flow ECMP: every packet of a flow hashes identically, so a flow
      // sticks to one path (receivers rely on in-order flow_end delivery).
      const std::uint64_t h =
          ecmp_hash(ecmp_seed_, pkt.src_host, pkt.dst_host, pkt.flow_id);
      egress = candidates[h % candidates.size()];
      kEcmpDecisions.add();
      if (obs::flight_enabled() && pkt.type == PacketType::kData) {
        port(egress).flight_stage_ecmp(
            static_cast<std::uint16_t>(candidates.size()),
            static_cast<std::uint16_t>(h % candidates.size()));
      }
    }
  }

  if (pkt.type == PacketType::kData) {
    pkt.ingress_port = ingress_port;
    auto& buffered = ingress_bytes_[static_cast<std::size_t>(ingress_port)];
    buffered += pkt.size;
    if (pfc_.enabled && !ingress_paused_[static_cast<std::size_t>(ingress_port)] &&
        buffered > pfc_.pause_threshold) {
      ingress_paused_[static_cast<std::size_t>(ingress_port)] = true;
      PauseCause cause;
      cause.id = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id()))
                  << 32) |
                 ++pause_seq_;
      // If the trigger packet's egress is itself pause-blocked, the pause
      // that blocks it is what backed us up — that edge roots the tree.
      cause.parent = port(egress).paused() ? port(egress).paused_by() : 0;
      cause.time = sim_.now();
      cause.ingress_port = ingress_port;
      cause.egress_port = egress;
      cause.trigger_flow = pkt.flow_id;
      pause_causes_.push_back(cause);
      send_pfc(ingress_port, PacketType::kPause, cause.id);
    }
  }
  port(egress).enqueue(pkt);
}

void Switch::account_dequeue(const Packet& pkt) {
  if (pkt.ingress_port < 0) return;
  const auto idx = static_cast<std::size_t>(pkt.ingress_port);
  assert(idx < ingress_bytes_.size());
  ingress_bytes_[idx] -= pkt.size;
  assert(ingress_bytes_[idx] >= 0);
  if (pfc_.enabled && ingress_paused_[idx] &&
      ingress_bytes_[idx] < pfc_.resume_threshold) {
    ingress_paused_[idx] = false;
    send_pfc(pkt.ingress_port, PacketType::kResume);
  }
}

}  // namespace ecnd::sim
