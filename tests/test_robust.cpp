// Fault injection and the packet engine's fail-loudly checks: the seeded
// degraded-feedback faults of src/robust, their scenario wiring, the event
// budget and the host rate-register check.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "core/diagnostic.hpp"
#include "exp/scenarios.hpp"
#include "robust/fault_injector.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/port.hpp"

namespace ecnd {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector on the packet engine.

class RecordingSink final : public sim::Node {
 public:
  RecordingSink() : sim::Node("sink", 0) {}
  void receive(sim::Packet pkt, int) override { arrivals.push_back(pkt); }
  std::vector<sim::Packet> arrivals;
};

sim::Packet make_packet(sim::PacketType type, Bytes size) {
  sim::Packet pkt;
  pkt.type = type;
  pkt.size = size;
  return pkt;
}

TEST(FaultInjector, DropsOnlyTheConfiguredType) {
  sim::Simulator sim;
  Rng rng(1);
  RecordingSink sink;
  sim::Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);

  robust::FaultInjector injector(7);
  robust::FaultProfile profile;
  profile.cnp_loss = 1.0;
  injector.attach(port, profile);

  port.enqueue(make_packet(sim::PacketType::kCnp, 64));
  port.enqueue(make_packet(sim::PacketType::kData, 1000));
  port.enqueue(make_packet(sim::PacketType::kAck, 64));
  sim.run_all();

  ASSERT_EQ(sink.arrivals.size(), 2u);
  for (const auto& pkt : sink.arrivals) {
    EXPECT_NE(pkt.type, sim::PacketType::kCnp);
  }
  EXPECT_EQ(injector.counters().cnps_dropped, 1u);
  EXPECT_EQ(injector.counters().total(), 1u);
  // The port transmitted all three; the wire ate one.
  EXPECT_EQ(port.tx_packets(), 3u);
}

TEST(FaultInjector, DuplicatesDeliverTwice) {
  sim::Simulator sim;
  Rng rng(1);
  RecordingSink sink;
  sim::Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);

  robust::FaultInjector injector(7);
  robust::FaultProfile profile;
  profile.ack_duplicate = 1.0;
  injector.attach(port, profile);

  port.enqueue(make_packet(sim::PacketType::kAck, 64));
  sim.run_all();

  EXPECT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(injector.counters().acks_duplicated, 1u);
}

TEST(FaultInjector, DelayedCnpReordersBehindLaterAck) {
  sim::Simulator sim;
  Rng rng(1);
  RecordingSink sink;
  sim::Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);

  robust::FaultInjector injector(7);
  robust::FaultProfile profile;
  profile.feedback_delay_prob = 1.0;
  profile.feedback_extra_delay = microseconds(10.0);
  injector.attach(port, profile);

  // CNP transmitted first, ACK right behind it; the held-back CNP must land
  // after the ACK (feedback reordering).
  port.enqueue(make_packet(sim::PacketType::kCnp, 64));
  sim.run_until(microseconds(1.0));
  port.set_fault_hook({});  // second packet rides a clean wire
  port.enqueue(make_packet(sim::PacketType::kAck, 64));
  sim.run_all();

  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].type, sim::PacketType::kAck);
  EXPECT_EQ(sink.arrivals[1].type, sim::PacketType::kCnp);
  EXPECT_EQ(injector.counters().feedback_delayed, 1u);
}

TEST(FaultInjector, EcnFlipTogglesTheMark) {
  sim::Simulator sim;
  Rng rng(1);
  RecordingSink sink;
  sim::Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);

  robust::FaultInjector injector(7);
  robust::FaultProfile profile;
  profile.ecn_flip = 1.0;
  injector.attach(port, profile);

  auto marked = make_packet(sim::PacketType::kData, 1000);
  marked.ecn_marked = true;
  port.enqueue(marked);
  port.enqueue(make_packet(sim::PacketType::kData, 1000));
  sim.run_all();

  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_FALSE(sink.arrivals[0].ecn_marked);  // erased congestion signal
  EXPECT_TRUE(sink.arrivals[1].ecn_marked);   // spurious congestion signal
  EXPECT_EQ(injector.counters().ecn_flipped, 2u);
}

TEST(FaultInjector, LinkFlapDropsEverythingInTheWindow) {
  sim::Simulator sim;
  Rng rng(1);
  RecordingSink sink;
  sim::Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);

  robust::FaultInjector injector(7);
  robust::FaultProfile profile;
  profile.flaps.push_back({.down_s = 0.0, .up_s = 1e-6});
  injector.attach(port, profile);

  port.enqueue(make_packet(sim::PacketType::kData, 1000));  // inside window
  sim.run_until(microseconds(2.0));
  port.enqueue(make_packet(sim::PacketType::kData, 1000));  // after it
  sim.run_all();

  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(injector.counters().flap_dropped, 1u);
}

// ---------------------------------------------------------------------------
// Scenario-level wiring: determinism and the degraded-feedback experiment.

TEST(FaultInjectorScenario, SameSeedSameRunAndFaultsActuallyFire) {
  exp::LongFlowConfig config;
  config.protocol = exp::Protocol::kDcqcn;
  config.flows = 2;
  config.duration_s = 0.02;
  config.faults.cnp_loss = 0.3;
  config.faults.ecn_flip = 0.01;

  const auto a = exp::run_long_flows(config);
  const auto b = exp::run_long_flows(config);

  EXPECT_GT(a.faults.cnps_dropped, 0u);
  EXPECT_GT(a.faults.ecn_flipped, 0u);
  EXPECT_EQ(a.faults.cnps_dropped, b.faults.cnps_dropped);
  EXPECT_EQ(a.faults.ecn_flipped, b.faults.ecn_flipped);
  ASSERT_EQ(a.queue_bytes.size(), b.queue_bytes.size());
  for (std::size_t i = 0; i < a.queue_bytes.size(); ++i) {
    EXPECT_EQ(a.queue_bytes[i].value, b.queue_bytes[i].value);
  }
}

TEST(FaultInjectorScenario, CleanRunIsUntouchedByZeroProfile) {
  exp::LongFlowConfig config;
  config.protocol = exp::Protocol::kDcqcn;
  config.flows = 2;
  config.duration_s = 0.02;

  const auto clean = exp::run_long_flows(config);
  EXPECT_EQ(clean.faults.total(), 0u);
  EXPECT_GT(clean.utilization, 0.9);
}

// ---------------------------------------------------------------------------
// Engine-side guards: the event budget and the host rate-register check.

TEST(Watchdogs, EventBudgetAbortsRunawayLoop) {
  sim::Simulator sim;
  sim.set_event_budget(1000);
  std::function<void()> spin = [&] { sim.schedule_in(1, spin); };
  sim.schedule_at(0, spin);
  try {
    sim.run_all();
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.diagnostic().variable, "events_processed");
  }
}

TEST(HostGuard, NanRateRegisterFailsLoudly) {
  class NanController final : public sim::RateController {
   public:
    BitsPerSecond rate() const override {
      return std::numeric_limits<double>::quiet_NaN();
    }
    Bytes chunk_bytes() const override { return 1000; }
    bool burst_pacing() const override { return false; }
    bool wants_rtt() const override { return false; }
  };

  sim::Network net(1);
  sim::StarConfig star_config;
  star_config.senders = 1;
  sim::Star star = make_star(net, star_config);
  star.senders[0]->set_controller_factory(
      [](int) { return std::make_unique<NanController>(); });
  try {
    star.senders[0]->start_flow(star.receiver->id(), megabytes(1.0));
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    EXPECT_TRUE(std::isnan(violation.diagnostic().value));
    EXPECT_NE(violation.diagnostic().variable.find(".rate"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace ecnd
