// Fault-injection and invariant-guard layer: the degraded-feedback and
// fail-loudly machinery of src/robust plus its hooks in the sim and fluid
// engines.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "core/diagnostic.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/dde_solver.hpp"
#include "exp/scenarios.hpp"
#include "robust/fault_injector.hpp"
#include "robust/invariant_guard.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/port.hpp"

namespace ecnd {
namespace {

// ---------------------------------------------------------------------------
// InvariantGuard on the fluid engine.

/// DCQCN fluid model whose RHS starts emitting NaN into flow 0's rate
/// derivative after `nan_after` seconds — a stand-in for any model arithmetic
/// bug (0/0 in an increase-factor term, log of a negative, ...).
class NanInjectingModel final : public fluid::FluidModel {
 public:
  NanInjectingModel(fluid::DcqcnFluidParams params, double nan_after)
      : inner_(params), nan_after_(nan_after) {}

  int num_flows() const override { return inner_.num_flows(); }
  std::size_t queue_index() const override { return inner_.queue_index(); }
  std::size_t rate_index(int flow) const override {
    return inner_.rate_index(flow);
  }
  std::vector<double> initial_state() const override {
    return inner_.initial_state();
  }
  double suggested_dt() const override { return inner_.suggested_dt(); }
  double mtu_bytes() const override { return inner_.mtu_bytes(); }
  double capacity_pps() const override { return inner_.capacity_pps(); }
  std::size_t dim() const override { return inner_.dim(); }
  double max_delay() const override { return inner_.max_delay(); }
  std::vector<fluid::StateBounds> bounds() const override {
    return inner_.bounds();
  }

  void rhs(double t, std::span<const double> x, const fluid::History& past,
           std::span<double> dxdt) const override {
    inner_.rhs(t, x, past, dxdt);
    if (t >= nan_after_) {
      dxdt[rate_index(0)] = std::numeric_limits<double>::quiet_NaN();
    }
  }

 private:
  fluid::DcqcnFluidModel inner_;
  double nan_after_;
};

TEST(InvariantGuard, CatchesInjectedNanAndNamesTheVariable) {
  fluid::DcqcnFluidParams params;
  params.num_flows = 2;
  NanInjectingModel model(params, /*nan_after=*/0.002);
  fluid::DdeSolver solver(model, model.initial_state(), 0.0,
                          model.suggested_dt());
  robust::guard_solver(solver, model);

  try {
    solver.run_until(0.01, nullptr, 0.0);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    const Diagnostic& diag = violation.diagnostic();
    EXPECT_EQ(diag.variable, "flow0.rate");
    EXPECT_TRUE(std::isnan(diag.value));
    EXPECT_GE(diag.time, 0.002);
    // The report carries the last accepted state, and it is all finite.
    ASSERT_EQ(diag.last_good_state.size(), model.dim());
    for (double v : diag.last_good_state) EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(diag.last_good_time, diag.time);
    // Human rendering names the component and variable.
    EXPECT_NE(violation.what(), nullptr);
    EXPECT_NE(std::string(violation.what()).find("flow0.rate"),
              std::string::npos);
  }
}

TEST(InvariantGuard, CleanModelRunsUnchangedUnderGuard) {
  fluid::DcqcnFluidParams params;
  params.num_flows = 2;
  fluid::DcqcnFluidModel model(params);

  fluid::DdeSolver plain(model, model.initial_state(), 0.0,
                         model.suggested_dt());
  plain.run_until(0.01, nullptr, 0.0);

  fluid::DdeSolver guarded(model, model.initial_state(), 0.0,
                           model.suggested_dt());
  robust::guard_solver(guarded, model);
  guarded.run_until(0.01, nullptr, 0.0);

  ASSERT_EQ(plain.state().size(), guarded.state().size());
  for (std::size_t i = 0; i < plain.state().size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.state()[i], guarded.state()[i]);
  }
  EXPECT_EQ(guarded.steps_retried(), 0u);
}

/// dx/dt = -k x integrated with k*dt far beyond RK4's stability limit
/// (|z| < 2.785): each full step multiplies |x| by ~3.1, each half step
/// shrinks it. Without retries the bound guard aborts the run; with dt/2
/// retries the solver rides through and the state stays bounded.
TEST(InvariantGuard, DtHalvingRecoversAStiffRun) {
  class Stiff final : public fluid::DdeSystem {
   public:
    std::size_t dim() const override { return 1; }
    void rhs(double, std::span<const double> x, const fluid::History&,
             std::span<double> dxdt) const override {
      dxdt[0] = -3000.0 * x[0];
    }
    double max_delay() const override { return 1e-2; }
  };
  Stiff sys;
  const double dt = 1.2e-3;  // z = -3.6: amplification factor ~3.1 per step

  // No halvings allowed: the very first step trips the bound and aborts.
  {
    fluid::DdeSolver solver(sys, {1.0}, 0.0, dt);
    solver.set_guard(robust::make_bound_guard(2.0, {"x"}),
                     /*max_step_halvings=*/0);
    EXPECT_THROW(solver.run_until(0.02, nullptr, 0.0), InvariantViolation);
  }

  // With halvings: the run completes, retries happened, state stays bounded.
  {
    fluid::DdeSolver solver(sys, {1.0}, 0.0, dt);
    solver.set_guard(robust::make_bound_guard(2.0, {"x"}),
                     /*max_step_halvings=*/6);
    solver.run_until(0.02, nullptr, 0.0);
    EXPECT_GT(solver.steps_retried(), 0u);
    EXPECT_LE(std::abs(solver.state()[0]), 2.0);
    EXPECT_GE(solver.time(), 0.02);
  }
}

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
// Engine-side guards: watchdogs and the host rate-register check.

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

TEST(Watchdogs, WallClockLimitAborts) {
  sim::Simulator sim;
  sim.set_wall_clock_limit(1e-9);  // expires immediately; checked every 4096
  std::function<void()> spin = [&] { sim.schedule_in(1, spin); };
  sim.schedule_at(0, spin);
  bool threw = false;
  try {
    for (int i = 0; i < 20000; ++i) sim.run_one();
  } catch (const InvariantViolation& violation) {
    threw = true;
    EXPECT_EQ(violation.diagnostic().variable, "wall_clock_seconds");
  }
  EXPECT_TRUE(threw);
}

TEST(Watchdogs, WallClockRestartsOnEachRun) {
  // Regression: the wall clock used to start at set_wall_clock_limit() and
  // never reset, so host time spent *between* runs (or in an earlier run)
  // counted against later ones — and the (processed & 0xFFF) amortization
  // could skip the first check of a re-entered run entirely. The limit now
  // bounds each run_until()/run_all() episode separately.
  sim::Simulator sim;
  sim.set_wall_clock_limit(0.2);
  sim.schedule_at(100, [] {});
  sim.run_until(1000);
  // Idle host time after the first run must not count against the second.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  sim.schedule_at(2000, [] {});
  EXPECT_NO_THROW(sim.run_until(3000));
}

TEST(Watchdogs, SleepingFaultHookTripsSecondRunEvenWhenQueueDrains) {
  // Regression: run_until() never checked the wall-clock watchdog when the
  // queue drained before the amortized in-loop check fired, so a handful of
  // pathologically slow events (here: a fault hook that stalls the host)
  // escaped an armed limit. The hook fires inside the *second* run_until
  // call, which also exercises the per-run clock reset path.
  sim::Simulator sim;
  Rng rng(7);
  RecordingSink sink;
  sim::Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  port.set_fault_hook([](const sim::Packet&, PicoTime) {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    return sim::FaultAction{};
  });
  sim.set_wall_clock_limit(0.05);

  sim.run_until(1000);  // clean first run: nothing scheduled, no throw

  // Transmit (and therefore the stalling hook) happens during event dispatch;
  // the queue drains a few events later, well before the amortized in-loop
  // check would ever fire.
  sim.schedule_at(microseconds(1.0), [&] {
    port.enqueue(make_packet(sim::PacketType::kData, 1000));
  });
  try {
    sim.run_until(microseconds(100.0));
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& violation) {
    EXPECT_EQ(violation.diagnostic().variable, "wall_clock_seconds");
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
