#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace ecnd::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(300, [&] { order.push_back(3); });
  sim.schedule_at(100, [&] { order.push_back(1); });
  sim.schedule_at(200, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, TiesBreakFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule_at(50, [&order, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(100, [&] { ++fired; });
  sim.schedule_at(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run_until(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.schedule_in(10, chain);
  };
  sim.schedule_at(0, chain);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Units, SerializationTimeMath) {
  // 1000B at 10 Gb/s = 800 ns.
  EXPECT_EQ(serialization_time(1000, gbps(10.0)), nanoseconds(800.0));
  // 64B at 10 Gb/s = 51.2 ns.
  EXPECT_EQ(serialization_time(64, gbps(10.0)), static_cast<PicoTime>(51200));
}

class Sink final : public Node {
 public:
  Sink() : Node("sink", 0) {}
  void receive(Packet pkt, int) override {
    arrivals.push_back(pkt);
    times.push_back(last_now ? *last_now : 0);
  }
  std::vector<Packet> arrivals;
  std::vector<PicoTime> times;
  const PicoTime* last_now = nullptr;
};

TEST(Port, DeliversAfterSerializationPlusPropagation) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  PicoTime now_snapshot = 0;
  sink.last_now = &now_snapshot;
  Port port(sim, rng, "p", gbps(10.0), microseconds(5.0));
  port.connect(&sink, 0);
  Packet pkt;
  pkt.size = 1000;
  port.enqueue(pkt);
  sim.schedule_at(0, [] {});
  while (sim.run_one()) now_snapshot = sim.now();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  // 800ns serialization + 5us propagation.
  EXPECT_EQ(sim.now(), nanoseconds(800.0) + microseconds(5.0));
}

TEST(Port, BackToBackPacketsSerializeSequentially) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  for (int i = 0; i < 3; ++i) {
    Packet pkt;
    pkt.size = 1000;
    pkt.seq = static_cast<std::uint32_t>(i);
    port.enqueue(pkt);
  }
  EXPECT_EQ(port.queued_bytes(), 2000);  // one in flight, two queued
  sim.run_all();
  EXPECT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sim.now(), 3 * nanoseconds(800.0));
  EXPECT_EQ(port.tx_bytes(), 3000u);
}

TEST(Port, ControlPriorityPreemptsDataQueue) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  Packet data;
  data.size = 1000;
  port.enqueue(data);  // starts transmitting immediately
  port.enqueue(data);  // queued
  Packet cnp;
  cnp.type = PacketType::kCnp;
  cnp.size = 64;
  port.enqueue(cnp);  // control must jump ahead of the queued data packet
  sim.run_all();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[1].type, PacketType::kCnp);
  EXPECT_EQ(sink.arrivals[2].type, PacketType::kData);
}

TEST(Port, PfcPausesDataButNotControl) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  port.pfc_pause();
  Packet data;
  data.size = 1000;
  port.enqueue(data);
  Packet ack;
  ack.type = PacketType::kAck;
  ack.size = 64;
  port.enqueue(ack);
  sim.run_all();
  ASSERT_EQ(sink.arrivals.size(), 1u);  // only the ACK went out
  EXPECT_EQ(sink.arrivals[0].type, PacketType::kAck);
  EXPECT_EQ(port.queued_bytes(kDataPriority), 1000);
  port.pfc_resume();
  sim.run_all();
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

TEST(Port, BufferLimitTailDrops) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", mbps(1.0), 0);  // slow: queue builds
  port.connect(&sink, 0);
  port.set_buffer_limit(2500);
  Packet pkt;
  pkt.size = 1000;
  for (int i = 0; i < 5; ++i) port.enqueue(pkt);
  EXPECT_EQ(port.drops(), 2u);  // first transmits, two queue, rest dropped
}

TEST(Port, DequeueMarkingReflectsRemainingBacklog) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  RedConfig red;
  red.enabled = true;
  red.kmin = 0;
  red.kmax = 10000;
  red.pmax = 1.0;
  red.position = MarkPosition::kDequeue;
  port.set_red(red);
  // 12 packets: each sees the backlog behind it; with kmin=0 and pmax=1 the
  // marking probability is backlog/10000 -> later packets nearly never
  // marked (backlog shrinks), earliest ones likely marked.
  Packet pkt;
  pkt.size = 1000;
  for (int i = 0; i < 12; ++i) port.enqueue(pkt);
  sim.run_all();
  int marked = 0;
  for (const auto& p : sink.arrivals) marked += p.ecn_marked;
  EXPECT_GT(marked, 0);
  EXPECT_LT(marked, 12);
  // The very last packet departs with an empty queue: never marked.
  EXPECT_FALSE(sink.arrivals.back().ecn_marked);
}

TEST(Port, EnqueueMarkingUsesArrivalBacklog) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  RedConfig red;
  red.enabled = true;
  red.kmin = 1500;
  red.kmax = 3000;
  red.pmax = 1.0;
  red.linear_extension = true;
  red.position = MarkPosition::kEnqueue;
  port.set_red(red);
  Packet pkt;
  pkt.size = 1000;
  for (int i = 0; i < 10; ++i) port.enqueue(pkt);
  sim.run_all();
  // The first packets saw backlog < kmin: unmarked; late arrivals saw more.
  EXPECT_FALSE(sink.arrivals[0].ecn_marked);
  int marked = 0;
  for (const auto& p : sink.arrivals) marked += p.ecn_marked;
  EXPECT_GT(marked, 2);
}

TEST(Port, WireTimestampingRestampsData) {
  Simulator sim;
  Rng rng(1);
  Sink sink;
  Port port(sim, rng, "p", gbps(10.0), 0);
  port.connect(&sink, 0);
  port.set_wire_timestamping(true);
  Packet a, b;
  a.size = b.size = 1000;
  a.sent_at = b.sent_at = 0;
  port.enqueue(a);
  port.enqueue(b);
  sim.run_all();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0].sent_at, 0);
  // Second packet hit the wire after the first finished serializing.
  EXPECT_EQ(sink.arrivals[1].sent_at, nanoseconds(800.0));
}

TEST(Simulator, PastScheduleClampsToNowAndIsCounted) {
  Simulator sim;
  PicoTime ran_at = -1;
  sim.schedule_at(100, [&] {
    // A target time computed from a stale rate register can land in the
    // past; it must run "now" instead of corrupting event order.
    sim.schedule_at(40, [&] { ran_at = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(ran_at, 100);
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.late_schedules(), 1u);
}

TEST(Simulator, ClampedEventKeepsFifoOrderAmongSameTimeEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(100, [&] {
    order.push_back(1);
    sim.schedule_at(50, [&] { order.push_back(3); });  // clamped to t=100
  });
  sim.schedule_at(100, [&] { order.push_back(2); });
  sim.run_all();
  // The clamped event was scheduled last, so it runs after the pre-existing
  // t=100 event (FIFO tie-break), never before already-dispatched work.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.late_schedules(), 1u);
}

TEST(Simulator, FutureSchedulesAreNotCountedLate) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.schedule_at(10, [] {});  // same-time is on time, not late
  sim.run_all();
  EXPECT_EQ(sim.late_schedules(), 0u);
}

// ---------------------------------------------------------------------------
// Pooled event arena: action lifetimes, recycling, and oversized fallbacks.

/// Counts live copies so tests can observe action construction/destruction.
struct LifeTracker {
  explicit LifeTracker(int* live) : live(live) { ++*live; }
  LifeTracker(const LifeTracker& o) : live(o.live) { ++*live; }
  LifeTracker(LifeTracker&& o) noexcept : live(o.live) { ++*live; }
  ~LifeTracker() { --*live; }
  int* live;
};

TEST(EventPool, ActionsAreDestroyedAfterDispatch) {
  Simulator sim;
  int live = 0;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(i, [&fired, tracker = LifeTracker(&live)] { ++fired; });
  }
  EXPECT_GT(live, 0);
  sim.run_all();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(live, 0);  // every capture destroyed once its event dispatched
}

TEST(EventPool, PendingActionsAreDestroyedWithTheSimulator) {
  int live = 0;
  {
    Simulator sim;
    for (int i = 0; i < 10; ++i) {
      sim.schedule_at(1000 + i, [tracker = LifeTracker(&live)] {});
    }
    sim.run_until(10);  // none dispatched
    EXPECT_EQ(live, 10);
  }
  EXPECT_EQ(live, 0);  // destructor drains the queue and destroys captures
}

TEST(EventPool, ThrowingActionStillRecyclesItsSlot) {
  Simulator sim;
  int live = 0;
  bool after_ran = false;
  sim.schedule_at(1, [tracker = LifeTracker(&live)] {
    throw std::runtime_error("mid-run failure");
  });
  sim.schedule_at(2, [&after_ran] { after_ran = true; });
  EXPECT_THROW(sim.run_all(), std::runtime_error);
  EXPECT_EQ(live, 0);  // the throwing action's capture was destroyed
  sim.run_all();       // the simulator remains usable
  EXPECT_TRUE(after_ran);
}

TEST(EventPool, SteadyStateChurnKeepsPendingBounded) {
  // A self-rescheduling chain dispatches 100k events through what should be
  // a handful of recycled slots; pending never exceeds the live event count.
  Simulator sim;
  int remaining = 100000;
  std::function<void()> pump = [&] {
    if (--remaining > 0) sim.schedule_in(1, pump);
  };
  sim.schedule_at(0, pump);
  sim.run_all();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_EQ(sim.events_processed(), 100000u);
}

}  // namespace
}  // namespace ecnd::sim
