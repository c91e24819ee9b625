#include "sim/simulator.hpp"

#include <cassert>
#include <string>

#include "core/diagnostic.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"

namespace ecnd::sim {
namespace {

// Registered at startup so the metric set in a dump never depends on which
// code paths ran. sim.events counts run_one dispatches across every
// Simulator instance; the profiler's sim.run frame brackets
// run_until/run_all, so ns-per-event is that frame's wall total over
// sim.events. sim.event_pool_reuse counts slots handed out from the free list
// rather than fresh arena growth; in steady state it tracks sim.events almost
// 1:1.
const obs::Counter kEvents = obs::counter("sim.events");
const obs::Counter kLateSchedules = obs::counter("sim.late_schedules");
const obs::Counter kPoolReuse = obs::counter("sim.event_pool_reuse");

}  // namespace

Simulator::~Simulator() {
  // Pending actions own resources (captured shared state); destroy them
  // explicitly since the pool holds only raw bytes.
  while (!queue_.empty()) {
    EventSlot& slot = slot_at(queue_.top().slot);
    slot.ops->destroy(slot);
    queue_.pop();
  }
}

PicoTime Simulator::clamp_schedule(PicoTime t) {
  if (t < now_) {
    ++late_schedules_;
    kLateSchedules.add();
    t = now_;
  }
  return t;
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t idx = free_head_;
    free_head_ = slot_at(idx).next_free;
    kPoolReuse.add();
    return idx;
  }
  if (next_unused_ == chunks_.size() * kSlotsPerChunk) {
    chunks_.push_back(std::make_unique<EventSlot[]>(kSlotsPerChunk));
  }
  return next_unused_++;
}

void Simulator::release_slot(std::uint32_t idx) {
  EventSlot& slot = slot_at(idx);
  slot.ops = nullptr;
  slot.next_free = free_head_;
  free_head_ = idx;
}

void Simulator::check_event_budget() {
  if (processed_ > event_budget_) {
    throw InvariantViolation(Diagnostic::make(
        "Simulator", "events_processed", to_seconds(now_),
        static_cast<double>(processed_),
        "event budget of " + std::to_string(event_budget_) + " exhausted (" +
            std::to_string(queue_.size()) +
            " events still pending; runaway self-rescheduling loop?)"));
  }
}

bool Simulator::run_one() {
  if (queue_.empty()) return false;
  QueuedEvent ev;
  {
    obs::ProfScope heap_scope("sim.heap_pop");
    ev = queue_.top();
    queue_.pop();
  }
  assert(ev.t >= now_);
  now_ = ev.t;
  ++processed_;
  kEvents.add();
  obs::snapshot_tick(to_seconds(now_));
  if (event_budget_ != 0) check_event_budget();
  EventSlot& slot = slot_at(ev.slot);
  // Destroy + recycle even when the action throws (invariant guards inside
  // Port/Host actions do); the slot stays live during the call so the action
  // may freely schedule new events.
  struct SlotGuard {
    Simulator& sim;
    std::uint32_t idx;
    ~SlotGuard() { sim.release_slot(idx); }
  } guard{*this, ev.slot};
  obs::ProfScope dispatch_scope("sim.dispatch");
  slot.ops->run_and_destroy(slot);
  return true;
}

void Simulator::run_until(PicoTime t_end) {
  obs::ProfScope prof_scope("sim.run");
  while (!queue_.empty() && queue_.top().t <= t_end) run_one();
  if (now_ < t_end) now_ = t_end;
}

void Simulator::run_all() {
  obs::ProfScope prof_scope("sim.run");
  while (run_one()) {
  }
}

}  // namespace ecnd::sim
