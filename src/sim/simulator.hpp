#pragma once
// Discrete-event simulation core.
//
// This is the substrate standing in for ns-3 in the paper's packet-level
// experiments. Time is integer picoseconds (PicoTime) so event ordering is
// exact; ties break in schedule order (FIFO), which keeps runs deterministic
// regardless of priority-queue internals.
//
// An event is a callable handed to schedule_at()/schedule_in(), the only way
// to schedule one. Events live in a pooled arena: each action is
// placement-new'd into a recycled fixed-size slot, so the steady-state event
// loop performs no allocator traffic at all. The priority queue itself holds
// only POD {time, seq, slot} entries.
//
// Compile-time rule: an action must fit the slot's 64 inline bytes at no more
// than max_align_t alignment; a larger capture fails a static_assert instead
// of allocating. The largest capture in the tree, Port's [this, pkt] arrival,
// is exactly 64 bytes (sizeof(Packet) = 56). Capture a pointer or an index
// rather than grow a closure past the budget.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/units.hpp"
#include "obs/profile.hpp"

namespace ecnd::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  PicoTime now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t events_pending() const { return queue_.size(); }

  /// Schedule `action` to run at absolute time `t`. A `t` in the past would
  /// silently corrupt event order, so it is clamped to `now` and counted in
  /// late_schedules() instead (feedback code computing a target time from a
  /// stale rate register can legitimately land a few picoseconds early).
  template <typename F>
  void schedule_at(PicoTime t, F&& action) {
    t = clamp_schedule(t);
    const std::uint32_t idx = acquire_slot();
    EventSlot& slot = slot_at(idx);
    try {
      emplace_action(slot, std::forward<F>(action));
    } catch (...) {
      release_slot(idx);
      throw;
    }
    try {
      obs::ProfScope heap_scope("sim.heap_push");
      queue_.push(QueuedEvent{t, next_seq_, idx});
    } catch (...) {
      slot.ops->destroy(slot);
      release_slot(idx);
      throw;
    }
    ++next_seq_;
  }
  /// Schedule `action` to run `delay` picoseconds from now.
  template <typename F>
  void schedule_in(PicoTime delay, F&& action) {
    schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Number of schedule_at() calls that targeted the past and were clamped.
  std::uint64_t late_schedules() const { return late_schedules_; }

  /// Watchdog: abort (InvariantViolation) once more than `max_events` events
  /// have been processed. 0 disables. Catches runaway event loops — e.g. a
  /// pacing bug rescheduling itself with a zero gap — before they spin
  /// forever.
  void set_event_budget(std::uint64_t max_events) { event_budget_ = max_events; }

  /// Run the next pending event; returns false when the queue is empty.
  bool run_one();

  /// Run all events with time <= t_end, then advance the clock to t_end.
  void run_until(PicoTime t_end);

  /// Run until the event queue drains completely.
  void run_all();

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kInlineActionBytes = 64;
  static constexpr std::size_t kSlotsPerChunk = 256;

  struct EventSlot;
  struct SlotOps {
    // Invoke the stored action, then destroy it — one indirect call per
    // dispatched event. Destruction must happen even when the action throws
    // (invariant guards inside Port/Host actions do), hence the RAII scope
    // inside each instantiation.
    void (*run_and_destroy)(EventSlot&);
    // Destroy without invoking (queue teardown, schedule failure).
    void (*destroy)(EventSlot&);
  };
  struct EventSlot {
    const SlotOps* ops = nullptr;
    std::uint32_t next_free = kNoSlot;
    alignas(std::max_align_t) unsigned char inline_buf[kInlineActionBytes];
  };

  // Every action is stored inline in its slot; the two-entry vtable above
  // is instantiated once per action type.
  template <typename Fn>
  struct InlineOps {
    static Fn* get(EventSlot& s) {
      return std::launder(reinterpret_cast<Fn*>(s.inline_buf));
    }
    static void run_and_destroy(EventSlot& s) {
      Fn* fn = get(s);
      struct Reaper {
        Fn* fn;
        ~Reaper() { fn->~Fn(); }
      } reaper{fn};
      (*fn)();
    }
    static void destroy(EventSlot& s) { get(s)->~Fn(); }
    static constexpr SlotOps kOps{&run_and_destroy, &destroy};
  };

  template <typename F>
  static void emplace_action(EventSlot& slot, F&& action) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineActionBytes &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "event action exceeds the 64-byte inline slot budget; "
                  "capture a pointer or an index instead");
    ::new (static_cast<void*>(slot.inline_buf)) Fn(std::forward<F>(action));
    slot.ops = &InlineOps<Fn>::kOps;
  }

  struct QueuedEvent {
    PicoTime t;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  // 4-ary min-heap over POD entries. (t, seq) is a strict total order (seq is
  // unique), so the pop sequence is fully determined regardless of internal
  // layout — swapping heap arity cannot perturb event order. A 4-ary heap is
  // half the depth of a binary one and keeps sibling groups within a cache
  // line pair, which measurably cuts the per-event queue cost in the incast
  // benchmark.
  class EventHeap {
   public:
    bool empty() const { return v_.empty(); }
    std::size_t size() const { return v_.size(); }
    const QueuedEvent& top() const { return v_.front(); }

    // Both sifts move entries into a hole instead of swapping — one 24-byte
    // move per level rather than three.
    void push(const QueuedEvent& e) {
      v_.push_back(e);
      std::size_t hole = v_.size() - 1;
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 4;
        if (!earlier(e, v_[parent])) break;
        v_[hole] = v_[parent];
        hole = parent;
      }
      v_[hole] = e;
    }

    void pop() {
      const QueuedEvent last = v_.back();
      v_.pop_back();
      const std::size_t n = v_.size();
      if (n == 0) return;
      std::size_t hole = 0;
      for (;;) {
        const std::size_t first_child = 4 * hole + 1;
        if (first_child >= n) break;
        const std::size_t last_child = first_child + 4 < n ? first_child + 4 : n;
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
          if (earlier(v_[c], v_[best])) best = c;
        }
        if (!earlier(v_[best], last)) break;
        v_[hole] = v_[best];
        hole = best;
      }
      v_[hole] = last;
    }

   private:
    static bool earlier(const QueuedEvent& a, const QueuedEvent& b) {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
    std::vector<QueuedEvent> v_;
  };

  EventSlot& slot_at(std::uint32_t idx) {
    return chunks_[idx / kSlotsPerChunk][idx % kSlotsPerChunk];
  }

  PicoTime clamp_schedule(PicoTime t);       // counts late_schedules
  std::uint32_t acquire_slot();              // free list first, else grow
  void release_slot(std::uint32_t idx);      // push back onto the free list
  void check_event_budget();                 // throws once it is exhausted

  PicoTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t late_schedules_ = 0;
  std::uint64_t event_budget_ = 0;
  EventHeap queue_;
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::uint32_t next_unused_ = 0;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ecnd::sim
