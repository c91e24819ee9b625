#pragma once
// The per-task record store shared by the tracer, the flight recorder and
// the snapshot sampler. Buffers are keyed by the obs::TaskScope index, so an
// export walks tasks in index order and depends only on the sweep grid,
// never on ECND_THREADS or scheduling.
//
// Creating a buffer is rare (once per task) and locked; records go through a
// per-thread cached pointer. A buffer is only ever written by the thread
// currently running its task: the sweep engine runs each task on exactly one
// thread and joins its workers before any export. clear() bumps a
// generation, and the cached pointer is reused only while both the task and
// the generation still match.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace ecnd::obs::detail {

/// One store per Buffer type (the thread-local cache is per type). Buffer is
/// constructed from the store's capacity and reports dropped().
template <typename Buffer>
class TaskStore {
 public:
  static TaskStore& instance() {
    static auto* store = new TaskStore;  // leaked: exports run at exit
    return *store;
  }

  /// The calling thread's buffer for its current task. On a cache miss
  /// `on_switch(prev)` runs first; `prev` is the buffer this thread used
  /// last when it belongs to the current generation, else nullptr.
  template <typename OnSwitch>
  Buffer& current(OnSwitch&& on_switch) {
    Cache& c = cache();
    const std::uint32_t task = current_task();
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (c.buffer == nullptr || c.task != task || c.gen != gen) {
      on_switch(c.gen == gen ? c.buffer : nullptr);
      c = {buffer_for(task), task, gen};
    }
    return *c.buffer;
  }
  Buffer& current() {
    return current([](Buffer*) {});
  }

  /// The calling thread leaves its task: hand the task's cached buffer to
  /// `on_end` and forget it, so the next record switches with no `prev`.
  template <typename OnEnd>
  void end_task(OnEnd&& on_end) {
    Cache& c = cache();
    if (c.buffer != nullptr && c.task == current_task() &&
        c.gen == generation_.load(std::memory_order_relaxed)) {
      on_end(*c.buffer);
      c = {};
    }
  }

  /// Capacity handed to buffers created after the call (clamped to >= 1).
  void set_capacity(std::size_t cap) {
    const std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = cap > 0 ? cap : 1;
  }

  /// Drop every buffer (obs::reset).
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.clear();
    generation_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Every buffer in task order (buffers are stable once created).
  std::vector<std::pair<std::uint32_t, const Buffer*>> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::uint32_t, const Buffer*>> out;
    out.reserve(buffers_.size());
    for (const auto& [task, buf] : buffers_) out.emplace_back(task, buf.get());
    return out;
  }

  /// Records lost to overflow, summed over every task.
  std::uint64_t dropped_total() {
    std::uint64_t total = 0;
    for (const auto& [task, buf] : snapshot()) total += buf->dropped();
    return total;
  }

 private:
  struct Cache {
    Buffer* buffer = nullptr;
    std::uint32_t task = 0;
    std::uint64_t gen = 0;
  };
  static Cache& cache() {
    thread_local Cache c;
    return c;
  }

  Buffer* buffer_for(std::uint32_t task) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = buffers_[task];
    if (!slot) slot = std::make_unique<Buffer>(capacity_);
    return slot.get();
  }

  std::mutex mutex_;
  std::map<std::uint32_t, std::unique_ptr<Buffer>> buffers_;
  std::atomic<std::uint64_t> generation_{0};
  std::size_t capacity_ = 65536;
};

}  // namespace ecnd::obs::detail
