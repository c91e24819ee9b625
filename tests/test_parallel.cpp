#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rng.hpp"

namespace ecnd {
namespace {

/// RAII guard so a test can set ECND_THREADS without leaking it into other
/// tests (each gtest case runs in its own process under ctest, but keep the
/// binary well-behaved when run directly too).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(TaskSeed, SameTaskSameStream) {
  EXPECT_EQ(par::task_seed(42, 7), par::task_seed(42, 7));
}

TEST(TaskSeed, DistinctTasksDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 4096; ++i) seeds.insert(par::task_seed(1, i));
  EXPECT_EQ(seeds.size(), 4096u);
}

TEST(TaskSeed, DistinctBaseSeedsDistinctStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base = 0; base < 1024; ++base) {
    seeds.insert(par::task_seed(base, 3));
  }
  EXPECT_EQ(seeds.size(), 1024u);
}

TEST(TaskSeed, NoBaseTaskAliasing) {
  // seed^index symmetry must not make (base=5, task=4) collide with
  // (base=4, task=5) — the index is scrambled before the xor.
  EXPECT_NE(par::task_seed(5, 4), par::task_seed(4, 5));
  EXPECT_NE(par::task_seed(0, 1), par::task_seed(1, 0));
}

TEST(TaskSeed, DerivedRngStreamsDiverge) {
  Rng a(par::task_seed(99, 0));
  Rng b(par::task_seed(99, 1));
  int differing = 0;
  for (int i = 0; i < 16; ++i) differing += a.next_u64() != b.next_u64();
  EXPECT_GE(differing, 15);
}

TEST(ParallelForEach, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> hits(kCount);
  const par::SweepTiming timing = par::parallel_for_each(
      kCount, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
  EXPECT_EQ(timing.tasks, kCount);
  EXPECT_GT(timing.wall_s, 0.0);
  EXPECT_GE(timing.task_max_s, 0.0);
  EXPECT_GE(timing.task_sum_s, timing.task_max_s);
}

TEST(ParallelForEach, SerialPathRunsInOrderOnCallingThread) {
  std::vector<std::size_t> order;
  const auto timing = par::parallel_for_each(
      10, [&](std::size_t i) { order.push_back(i); }, 1);
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(timing.threads, 1u);
}

TEST(ParallelForEach, ZeroTasksIsANoOp) {
  const auto timing = par::parallel_for_each(0, [](std::size_t) { FAIL(); }, 4);
  EXPECT_EQ(timing.tasks, 0u);
}

TEST(ParallelForEach, MoreThreadsThanTasksClamps) {
  std::vector<std::atomic<int>> hits(3);
  const auto timing =
      par::parallel_for_each(3, [&](std::size_t i) { hits[i].fetch_add(1); }, 64);
  EXPECT_LE(timing.threads, 3u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForEach, FirstExceptionPropagates) {
  EXPECT_THROW(
      par::parallel_for_each(
          32,
          [](std::size_t i) {
            if (i % 2 == 0) throw std::runtime_error("task failed");
          },
          4),
      std::runtime_error);
}

TEST(ParallelForEach, ExceptionOnSerialPathPropagates) {
  EXPECT_THROW(par::parallel_for_each(
                   4, [](std::size_t) { throw std::runtime_error("boom"); }, 1),
               std::runtime_error);
}

TEST(ParallelMap, PreservesItemOrder) {
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i);
  par::SweepTiming timing;
  const std::vector<int> out =
      par::parallel_map(items, [](int v) { return v * 3; }, 8, &timing);
  ASSERT_EQ(out.size(), items.size());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 3);
  EXPECT_EQ(timing.tasks, 100u);
}

TEST(ParallelForEach, StrictModeReportsSuppressedFailureCount) {
  // Every task fails; the rethrown message must say how many beyond the
  // first were suppressed (deterministically 7, since workers drain the
  // whole index space before the rethrow).
  try {
    par::parallel_for_each(
        8, [](std::size_t) { throw std::runtime_error("boom"); }, 4);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("7 additional task failure"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelForEach, StrictModeAnnotatesTaskIndex) {
  // Serial path, one failing task: the InvariantViolation that escapes must
  // carry the grid index of the task it came from.
  try {
    par::parallel_for_each(
        4,
        [](std::size_t i) {
          if (i == 2) {
            throw InvariantViolation(
                Diagnostic::make("Toy", "x", 0.5, -1.0, "went negative"));
          }
        },
        1);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    EXPECT_EQ(e.diagnostic().task_index, 2);
    EXPECT_NE(std::string(e.what()).find("(task 2)"), std::string::npos)
        << e.what();
  }
}

TEST(ParallelForEachIsolated, CompletesHealthyCellsAroundFailures) {
  // Cells 3 and 7 always fail; the other 14 must complete and the failures
  // must surface as structured records, not an aborted sweep.
  std::vector<std::atomic<int>> done(16);
  const par::IsolationReport report = par::parallel_for_each_isolated(
      16,
      [&](std::size_t i, int) {
        if (i == 3 || i == 7) {
          throw InvariantViolation(Diagnostic::make(
              "Toy", "q", 0.25, -5.0, "queue went negative"));
        }
        done[i].fetch_add(1);
      },
      par::FaultPolicy{2}, 4);

  EXPECT_FALSE(report.all_ok());
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].index, 3u);  // grid order
  EXPECT_EQ(report.failures[1].index, 7u);
  EXPECT_EQ(report.failures[0].attempts, 2);
  ASSERT_TRUE(report.failures[0].has_diagnostic);
  EXPECT_EQ(report.failures[0].diagnostic.component, "Toy");
  EXPECT_EQ(report.failures[0].diagnostic.task_index, 3);
  EXPECT_EQ(report.retries, 2u);          // one retry per failing cell
  EXPECT_EQ(report.failed_attempts, 4u);  // two attempts per failing cell
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(done[i].load(), i == 3 || i == 7 ? 0 : 1) << i;
  }
}

TEST(ParallelForEachIsolated, RetrySucceedsAndClearsTheFailure) {
  std::atomic<int> attempts_seen{0};
  const par::IsolationReport report = par::parallel_for_each_isolated(
      4,
      [&](std::size_t i, int attempt) {
        if (i == 1 && attempt == 0) {
          attempts_seen.fetch_add(1);
          throw std::runtime_error("transient");
        }
      },
      par::FaultPolicy{2}, 2);
  EXPECT_TRUE(report.all_ok());
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.failed_attempts, 1u);
  EXPECT_EQ(attempts_seen.load(), 1);
}

TEST(ParallelForEachIsolated, NonStdExceptionsAreQuarantinedToo) {
  const par::IsolationReport report = par::parallel_for_each_isolated(
      2, [](std::size_t i, int) {
        if (i == 0) throw 42;  // NOLINT: deliberately not a std::exception
      },
      par::FaultPolicy{1}, 1);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].message, "unknown exception");
  EXPECT_FALSE(report.failures[0].has_diagnostic);
}

TEST(ThreadCount, EnvOverrideWins) {
  const ScopedEnv env("ECND_THREADS", "3");
  EXPECT_EQ(par::thread_count(), 3u);
}

TEST(ThreadCount, SerialOverride) {
  const ScopedEnv env("ECND_THREADS", "1");
  EXPECT_EQ(par::thread_count(), 1u);
}

TEST(ThreadCount, GarbageEnvFallsBackToHardware) {
  // "-1" must not wrap to 2^64-1 threads (one per grid cell).
  const unsigned hw = std::thread::hardware_concurrency();
  for (const char* garbage : {"not-a-number", "-1"}) {
    const ScopedEnv env("ECND_THREADS", garbage);
    EXPECT_EQ(par::thread_count(), hw >= 1 ? hw : 1u) << garbage;
  }
}

TEST(ThreadCount, ZeroEnvFallsBackToHardware) {
  const ScopedEnv env("ECND_THREADS", "0");
  EXPECT_GE(par::thread_count(), 1u);
}

}  // namespace
}  // namespace ecnd
