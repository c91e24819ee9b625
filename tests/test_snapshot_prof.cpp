// Differential-observability layer: sim-time metric snapshots (obs/snapshot)
// and the hierarchical profiler (obs/profile). Everything drives the layer
// programmatically (set_snapshot_enabled / set_profile_enabled) so the suite
// behaves the same with or without the ECND_* env knobs. The load-bearing
// promises under test: snapshot exports byte-identical at any thread count,
// profiler tree shape independent of nesting accidents (detached anchors,
// exception unwinding), folded values = deterministic hit counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"

namespace ecnd {
namespace {

#if !defined(ECND_OBS_DISABLED)

/// Arm metrics for one test, disarm snapshot/profiler and clear on the way
/// out so leftover series/frames cannot leak into other obs tests.
class SnapProfFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_snapshot_enabled(false);
    obs::set_profile_enabled(false);
    obs::set_snapshot_interval(obs::kDefaultSnapshotInterval);
    obs::set_metrics_enabled(false);
    obs::reset();
  }

  static std::string metrics_ts_json() {
    std::ostringstream out;
    obs::write_metrics_ts_json(out);
    return out.str();
  }

  static std::string folded() {
    std::ostringstream out;
    obs::write_profile_folded(out);
    return out.str();
  }
};

TEST_F(SnapProfFixture, SnapshotExportIdenticalAcrossThreadCounts) {
  const obs::Counter c = obs::counter("test.snap.work");
  obs::set_snapshot_enabled(true);
  obs::set_snapshot_interval(1e-3);
  // Each sweep task counts its setup, then replays the same little sim:
  // counts between ticks at 0, 1, 2, 3 ms of (fake) sim time. The series
  // must come out a function of the task index alone, whatever worker ran
  // it, also when a second sweep reuses the indices (as bench_ext_fabric's
  // three sweeps do) and samples on top of the first sweep's task.
  auto run = [&](std::size_t threads) {
    obs::reset();
    for (std::uint64_t sweep = 1; sweep <= 2; ++sweep) {
      par::parallel_for_each(
          8,
          [&](std::size_t i) {
            c.add(1000 * sweep * (i + 1));
            for (int step = 0; step < 4; ++step) {
              c.add(i + 1);
              obs::snapshot_tick(step * 1e-3);
            }
          },
          threads);
    }
    return metrics_ts_json();
  };
  const std::string serial = run(1);
  for (const std::size_t threads : {2, 3, 4, 8, 2, 3, 4, 8}) {
    EXPECT_EQ(serial, run(threads)) << threads << " threads";
  }
  EXPECT_NE(serial.find("ecnd-metrics-ts-v1"), std::string::npos) << serial;
  EXPECT_NE(serial.find("test.snap.work"), std::string::npos) << serial;
  // Counters export both the cumulative column and the per-interval rate.
  EXPECT_NE(serial.find("\"cum\""), std::string::npos) << serial;
  EXPECT_NE(serial.find("\"inc\""), std::string::npos) << serial;
}

TEST_F(SnapProfFixture, GaugeSeriesUseValuesColumnAndZeroSeriesAreOmitted) {
  const obs::Gauge g = obs::gauge("test.snap.depth_gauge");
  obs::counter("test.snap.never_touched");  // registered, never incremented
  obs::set_snapshot_enabled(true);
  obs::set_snapshot_interval(1e-3);
  par::parallel_for_each(
      2,
      [&](std::size_t i) {
        g.set_max((i + 1) * 10);
        obs::snapshot_tick(0.0);
        g.set_max((i + 1) * 100);
        obs::snapshot_tick(1e-3);
      },
      1);
  const std::string json = metrics_ts_json();
  EXPECT_NE(json.find("test.snap.depth_gauge"), std::string::npos) << json;
  EXPECT_NE(json.find("\"values\""), std::string::npos) << json;
  EXPECT_EQ(json.find("test.snap.never_touched"), std::string::npos)
      << "all-zero series must be omitted: " << json;
}

TEST_F(SnapProfFixture, FirstSampleIncludesWhatTheTaskCountedBeforeIt) {
  const obs::Counter c = obs::counter("test.snap.setup_work");
  const obs::Gauge g = obs::gauge("test.snap.setup_gauge");
  obs::set_snapshot_enabled(true);
  // A task's setup counts before its first tick; the first sample must hold
  // them, whichever thread ran the task.
  par::parallel_for_each(
      2,
      [&](std::size_t i) {
        c.add(10 * (i + 1));
        g.set_max(7);
        obs::snapshot_tick(0.0);
      },
      2);
  const std::string json = metrics_ts_json();
  const std::size_t task2 = json.find("\"task\": 2");
  ASSERT_NE(task2, std::string::npos) << json;
  const std::string first = json.substr(0, task2);
  const std::string second = json.substr(task2);
  EXPECT_NE(first.find("\"test.snap.setup_work\", \"kind\": \"counter\", "
                       "\"cum\": [10]"),
            std::string::npos)
      << json;
  EXPECT_NE(second.find("\"test.snap.setup_work\", \"kind\": \"counter\", "
                        "\"cum\": [20]"),
            std::string::npos)
      << json;
  for (const std::string& task : {first, second}) {
    EXPECT_NE(task.find("\"test.snap.setup_gauge\", \"kind\": \"gauge\", "
                        "\"values\": [7]"),
              std::string::npos)
        << json;
  }
}

TEST_F(SnapProfFixture, SnapshotIdleWhenDisarmed) {
  const obs::Counter c = obs::counter("test.snap.disarmed");
  c.add(1);
  obs::snapshot_tick(0.0);  // sampler off: one relaxed load, no sample
  obs::snapshot_tick(1e-3);
  EXPECT_EQ(metrics_ts_json().find("test.snap.disarmed"), std::string::npos);
}

TEST_F(SnapProfFixture, FoldedStacksMergeNestedScopesByPath) {
  obs::set_profile_enabled(true);
  for (int i = 0; i < 2; ++i) {
    obs::ProfScope outer("test.prof.outer");
    { obs::ProfScope inner("test.prof.inner"); }
    { obs::ProfScope inner2("test.prof.inner2"); }
  }
  const std::string text = folded();
  // Values are hit counts (deterministic), one line per distinct stack.
  EXPECT_NE(text.find("test.prof.outer 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.prof.outer;test.prof.inner 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("test.prof.outer;test.prof.inner2 2\n"),
            std::string::npos)
      << text;
}

TEST_F(SnapProfFixture, DetachedScopesAnchorAtRootNotUnderTheirCaller) {
  obs::set_profile_enabled(true);
  {
    obs::ProfScope caller("test.prof.caller");
    obs::ProfScope task("test.prof.task_frame", obs::Anchor::kDetached);
    obs::ProfScope work("test.prof.task_work");
  }
  const std::string text = folded();
  EXPECT_NE(text.find("test.prof.task_frame;test.prof.task_work 1\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("test.prof.caller;test.prof.task_frame"),
            std::string::npos)
      << "detached frame must not inherit its caller's stack: " << text;
  // The caller's own frame still exists at the root.
  EXPECT_NE(text.find("test.prof.caller 1\n"), std::string::npos) << text;
}

TEST_F(SnapProfFixture, ScopesUnwindCorrectlyThroughExceptions) {
  obs::set_profile_enabled(true);
  try {
    obs::ProfScope a("test.prof.thrower");
    obs::ProfScope b("test.prof.thrown_inner");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  { obs::ProfScope after("test.prof.after_throw"); }
  bool saw_after = false, saw_inner = false;
  for (const obs::ProfileNode& n : obs::profile_nodes()) {
    if (n.name == "test.prof.after_throw") {
      saw_after = true;
      // Unwinding popped both frames: the follow-up scope sits at the root,
      // not nested under the thrower's stack.
      EXPECT_EQ(n.depth, 0) << n.name;
      EXPECT_EQ(n.hits, 1u);
    }
    if (n.name == "test.prof.thrown_inner") {
      saw_inner = true;
      EXPECT_EQ(n.depth, 1) << "inner frame keeps its recorded nesting";
      EXPECT_EQ(n.hits, 1u);
    }
  }
  EXPECT_TRUE(saw_after);
  EXPECT_TRUE(saw_inner);
}

TEST_F(SnapProfFixture, ProfilerIdleWhenDisarmed) {
  { obs::ProfScope never("test.prof.never_armed"); }
  EXPECT_EQ(folded().find("test.prof.never_armed"), std::string::npos);
}

#else  // ECND_OBS_DISABLED

TEST(SnapProfDisabled, EntryPointsAreInertAndExportsAreEmpty) {
  EXPECT_FALSE(obs::snapshot_enabled());
  EXPECT_FALSE(obs::profile_enabled());
  obs::snapshot_tick(0.0);  // must not crash
  { obs::ProfScope scope("test.prof.compiled_out"); }
  std::ostringstream folded;
  obs::write_profile_folded(folded);
  EXPECT_TRUE(folded.str().empty());
  EXPECT_TRUE(obs::profile_nodes().empty());
}

#endif  // ECND_OBS_DISABLED

}  // namespace
}  // namespace ecnd
