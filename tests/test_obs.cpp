// Observability layer (src/obs): registry semantics, shard-merge determinism
// across thread counts, histogram bucket geometry, tracer ring-buffer
// overflow policy, and the Chrome trace-event JSON export (validated with
// report::Json, the repo's one parser). Everything here drives the layer
// programmatically (set_metrics_enabled / set_trace_enabled) so the suite
// behaves the same with or without the ECND_* env knobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "core/parallel.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/factories.hpp"
#include "report/json.hpp"
#include "sim/network.hpp"

namespace ecnd {
namespace {

#if !defined(ECND_OBS_DISABLED)

/// Arm metrics + tracing for one test, restore/clear on the way out.
class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    obs::reset();
  }
  void TearDown() override {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::set_trace_capacity(65536);
    obs::reset();
  }

  static std::string metrics_json() {
    std::ostringstream out;
    obs::dump_metrics_json(out);
    return out.str();
  }

  static std::string trace_json() {
    std::ostringstream out;
    obs::write_trace_json(out);
    return out.str();
  }
};

TEST(ObsBuckets, IndexAndEdgeGeometry) {
  EXPECT_EQ(obs::bucket_index(0), 0);
  EXPECT_EQ(obs::bucket_index(1), 1);
  EXPECT_EQ(obs::bucket_index(2), 2);
  EXPECT_EQ(obs::bucket_index(3), 2);
  EXPECT_EQ(obs::bucket_index(4), 3);
  EXPECT_EQ(obs::bucket_index(1023), 10);
  EXPECT_EQ(obs::bucket_index(1024), 11);
  // Top bucket is open-ended.
  EXPECT_EQ(obs::bucket_index(UINT64_MAX), obs::kHistogramBuckets - 1);

  EXPECT_EQ(obs::bucket_lower_edge(0), 0u);
  EXPECT_EQ(obs::bucket_lower_edge(1), 1u);
  EXPECT_EQ(obs::bucket_lower_edge(2), 2u);
  EXPECT_EQ(obs::bucket_lower_edge(3), 4u);
  EXPECT_EQ(obs::bucket_lower_edge(11), 1024u);

  // Every value lands in the bucket whose [lower, next-lower) range holds it.
  for (std::uint64_t v :
       {1ull, 7ull, 63ull, 64ull, 65ull, 4095ull, 1048576ull}) {
    const int b = obs::bucket_index(v);
    EXPECT_GE(v, obs::bucket_lower_edge(b)) << v;
    if (b + 1 < obs::kHistogramBuckets) {
      EXPECT_LT(v, obs::bucket_lower_edge(b + 1)) << v;
    }
  }
}

TEST_F(ObsFixture, CounterShardsMergeIdenticallyAtAnyThreadCount) {
  const obs::Counter c = obs::counter("test.obs.merge_counter");
  auto run = [&](std::size_t threads) {
    obs::reset();
    par::parallel_for_each(
        16, [&](std::size_t i) { c.add(i + 1); }, threads);
    return metrics_json();
  };
  const std::string serial = run(1);
  const std::string threaded = run(4);
  EXPECT_EQ(serial, threaded);
  // Sum of 1..16 = 136, independent of which worker ran which task.
  EXPECT_NE(serial.find("\"test.obs.merge_counter\": 136"), std::string::npos)
      << serial;
}

TEST_F(ObsFixture, GaugeMergesAsMaxAcrossShards) {
  const obs::Gauge g = obs::gauge("test.obs.merge_gauge");
  par::parallel_for_each(
      8, [&](std::size_t i) { g.set_max((i + 1) * 100); }, 4);
  const std::string json = metrics_json();
  EXPECT_NE(json.find("\"test.obs.merge_gauge\": 800"), std::string::npos)
      << json;
}

TEST_F(ObsFixture, HistogramCountsSumsAndBuckets) {
  const obs::Histogram h = obs::histogram("test.obs.hist");
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(5);
  const std::string json = metrics_json();
  // count=4, sum=11; value 0 -> bucket edge 0, 1 -> edge 1, 5 (x2) -> edge 4.
  // Percentiles interpolate inside the crossing bucket: p50's rank-2 target
  // lands at the top of bucket [1,2) -> 2; p99's rank-3.96 target sits 98%
  // into bucket [4,8) -> 7.92.
  EXPECT_NE(json.find("\"test.obs.hist\": {\"count\": 4, \"sum\": 11, "
                      "\"buckets\": [[0, 1], [1, 1], [4, 2]], "
                      "\"p50\": 2, \"p99\": 7.92}"),
            std::string::npos)
      << json;
  EXPECT_NO_THROW(report::Json::parse(json)) << json;

  // Bucket 0 holds the exact value 0: a median that lands there reads 0,
  // not an interpolated edge.
  const obs::Histogram zeros = obs::histogram("test.obs.mostly_zero_hist");
  for (int i = 0; i < 3; ++i) zeros.record(0);
  zeros.record(4);
  EXPECT_NE(metrics_json().find("\"test.obs.mostly_zero_hist\": {\"count\": 4, "
                                "\"sum\": 4, \"buckets\": [[0, 3], [4, 1]], "
                                "\"p50\": 0, \"p99\": 7.84}"),
            std::string::npos)
      << metrics_json();
}

TEST_F(ObsFixture, PercentileOfRegisteredButEmptyHistogramIsNullopt) {
  // Registration alone is not data: a histogram that never recorded must
  // dump "no percentile", not a fake 0.
  obs::histogram("test.obs.empty_hist");
  EXPECT_NE(metrics_json().find("\"test.obs.empty_hist\": {\"count\": 0, "
                                "\"sum\": 0, \"buckets\": [], "
                                "\"p50\": null, \"p99\": null}"),
            std::string::npos)
      << metrics_json();
}

TEST_F(ObsFixture, ManifestReportsPerTaskTraceDrops) {
  obs::set_trace_capacity(2);
  obs::reset();  // apply the tiny capacity to fresh buffers
  {
    obs::TaskScope task3(3);
    for (int i = 0; i < 7; ++i) {
      obs::trace_instant("test.drop", static_cast<double>(i));
    }
  }
  {
    obs::TaskScope task1(1);
    obs::trace_instant("test.keep", 0.0);  // fits: no drops for task 1
  }
  const std::string json = obs::RunManifest("test_tool").to_json();
  EXPECT_NO_THROW(report::Json::parse(json)) << json;
  // 7 events into a 2-slot ring = 5 drops, attributed to task 3 only.
  EXPECT_NE(json.find("\"dropped_total\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"3\": 5"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"1\":"), std::string::npos)
      << "task 1 dropped nothing and must not appear: " << json;
}

TEST_F(ObsFixture, UntracedManifestHasNoTraceSection) {
  obs::set_trace_enabled(false);
  const std::string json = obs::RunManifest("test_tool").to_json();
  EXPECT_EQ(json.find("\"trace\""), std::string::npos) << json;
  EXPECT_NO_THROW(report::Json::parse(json)) << json;
}

TEST_F(ObsFixture, ReRegisteringUnderDifferentKindThrows) {
  obs::counter("test.obs.kind_clash");
  EXPECT_THROW(obs::gauge("test.obs.kind_clash"), std::logic_error);
  EXPECT_THROW(obs::histogram("test.obs.kind_clash"), std::logic_error);
  // Same kind is fine and refers to the same cell.
  const obs::Counter again = obs::counter("test.obs.kind_clash");
  again.add(3);
  EXPECT_NE(metrics_json().find("\"test.obs.kind_clash\": 3"),
            std::string::npos);
}

TEST_F(ObsFixture, ResetZeroesValuesButKeepsRegistrations) {
  const obs::Counter c = obs::counter("test.obs.reset_me");
  c.add(7);
  EXPECT_NE(metrics_json().find("\"test.obs.reset_me\": 7"), std::string::npos);
  obs::reset();
  EXPECT_NE(metrics_json().find("\"test.obs.reset_me\": 0"), std::string::npos);
}

TEST_F(ObsFixture, RingOverflowDropsOldestAndCountsTheLoss) {
  obs::set_trace_capacity(4);
  obs::reset();  // drop pre-existing buffers so the new capacity applies
  for (int i = 0; i < 10; ++i) {
    obs::trace_instant("test.tick", static_cast<double>(i));
  }
  EXPECT_EQ(obs::trace_dropped_total(), 6u);
  const std::string json = trace_json();
  // Oldest events overwritten, the tail of the run survives in order. (The
  // trace.dropped marker sits at ts 0, so probe ts 5 for the dropped half.)
  EXPECT_EQ(json.find("\"ts\":5.000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":6.000000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":9.000000"), std::string::npos) << json;
  const auto pos7 = json.find("\"ts\":7.000000");
  const auto pos8 = json.find("\"ts\":8.000000");
  EXPECT_LT(pos7, pos8);
  EXPECT_NE(json.find("\"trace.dropped\""), std::string::npos) << json;
  EXPECT_NO_THROW(report::Json::parse(json)) << json;
}

TEST_F(ObsFixture, TaskScopeRoutesEventsToPerTaskTracks) {
  {
    obs::TaskScope task2(2);
    obs::trace_instant("test.in_task2", 1.0);
  }
  {
    obs::TaskScope task1(1);
    obs::trace_instant("test.in_task1", 2.0);
  }
  obs::trace_instant("test.in_main", 3.0);  // task 0 (default)
  const std::string json = trace_json();
  // Export is sorted by task id, independent of emission order.
  const auto main_pos = json.find("\"test.in_main\"");
  const auto t1_pos = json.find("\"test.in_task1\"");
  const auto t2_pos = json.find("\"test.in_task2\"");
  ASSERT_NE(main_pos, std::string::npos);
  ASSERT_NE(t1_pos, std::string::npos);
  ASSERT_NE(t2_pos, std::string::npos);
  EXPECT_LT(main_pos, t1_pos);
  EXPECT_LT(t1_pos, t2_pos);
  // Each task gets a process_name metadata record (Perfetto track label).
  EXPECT_NE(json.find("\"args\":{\"name\":\"task 1\"}"), std::string::npos);
}

TEST_F(ObsFixture, TracedSimRunProducesValidChromeTraceJson) {
  // Tiny 2-sender DCQCN incast with ECN marking: enough traffic to exercise
  // the queue counter track, ECN-mark instants and CNP/rate-update instants.
  sim::Network net(1);
  sim::StarConfig config;
  config.senders = 2;
  sim::Star star = sim::make_star(net, config);
  for (sim::Host* s : star.senders) {
    s->set_controller_factory(
        proto::make_dcqcn_factory(net.sim(), proto::DcqcnRpParams{}));
  }
  for (sim::Host* s : star.senders) {
    s->start_flow(star.receiver->id(), kilobytes(256.0));
  }
  net.sim().run_until(seconds(0.005));

  const std::string json = trace_json();
  EXPECT_NO_THROW(report::Json::parse(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // queue track

  const std::string metrics = metrics_json();
  EXPECT_NO_THROW(report::Json::parse(metrics));
  EXPECT_NE(metrics.find("\"sim.events\""), std::string::npos);

  // Repeatability: the same scenario traces to the same bytes.
  obs::reset();
  sim::Network net2(1);
  sim::Star star2 = sim::make_star(net2, config);
  for (sim::Host* s : star2.senders) {
    s->set_controller_factory(
        proto::make_dcqcn_factory(net2.sim(), proto::DcqcnRpParams{}));
  }
  for (sim::Host* s : star2.senders) {
    s->start_flow(star2.receiver->id(), kilobytes(256.0));
  }
  net2.sim().run_until(seconds(0.005));
  EXPECT_EQ(json, trace_json());
}

TEST_F(ObsFixture, DisabledFlagMakesHotPathsNoOps) {
  const obs::Counter c = obs::counter("test.obs.gated");
  obs::set_metrics_enabled(false);
  c.add(5);
  obs::set_metrics_enabled(true);
  c.add(2);
  EXPECT_NE(metrics_json().find("\"test.obs.gated\": 2"), std::string::npos);

  obs::set_trace_enabled(false);
  obs::trace_instant("test.obs.gated_event", 1.0);
  EXPECT_EQ(trace_json().find("\"test.obs.gated_event\""), std::string::npos);
}

#else  // ECND_OBS_DISABLED

TEST(ObsDisabled, EntryPointsAreInertAndExportsSayCompiledOut) {
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_FALSE(obs::trace_enabled());
  const obs::Counter c = obs::counter("test.obs.disabled");
  c.add(42);  // must not crash; there is nowhere for the count to go
  std::ostringstream metrics;
  obs::dump_metrics_json(metrics);
  EXPECT_NE(metrics.str().find("\"compiled_out\": true"), std::string::npos);
  std::ostringstream trace;
  obs::write_trace_json(trace);
  EXPECT_NE(trace.str().find("\"traceEvents\""), std::string::npos);
}

#endif  // ECND_OBS_DISABLED

}  // namespace
}  // namespace ecnd
