// Export pins: FNV-1a digests of every observability export for one small
// scenario run with every recorder armed — metrics, trace, flight (every flow
// sampled), the sim-time snapshot sampler and the profiler. The scenario is a
// two-task sweep of PFC pause storms on a leaf-spine plus a short guarded
// DCQCN fluid run on the main thread. Any change that moves one byte of an
// export (number rendering, escaping, task order, record order) fails here.
//
// The metrics registry is process-wide and keeps every name an earlier test
// registered (at zero after obs::reset()), and the profiler keeps every frame
// it ever saw (at zero hits). Only what the scenario controls is digested:
// zero-valued metric rows and zero-hit frames are dropped first, and the
// manifest's metrics_digest (a digest of the whole registry) is checked
// against the dump it summarizes instead of a constant. So the pins hold
// whether this test runs alone or after the rest of the binary.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/fnv1a.hpp"
#include "core/parallel.hpp"
#include "exp/fabric.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/dde_solver.hpp"
#include "obs/flight.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "robust/invariant_guard.hpp"

namespace ecnd {
namespace {

#if !defined(ECND_OBS_DISABLED)

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

/// The metrics dump minus rows the scenario left at zero (names registered
/// by other tests), with trailing commas stripped: whether a row ends in a
/// comma depends on which zero rows sort after it.
std::string scenario_metrics(const std::string& dump) {
  std::string out;
  for (std::string line : lines_of(dump)) {
    if (!line.empty() && line.back() == ',') line.pop_back();
    const bool zero_row = line.size() > 3 &&
                          line.compare(line.size() - 3, 3, ": 0") == 0;
    const bool empty_hist = line.find("{\"count\": 0,") != std::string::npos;
    if (zero_row || empty_hist) continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// The folded profile minus frames the scenario never entered.
std::string scenario_folded(const std::string& folded) {
  std::string out;
  for (const std::string& line : lines_of(folded)) {
    if (line.size() > 2 && line.compare(line.size() - 2, 2, " 0") == 0) {
      continue;
    }
    out += line;
    out += '\n';
  }
  return out;
}

template <typename Writer>
std::string capture(Writer writer) {
  std::ostringstream out;
  writer(out);
  return out.str();
}

class ObsExportPins : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    obs::set_trace_capacity(2048);
    obs::set_flight_enabled(true);
    obs::set_flight_sample(1);
    obs::set_flight_capacity(std::size_t{1} << 16);
    obs::set_snapshot_enabled(true);
    obs::set_snapshot_interval(2.5e-4);
    obs::set_profile_enabled(true);
    obs::reset();  // fresh buffers at the capacities above
  }
  void TearDown() override {
    obs::set_profile_enabled(false);
    obs::set_snapshot_enabled(false);
    obs::set_snapshot_interval(obs::kDefaultSnapshotInterval);
    obs::set_flight_enabled(false);
    obs::set_flight_sample(obs::kDefaultFlightSample);
    obs::set_trace_enabled(false);
    obs::set_trace_capacity(65536);
    obs::set_metrics_enabled(false);
    obs::reset();
  }
};

/// Two sweep tasks, each a PFC pause storm on its own small leaf-spine, then
/// a guarded two-flow DCQCN fluid run on the main thread (task 0).
std::vector<std::uint64_t> run_scenario() {
  std::vector<std::uint64_t> pause_frames(2, 0);
  par::parallel_for_each(2, [&](std::size_t i) {
    exp::PauseStormConfig config;
    config.fabric.kind = sim::FabricConfig::Kind::kLeafSpine;
    config.fabric.spines = 2;
    config.fabric.leaves = 2;
    config.fabric.hosts_per_leaf = 4;
    config.fabric.fabric_link_rate = gbps(40.0);
    config.fabric.pfc.enabled = true;
    config.fabric.pfc.pause_threshold = kilobytes(32.0);
    config.fabric.pfc.resume_threshold = kilobytes(16.0);
    config.senders = 4 + static_cast<int>(i);
    config.bytes_per_sender = kilobytes(128.0);
    config.duration_s = 0.002;
    config.seed = 5 + i;
    pause_frames[i] = exp::run_pause_storm(config).pause_frames;
  });

  fluid::DcqcnFluidParams params;
  params.num_flows = 2;
  const fluid::DcqcnFluidModel model(params);
  fluid::DdeSolver solver(model, model.initial_state(), 0.0,
                          model.suggested_dt());
  robust::guard_solver(solver, model);
  solver.run_until(0.002, nullptr, 0.0);
  return pause_frames;
}

obs::RunManifest pinned_manifest() {
  obs::RunManifest m("test_obs_exports");
  m.param("flows", 2)
      .param("duration_s", 0.002)
      .param("seed", std::uint64_t{5})
      .param("pfc", true)
      .param("topology", "leaf-spine \"2x2\"");
  m.observable("pause_frames", std::int64_t{-3})
      .observable("storm_drops", std::uint64_t{0})
      .observable("lossless", true)
      .observable("queue_kb", 12.375)
      .observable("tiny", 1e-300)
      .observable("settle_s", std::optional<double>{})
      .observable("settled_s", std::optional<double>{0.1})
      .observable("undefined", std::numeric_limits<double>::quiet_NaN())
      .observable("blowup", std::numeric_limits<double>::infinity());
  m.failure("cell 3 (N=8)", "fluid.dcqcn", "flow0.rate", 0.0125,
            std::numeric_limits<double>::quiet_NaN(),
            "rate \"diverged\"\n\tat step 12 \\ path", 2);
  return m;
}

TEST_F(ObsExportPins, EveryExportMatchesItsRecordedDigest) {
  const std::vector<std::uint64_t> pauses = run_scenario();
  ASSERT_GT(pauses[0] + pauses[1], 0u) << "the storms must pause";

  const std::string metrics = capture([](std::ostream& o) {
    obs::dump_metrics_json(o);
  });
  const std::string trace = capture([](std::ostream& o) {
    obs::write_trace_json(o);
  });
  const std::string postcards = capture([](std::ostream& o) {
    obs::write_flight_postcards_json(o);
  });
  const std::string timeline = capture([](std::ostream& o) {
    obs::write_flight_timeline_json(o);
  });
  const std::string pausetree = capture([](std::ostream& o) {
    obs::write_flight_pausetree_json(o);
  });
  const std::string metrics_ts = capture([](std::ostream& o) {
    obs::write_metrics_ts_json(o);
  });
  const std::string folded = capture([](std::ostream& o) {
    obs::write_profile_folded(o);
  });
  ASSERT_GT(obs::trace_dropped_total(), 0u)
      << "the ring must wrap so the manifest's trace section is non-trivial";

  EXPECT_EQ(fnv1a64(scenario_metrics(metrics)), 0x93594e405f32cb75ull)
      << "metrics dump";
  EXPECT_EQ(fnv1a64(trace), 0x92b6146fd1886607ull) << "trace";
  EXPECT_EQ(fnv1a64(postcards), 0x0f538055a68714b5ull) << "flight postcards";
  EXPECT_EQ(fnv1a64(timeline), 0x1cf145b3008f8ef0ull) << "flight timeline";
  EXPECT_EQ(fnv1a64(pausetree), 0x591ceb70fdffae51ull) << "flight pause tree";
  EXPECT_EQ(fnv1a64(metrics_ts), 0xa147202439e06387ull) << "metrics_ts";
  EXPECT_EQ(fnv1a64(scenario_folded(folded)), 0x6db1ae7edebff596ull)
      << "folded profile";

  // The manifest minus its registry-wide digest line, which must summarize
  // exactly the dump above.
  const std::string manifest = pinned_manifest().to_json();
  char digest_line[64];
  std::snprintf(digest_line, sizeof(digest_line),
                "  \"metrics_digest\": \"fnv1a:%016llx\"",
                static_cast<unsigned long long>(fnv1a64(metrics)));
  std::string rest;
  bool saw_digest = false;
  for (const std::string& line : lines_of(manifest)) {
    if (line.rfind("  \"metrics_digest\"", 0) == 0) {
      EXPECT_EQ(line, digest_line);
      saw_digest = true;
      continue;
    }
    rest += line;
    rest += '\n';
  }
  EXPECT_TRUE(saw_digest) << manifest;
  EXPECT_EQ(fnv1a64(rest), 0xe8cdc63fb31e6cd9ull) << "manifest\n" << manifest;
}

#endif  // !ECND_OBS_DISABLED

}  // namespace
}  // namespace ecnd
