// ecnd-diff engine (src/report/diff): artifact kind detection, the severity
// ladder (clean / numeric drift / structural mismatch) that becomes the CLI's
// 0/1/2 exit status, tolerance suppression, first-divergence localization in
// metric time-series, and torn-tail tolerance for the sweep journal.
// Golden inputs are written to the test temp dir — the library is pure
// file-in/report-out, so these are end-to-end minus main().

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "report/diff.hpp"

namespace ecnd::report {
namespace {

/// Write `text` under a unique name in the gtest temp dir, return the path.
std::string write_artifact(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "ecnd_diff_" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

const char kMetricsA[] =
    R"({"schema": "ecnd-metrics-v1",
        "counters": {"sim.events": 1000, "fluid.steps": 50},
        "gauges": {"sim.heap_peak": 64},
        "histograms": {"prof.run_ns": {"count": 4, "sum": 100,
                                       "buckets": [[0, 4]],
                                       "p50": 25, "p99": 40}}})";

std::string manifest(const std::string& tool, double param) {
  std::ostringstream out;
  out << R"({"schema": "ecnd-manifest-v1", "tool": ")" << tool
      << R"(", "params": {"load": )" << param
      << R"(}, "observables": {"fct_ms": 1.5}})";
  return out.str();
}

std::string metrics_ts(double third_sample) {
  std::ostringstream out;
  out << R"({"schema": "ecnd-metrics-ts-v1", "interval_s": 0.001,
             "dropped_samples": 0, "tasks": [
               {"task": 0, "t_s": [0, 0.001, 0.002],
                "series": [{"name": "sim.events", "kind": "counter",
                            "cum": [10, 20, )"
      << third_sample << R"(], "inc": [10, 10, 10]}]}]})";
  return out.str();
}

TEST(DiffDetect, ClassifiesEveryArtifactKind) {
  EXPECT_EQ(detect_artifact(write_artifact("k_metrics.json", kMetricsA)),
            "metrics");
  EXPECT_EQ(
      detect_artifact(write_artifact("k_manifest.json", manifest("t", 1))),
      "manifest");
  EXPECT_EQ(detect_artifact(write_artifact("k_ts.json", metrics_ts(30))),
            "metrics_ts");
  EXPECT_EQ(detect_artifact(write_artifact(
                "k_journal.txt",
                "ecnd1 0123456789abcdef done v=1\n")),
            "journal");
  EXPECT_THROW(detect_artifact(write_artifact("k_junk.txt", "not json\n")),
               std::runtime_error);
  EXPECT_THROW(detect_artifact(::testing::TempDir() + "ecnd_diff_missing"),
               std::runtime_error);
}

TEST(DiffMetrics, IdenticalFilesAreCleanExitZero) {
  const std::string a = write_artifact("m_same_a.json", kMetricsA);
  const std::string b = write_artifact("m_same_b.json", kMetricsA);
  const DiffResult r = diff_artifacts(a, b);
  EXPECT_EQ(r.severity(), DiffSeverity::kNone);
  EXPECT_TRUE(r.entries.empty());
  EXPECT_EQ(r.kind, "metrics");
}

TEST(DiffMetrics, DriftIsNumericAndToleranceSuppressesIt) {
  const std::string a = write_artifact("m_drift_a.json", kMetricsA);
  const std::string b = write_artifact(
      "m_drift_b.json",
      R"({"schema": "ecnd-metrics-v1",
          "counters": {"sim.events": 1100, "fluid.steps": 50},
          "gauges": {"sim.heap_peak": 64},
          "histograms": {"prof.run_ns": {"count": 4, "sum": 100,
                                         "buckets": [[0, 4]],
                                         "p50": 25, "p99": 40}}})");
  const DiffResult drift = diff_artifacts(a, b);
  EXPECT_EQ(drift.severity(), DiffSeverity::kNumeric);
  ASSERT_EQ(drift.entries.size(), 1u);
  EXPECT_EQ(drift.entries[0].key, "sim.events");

  // 1000 -> 1100 is a 9.1% relative change; a 20% tolerance swallows it.
  const DiffResult tolerated = diff_artifacts(a, b, 0.2);
  EXPECT_EQ(tolerated.severity(), DiffSeverity::kNone);
  EXPECT_TRUE(tolerated.entries.empty());
  EXPECT_EQ(tolerated.suppressed, 1u);
}

TEST(DiffMetrics, MissingMetricIsStructuralEvenUnderTolerance) {
  const std::string a = write_artifact("m_struct_a.json", kMetricsA);
  const std::string b = write_artifact(
      "m_struct_b.json",
      R"({"schema": "ecnd-metrics-v1",
          "counters": {"sim.events": 1000},
          "gauges": {"sim.heap_peak": 64}, "histograms": {}})");
  const DiffResult r = diff_artifacts(a, b, 10.0);
  EXPECT_EQ(r.severity(), DiffSeverity::kStructural);
  bool saw_removed_counter = false;
  for (const DiffEntry& e : r.entries) {
    if (e.key == "fluid.steps") {
      saw_removed_counter = true;
      EXPECT_EQ(e.severity, DiffSeverity::kStructural);
    }
  }
  EXPECT_TRUE(saw_removed_counter);
  // Structural entries rank above any numeric drift.
  ASSERT_FALSE(r.entries.empty());
  EXPECT_EQ(r.entries.front().severity, DiffSeverity::kStructural);
}

TEST(DiffManifest, ParamDriftNumericToolMismatchStructural) {
  const std::string a = write_artifact("mf_a.json", manifest("fig14", 0.5));
  const std::string drifted =
      write_artifact("mf_b.json", manifest("fig14", 0.6));
  EXPECT_EQ(diff_artifacts(a, drifted).severity(), DiffSeverity::kNumeric);

  const std::string other_tool =
      write_artifact("mf_c.json", manifest("fig16", 0.5));
  EXPECT_EQ(diff_artifacts(a, other_tool).severity(),
            DiffSeverity::kStructural);
}

TEST(DiffMetricsTs, LocalizesFirstDivergentSimTimestamp) {
  const std::string a = write_artifact("ts_a.json", metrics_ts(30));
  const std::string b = write_artifact("ts_b.json", metrics_ts(31));
  const DiffResult r = diff_artifacts(a, b);
  EXPECT_EQ(r.severity(), DiffSeverity::kNumeric);
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].key, "task 0 sim.events");
  // Samples 0 and 1 agree; the first divergence is sample 2 at t = 2 ms.
  EXPECT_NE(r.entries[0].note.find("first divergence at t=0.002 s (sample 2)"),
            std::string::npos)
      << r.entries[0].note;
}

TEST(DiffJournal, QuarantineFlipIsNumericAndTornTailIsSkipped) {
  const std::string a = write_artifact(
      "j_a.txt",
      "ecnd1 0123456789abcdef done v=1\n"
      "ecnd1 fedcba9876543210 done v=2\n");
  const std::string b = write_artifact(
      "j_b.txt",
      "ecnd1 0123456789abcdef done v=1\n"
      "ecnd1 fedcba9876543210 quarantined diverged\n"
      "ecnd1 00ff00ff00");  // torn mid-write: skipped, never fatal
  const DiffResult r = diff_artifacts(a, b);
  EXPECT_EQ(r.severity(), DiffSeverity::kNumeric);
  EXPECT_EQ(r.skipped_lines, 1u);
  bool saw_flip = false;
  for (const DiffEntry& e : r.entries) {
    if (e.note.find("quarantine") != std::string::npos) saw_flip = true;
  }
  EXPECT_TRUE(saw_flip);
}

TEST(DiffKinds, MismatchedArtifactKindsAreStructural) {
  const std::string a = write_artifact("x_metrics.json", kMetricsA);
  const std::string b = write_artifact("x_manifest.json", manifest("t", 1));
  const DiffResult r = diff_artifacts(a, b);
  EXPECT_EQ(r.severity(), DiffSeverity::kStructural);
  EXPECT_EQ(r.kind, "metrics vs manifest");
}

TEST(DiffMarkdown, RendersTableAndSummary) {
  std::string drifted = kMetricsA;
  drifted.replace(drifted.find("1000"), 4, "1200");
  const std::string a = write_artifact("md_a.json", kMetricsA);
  const std::string b = write_artifact("md_b.json", drifted);
  std::ostringstream out;
  write_markdown(out, diff_artifacts(a, b));
  const std::string text = out.str();
  EXPECT_NE(text.find("# ecnd-diff: metrics"), std::string::npos) << text;
  EXPECT_NE(text.find("| drift | sim.events | 1000 | 1200 |"), std::string::npos)
      << text;
  EXPECT_NE(text.find("| kind | key | A | B | note |"), std::string::npos);
  EXPECT_NE(text.find("worst: drift"), std::string::npos) << text;
}

}  // namespace
}  // namespace ecnd::report
