// Content-addressed sweep journal: keys (and the FNV-1a digest under them),
// crash-tolerant loading, and the journaled_map resume semantics (skip
// completed cells, re-run quarantined ones, survive torn tails).

#include "core/journal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fnv1a.hpp"

namespace ecnd {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(testing::TempDir()) + name;
}

TEST(BuildFingerprint, EnvironmentOverrideWins) {
  ::setenv("ECND_GIT_SHA", "cafebabe0123", 1);
  EXPECT_EQ(build_fingerprint(), "cafebabe0123");
  ::unsetenv("ECND_GIT_SHA");
  EXPECT_NE(build_fingerprint(), "");  // baked-in SHA or "unknown"
}

TEST(SweepJournal, KeysAreStableAndCellSensitive) {
  ::setenv("ECND_GIT_SHA", "cafebabe0123", 1);
  SweepJournal j;
  EXPECT_EQ(j.key("fig20|dcqcn|jitter_us=0"), j.key("fig20|dcqcn|jitter_us=0"));
  EXPECT_NE(j.key("fig20|dcqcn|jitter_us=0"),
            j.key("fig20|dcqcn|jitter_us=50"));
  ::unsetenv("ECND_GIT_SHA");
}

TEST(SweepJournal, KeysDependOnBuildFingerprint) {
  ::setenv("ECND_GIT_SHA", "aaaaaaaaaaaa", 1);
  SweepJournal a;
  ::setenv("ECND_GIT_SHA", "bbbbbbbbbbbb", 1);
  SweepJournal b;
  ::unsetenv("ECND_GIT_SHA");
  EXPECT_NE(a.key("same|cell"), b.key("same|cell"));
}

TEST(SweepJournal, DisabledJournalMissesAndIgnoresRecords) {
  SweepJournal j;
  EXPECT_FALSE(j.enabled());
  j.record(42, true, "1 2 3");  // no-op, must not crash
  EXPECT_EQ(j.find(42), nullptr);
}

TEST(SweepJournal, RecordThenResumeRoundTrips) {
  const std::string path = temp_path("journal_roundtrip.txt");
  {
    SweepJournal j;
    j.open(path, /*resume=*/false);
    j.record(j.key("cell0"), true, "1.5 2.5");
    j.record(j.key("cell1"), false, "diverged at t=0.1");  // quarantined
    j.record(j.key("cell2"), true, "7");
  }
  SweepJournal j;
  j.open(path, /*resume=*/true);
  EXPECT_EQ(j.loaded(), 2u);  // only `done` lines satisfy lookups
  ASSERT_NE(j.find(j.key("cell0")), nullptr);
  EXPECT_EQ(*j.find(j.key("cell0")), "1.5 2.5");
  EXPECT_EQ(j.find(j.key("cell1")), nullptr);  // quarantined: re-run
  ASSERT_NE(j.find(j.key("cell2")), nullptr);
}

TEST(SweepJournal, TruncatedTailAndGarbageLinesAreSkipped) {
  const std::string path = temp_path("journal_torn.txt");
  {
    SweepJournal j;
    j.open(path, false);
    j.record(j.key("good"), true, "11");
  }
  {
    // Simulate a SIGKILL mid-write plus unrelated garbage.
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "not a journal line\n";
    out << "ecnd1 zzzz nothexadecimal done 5\n";
    out << "ecnd1 0123456789abcdef done 99";  // torn: no newline
  }
  {
    SweepJournal j;
    j.open(path, true);
    EXPECT_EQ(j.loaded(), 1u);
    ASSERT_NE(j.find(j.key("good")), nullptr);
    EXPECT_EQ(*j.find(j.key("good")), "11");
    EXPECT_EQ(j.find(0x0123456789abcdefull), nullptr);  // torn line dropped
    j.record(j.key("next"), true, "2");
  }
  // The record after the resume starts on its own line: it is not glued
  // onto the torn one, which stays absent.
  SweepJournal j;
  j.open(path, true);
  EXPECT_EQ(j.loaded(), 2u);
  ASSERT_NE(j.find(j.key("next")), nullptr);
  EXPECT_EQ(*j.find(j.key("next")), "2");
  EXPECT_EQ(j.find(0x0123456789abcdefull), nullptr);
}

TEST(Fnv1a, KnownAnswers) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(SweepJournal, NewlinesInPayloadsAreFlattened) {
  const std::string path = temp_path("journal_newlines.txt");
  {
    SweepJournal j;
    j.open(path, false);
    j.record(7, false, "line one\nline two");
    j.record(8, true, "42");
  }
  SweepJournal j;
  j.open(path, true);
  EXPECT_EQ(j.loaded(), 1u);  // the multi-line message stayed on one line
  ASSERT_NE(j.find(8), nullptr);
}

TEST(FieldCodec, DoublesRoundTripExactly) {
  const std::vector<double> values = {0.0,    -0.0,        1.0 / 3.0,
                                      1e-308, 1.7976e308,  -123.456789012345678,
                                      5e-324, 0.1 + 0.2};
  FieldWriter w;
  for (const double v : values) w.f(v);
  w.u(18446744073709551615ull);
  FieldParser p(w.str());
  for (const double v : values) {
    const double got = p.f();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0) << "value " << v;
  }
  EXPECT_EQ(p.u(), 18446744073709551615ull);
  p.finish();
}

TEST(FieldCodec, MalformedPayloadsThrow) {
  EXPECT_THROW(FieldParser("").f(), std::runtime_error);
  EXPECT_THROW(FieldParser("notanumber").f(), std::runtime_error);
  EXPECT_THROW(FieldParser("1.5x").f(), std::runtime_error);
  EXPECT_THROW(FieldParser("-3").u(), std::runtime_error);
  FieldParser trailing("1 2");
  trailing.f();
  EXPECT_THROW(trailing.finish(), std::runtime_error);
}

// -- journaled_map ------------------------------------------------------------

std::vector<std::string> toy_cells(std::size_t n) {
  std::vector<std::string> cells;
  for (std::size_t i = 0; i < n; ++i) {
    cells.push_back("toy|i=" + std::to_string(i));
  }
  return cells;
}

TEST(JournaledMap, DisabledJournalRunsEverything) {
  SweepJournal journal;  // never opened
  std::atomic<int> runs{0};
  const auto sweep = journaled_map<double>(
      journal, toy_cells(8),
      [&](std::size_t i, int) {
        runs.fetch_add(1);
        return static_cast<double>(i) * 1.5;
      },
      [](double v) { return FieldWriter().f(v).str(); },
      [](FieldParser& p) { return p.f(); });
  EXPECT_EQ(runs.load(), 8);
  EXPECT_EQ(sweep.stats.reused, 0u);
  EXPECT_EQ(sweep.stats.executed, 8u);
  ASSERT_EQ(sweep.rows.size(), 8u);
  EXPECT_EQ(sweep.rows[5], 7.5);
}

TEST(JournaledMap, ResumeSkipsCompletedAndRerunsQuarantined) {
  const std::string path = temp_path("journal_resume.txt");
  const auto cells = toy_cells(8);
  const auto encode = [](double v) { return FieldWriter().f(v).str(); };
  const auto decode = [](FieldParser& p) { return p.f(); };

  // First pass: cell 3 fails on every attempt and is quarantined.
  {
    SweepJournal journal;
    journal.open(path, false);
    const auto sweep = journaled_map<double>(
        journal, cells,
        [&](std::size_t i, int) -> double {
          if (i == 3) throw std::runtime_error("cell 3 diverged");
          return static_cast<double>(i) * 10.0;
        },
        encode, decode, par::FaultPolicy{2});
    EXPECT_EQ(sweep.stats.executed, 7u);
    EXPECT_EQ(sweep.stats.quarantined, 1u);
    ASSERT_EQ(sweep.report.failures.size(), 1u);
    EXPECT_EQ(sweep.report.failures[0].index, 3u);  // grid index, remapped
    EXPECT_EQ(sweep.report.failures[0].attempts, 2);
  }

  // Resume: the 7 completed cells load from the journal; only the
  // quarantined cell runs again (and succeeds this time).
  {
    SweepJournal journal;
    journal.open(path, true);
    std::atomic<int> runs{0};
    const auto sweep = journaled_map<double>(
        journal, cells,
        [&](std::size_t i, int) {
          runs.fetch_add(1);
          return static_cast<double>(i) * 10.0;
        },
        encode, decode, par::FaultPolicy{2});
    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(sweep.stats.reused, 7u);
    EXPECT_EQ(sweep.stats.executed, 1u);
    EXPECT_EQ(sweep.stats.quarantined, 0u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(sweep.rows[i], static_cast<double>(i) * 10.0) << i;
    }
  }

  // Third pass: everything is journaled now, nothing runs.
  {
    SweepJournal journal;
    journal.open(path, true);
    std::atomic<int> runs{0};
    const auto sweep = journaled_map<double>(
        journal, cells,
        [&](std::size_t i, int) {
          runs.fetch_add(1);
          return static_cast<double>(i) * 10.0;
        },
        encode, decode);
    EXPECT_EQ(runs.load(), 0);
    EXPECT_EQ(sweep.stats.reused, 8u);
  }
}

TEST(JournaledMap, RetryAttemptIsVisibleToTheTask) {
  SweepJournal journal;
  std::vector<int> seen;
  const auto sweep = journaled_map<double>(
      journal, toy_cells(1),
      [&](std::size_t, int attempt) -> double {
        seen.push_back(attempt);
        if (attempt == 0) throw std::runtime_error("first try fails");
        return 1.0;
      },
      [](double v) { return FieldWriter().f(v).str(); },
      [](FieldParser& p) { return p.f(); }, par::FaultPolicy{3}, 1);
  EXPECT_EQ(seen, (std::vector<int>{0, 1}));
  EXPECT_TRUE(sweep.report.all_ok());
  EXPECT_EQ(sweep.report.retries, 1u);
  EXPECT_EQ(sweep.report.failed_attempts, 1u);
}

TEST(JournaledMap, MalformedJournalPayloadForcesRecompute) {
  const std::string path = temp_path("journal_badpayload.txt");
  const auto cells = toy_cells(2);
  {
    SweepJournal writer;
    writer.open(path, false);
    writer.record(writer.key(cells[0]), true, "3.25");
    writer.record(writer.key(cells[1]), true, "not a double");
  }

  SweepJournal journal;
  journal.open(path, true);
  std::atomic<int> runs{0};
  const auto sweep = journaled_map<double>(
      journal, cells,
      [&](std::size_t, int) {
        runs.fetch_add(1);
        return 9.0;
      },
      [](double v) { return FieldWriter().f(v).str(); },
      [](FieldParser& p) { return p.f(); });
  EXPECT_EQ(runs.load(), 1);  // only the malformed cell recomputes
  EXPECT_EQ(sweep.rows[0], 3.25);
  EXPECT_EQ(sweep.rows[1], 9.0);
}

}  // namespace
}  // namespace ecnd
