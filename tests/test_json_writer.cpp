// The shared JSON writer (core/json_writer.hpp) and the environment-knob
// parsers (core/env_knob.hpp). Every writer output is round-tripped through
// report::Json, the repo's one parser.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>

#include "core/env_knob.hpp"
#include "core/json_writer.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "report/json.hpp"

namespace ecnd {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(JsonWriter, QuoteEscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(json::quote("plain"), "\"plain\"");
  EXPECT_EQ(json::quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json::quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json::quote("l1\nl2\tx\r"), "\"l1\\nl2\\tx\\r\"");
  EXPECT_EQ(json::quote(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(json::quote("µs"), "\"µs\"");  // UTF-8 passes through

  const std::string nasty = std::string("q\" b\\ n\n t\t c\x02 end", 18);
  const report::Json parsed =
      report::Json::parse("{\"k\": " + json::quote(nasty) + "}");
  EXPECT_EQ(parsed.get_string("k").value(), nasty);
}

TEST(JsonWriter, NumbersRoundTripAndNonFiniteRendersAsNull) {
  EXPECT_EQ(json::number(0.1), "0.1");
  EXPECT_EQ(json::number(12.375), "12.375");
  EXPECT_EQ(json::number(1e-300), "1e-300");
  EXPECT_EQ(json::number(-2.5), "-2.5");
  EXPECT_EQ(json::number(kNan), "null");
  EXPECT_EQ(json::number(kInf), "null");
  EXPECT_EQ(json::number(-kInf), "null");
  const double third = 1.0 / 3.0;
  EXPECT_EQ(report::Json::parse(json::number(third)).number(), third);
}

TEST(JsonWriter, ChromeTraceFixedFormats) {
  EXPECT_EQ(json::trace_us(1.5), "1.500000");
  EXPECT_EQ(json::trace_us(0.0), "0.000000");
  EXPECT_EQ(json::trace_value(1.0 / 3.0), "0.333333333");
  EXPECT_EQ(json::trace_value(123456789012.0), "1.23456789e+11");
  EXPECT_EQ(json::trace_us(kNan), "null");
  EXPECT_EQ(json::trace_value(-kInf), "null");
}

TEST(JsonWriter, WriteFileNamesTheKnobWhenThePathCannotBeOpened) {
  bool called = false;
  testing::internal::CaptureStderr();
  const bool ok = json::write_file("/nonexistent-dir/x.json", "ECND_TEST",
                                   [&](std::ostream&) { called = true; });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(called);
  EXPECT_EQ(err, "[obs] cannot open ECND_TEST path /nonexistent-dir/x.json\n");
}

TEST(JsonWriter, WriteFileReportsAFailedWriteAsFailure) {
  // /dev/full opens fine and fails every write: the bytes sit in the stream
  // buffer until the flush, so only a check after flushing can see it.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  testing::internal::CaptureStderr();
  const auto nine_bytes = [](std::ostream& out) { out << "{\"a\": 1}\n"; };
  const bool ok = json::write_file("/dev/full", "ECND_TEST", nine_bytes);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(ok);
  EXPECT_EQ(err, "[obs] cannot write ECND_TEST path /dev/full\n");
}

#if !defined(ECND_OBS_DISABLED)

TEST(JsonWriter, FlightPostcardWithNonFiniteMarkProbabilityStaysValidJson) {
  obs::set_flight_enabled(true);
  obs::reset();
  obs::FlightHop hop;
  hop.flow_id = 7;
  hop.port = "sw0:p1";
  hop.mark_prob = kNan;
  obs::flight_record_hop(hop);
  std::ostringstream out;
  obs::write_flight_postcards_json(out);
  obs::set_flight_enabled(false);
  obs::reset();

  const report::Json doc = report::Json::parse(out.str());
  const report::Json& record = doc.get("tasks")->array().at(0).get("records")
                                   ->array().at(0);
  EXPECT_TRUE(record.get("mark_p")->is_null()) << out.str();
}

#endif  // !ECND_OBS_DISABLED

TEST(EnvKnob, CountAcceptsOnlyWholePositiveDigits) {
  testing::internal::CaptureStderr();
  EXPECT_EQ(env::parse_count("ECND_TEST", "12").value(), 12u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  for (const char* bad : {"-1", "abc", "12x", "0", "", "nan", "+3", " 4",
                          "99999999999999999999999"}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(env::parse_count("ECND_TEST", bad).has_value()) << bad;
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              std::string("[env] ignoring ECND_TEST=\"") + bad +
                  "\": expected a whole number >= 1\n");
  }
}

TEST(EnvKnob, RunDetailNamesALevelAndNeedsARunDirectory) {
  using env::RunDetail;
  testing::internal::CaptureStderr();
  EXPECT_EQ(env::parse_detail("d", nullptr), RunDetail::kBasic);
  EXPECT_EQ(env::parse_detail(nullptr, nullptr), RunDetail::kBasic);
  EXPECT_EQ(env::parse_detail("d", "basic"), RunDetail::kBasic);
  EXPECT_EQ(env::parse_detail("d", "trace"), RunDetail::kTrace);
  EXPECT_EQ(env::parse_detail("d", "flight"), RunDetail::kFlight);
  EXPECT_EQ(env::parse_detail("d", "prof"), RunDetail::kProf);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  for (const char* bad : {"", "x", "Prof", "prof ", "3"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(env::parse_detail("d", bad), RunDetail::kBasic) << bad;
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              std::string("[env] ignoring ECND_RUN_DETAIL=\"") + bad +
                  "\": expected basic|trace|flight|prof\n");
  }
  testing::internal::CaptureStderr();
  EXPECT_EQ(env::parse_detail(nullptr, "prof"), RunDetail::kBasic);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[env] ignoring ECND_RUN_DETAIL=\"prof\": expected ECND_RUN_DIR "
            "to be set too\n");
}

TEST(EnvKnob, QuickIsOnOnlyForOne) {
  testing::internal::CaptureStderr();
  EXPECT_TRUE(env::parse_quick("1"));
  EXPECT_FALSE(env::parse_quick("0"));
  EXPECT_FALSE(env::parse_quick(nullptr));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  for (const char* bad : {"", "yes", "true", "2", "01", " 1"}) {
    testing::internal::CaptureStderr();
    EXPECT_FALSE(env::parse_quick(bad)) << bad;
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              std::string("[env] ignoring ECND_QUICK=\"") + bad +
                  "\": expected 0 or 1\n");
  }
}

TEST(EnvKnob, UnknownKnobsAreReportedByName) {
  // A knob the tree does not read, such as one from an older shell
  // (ECND_METRICS), would otherwise silently record nothing.
  const char* const envp[] = {
      "ECND_METRICS=m.json", "ECND_RUN_DIR=run", "ECND_RUN_DETAIL=prof",
      "HOME=/home/x",        "ECND_THREADS=4",   "ECND_FLIGHT_SAMPLE=4",
      "ECND_QUICK",          "ECND_JOURNAL=j",   "ECND_GIT_SHA=abc",
      "ECND_BENCH_JSON=b",   "XECND_TRACE=t",    "ECND_RUN_DIRX=1",
      nullptr};
  testing::internal::CaptureStderr();
  env::warn_unknown_knobs(envp);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[env] ignoring unknown knob ECND_METRICS\n"
            "[env] ignoring unknown knob ECND_FLIGHT_SAMPLE\n"
            "[env] ignoring unknown knob ECND_BENCH_JSON\n"
            "[env] ignoring unknown knob ECND_RUN_DIRX\n");
}

}  // namespace
}  // namespace ecnd
