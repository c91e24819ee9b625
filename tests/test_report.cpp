// Regression reporter (src/report): JSON parser round-trips the formats the
// repo emits, and evaluate() implements the documented pass/warn/fail
// semantics — missing or null observables fail (a gate that cannot measure is
// broken, not green) and soft ranges warn.

#include "report/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "report/json.hpp"

namespace ecnd::report {
namespace {

// --- Json parser -------------------------------------------------------------

TEST(Json, ParsesScalarsAndContainers) {
  const Json j = Json::parse(
      R"({"a": 1.5, "b": "text", "c": true, "d": null, "e": [1, 2, 3]})");
  ASSERT_TRUE(j.is_object());
  EXPECT_DOUBLE_EQ(j.get_number("a").value(), 1.5);
  EXPECT_EQ(j.get_string("b").value(), "text");
  EXPECT_TRUE(j.get("c")->boolean());
  EXPECT_TRUE(j.get("d")->is_null());
  ASSERT_TRUE(j.get("e")->is_array());
  EXPECT_EQ(j.get("e")->array().size(), 3u);
  EXPECT_EQ(j.get("missing"), nullptr);
}

TEST(Json, ParsesEscapesAndNegativeExponents) {
  const Json j = Json::parse(R"({"s": "a\"b\né", "n": -1.5e-3})");
  EXPECT_EQ(j.get_string("s").value(), "a\"b\n\xC3\xA9");
  EXPECT_DOUBLE_EQ(j.get_number("n").value(), -1.5e-3);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1, 2] trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), std::runtime_error);
}

TEST(Json, ErrorsCarryPosition) {
  try {
    Json::parse("{\n  \"a\": bogus\n}");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, RejectsDuplicateObjectKeysWithPosition) {
  // Last-key-wins would silently gate regressions against data the writer
  // never produced; a duplicate means corruption and must be loud.
  try {
    Json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate object key \"a\""), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  // Same key in *different* objects is fine.
  EXPECT_NO_THROW(Json::parse(R"({"o1": {"a": 1}, "o2": {"a": 2}})"));
}

TEST(Json, RejectsTruncatedInput) {
  // A half-written manifest (crash mid-dump) must be a parse error, never a
  // partial document.
  EXPECT_THROW(Json::parse(R"({"a": 1, "b")"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a": "unterminated)"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"([1, 2,)"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("-"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a": 1)"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
}

TEST(Json, DepthCapStopsPathologicalNesting) {
  // ~300 unclosed arrays: must fail with a diagnostic, not a stack overflow.
  std::string deep(300, '[');
  EXPECT_THROW(Json::parse(deep), std::runtime_error);
  try {
    Json::parse(deep);
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos);
  }

  // 100 levels is legal and must still parse.
  std::string ok(100, '[');
  ok += "1";
  ok.append(100, ']');
  EXPECT_NO_THROW(Json::parse(ok));
}

// --- evaluate() --------------------------------------------------------------

Json expectations() {
  return Json::parse(R"({
    "schema": "ecnd-expectations-v1",
    "tools": {
      "figX": {
        "observables": {
          "in_range":  {"min": 0.0, "max": 10.0},
          "soft":      {"min": 0.0, "max": 10.0, "warn_min": 4.0},
          "too_big":   {"min": 0.0, "max": 1.0},
          "absent":    {"min": 0.0, "max": 1.0},
          "undefined": {"min": 0.0, "max": 1.0},
          "flag":      {"equals": true}
        }
      }
    }
  })");
}

Json manifest() {
  return Json::parse(R"({
    "schema": "ecnd-manifest-v1",
    "tool": "figX",
    "observables": {
      "in_range": 5.0,
      "soft": 2.0,
      "too_big": 7.0,
      "undefined": null,
      "flag": true
    }
  })");
}

const Finding& find(const Report& r, const std::string& name) {
  for (const Finding& f : r.observables) {
    if (f.name == name) return f;
  }
  throw std::runtime_error("no finding named " + name);
}

TEST(Evaluate, StatusSemantics) {
  const Report r =
      evaluate(expectations(), {manifest()});
  EXPECT_EQ(find(r, "in_range").status, Status::kPass);
  EXPECT_EQ(find(r, "soft").status, Status::kWarn);     // inside hard, below warn_min
  EXPECT_EQ(find(r, "too_big").status, Status::kFail);  // outside hard range
  EXPECT_EQ(find(r, "absent").status, Status::kFail);   // not in the manifest
  EXPECT_EQ(find(r, "undefined").status, Status::kFail);  // JSON null
  EXPECT_EQ(find(r, "flag").status, Status::kPass);     // equals matched
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.count(Status::kFail), 3);
}

TEST(Evaluate, MissingManifestIsOneFailure) {
  const Report r = evaluate(expectations(), {});
  ASSERT_EQ(r.observables.size(), 1u);
  EXPECT_EQ(r.observables[0].status, Status::kFail);
  EXPECT_EQ(r.observables[0].name, "(manifest)");
}

TEST(Evaluate, NonManifestJsonIsIgnored) {
  const Json stray = Json::parse(R"({"schema": "ecnd-metrics-v1"})");
  const Report with = evaluate(expectations(), {stray, manifest()});
  EXPECT_EQ(find(with, "in_range").status, Status::kPass);
}

TEST(WriteMarkdown, VerdictLineMatchesReport) {
  const Report r =
      evaluate(expectations(), {manifest()});
  std::ostringstream out;
  write_markdown(r, "meta line", out);
  const std::string text = out.str();
  EXPECT_NE(text.find("gate FAILS"), std::string::npos);
  EXPECT_NE(text.find("meta line"), std::string::npos);
  EXPECT_NE(text.find("`too_big`"), std::string::npos);
}

}  // namespace
}  // namespace ecnd::report
