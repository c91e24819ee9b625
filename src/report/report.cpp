#include "report/report.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

namespace ecnd::report {

namespace {

std::string format_value(std::optional<double> v) {
  if (!v) return "—";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", *v);
  return buf;
}

std::string format_range(std::optional<double> lo, std::optional<double> hi) {
  char buf[96];
  if (lo && hi) {
    std::snprintf(buf, sizeof(buf), "[%.6g, %.6g]", *lo, *hi);
  } else if (lo) {
    std::snprintf(buf, sizeof(buf), ">= %.6g", *lo);
  } else if (hi) {
    std::snprintf(buf, sizeof(buf), "<= %.6g", *hi);
  } else {
    return "(any)";
  }
  return buf;
}

const char* status_marker(Status s) {
  switch (s) {
    case Status::kPass: return "✅ pass";
    case Status::kWarn: return "⚠️ warn";
    case Status::kFail: return "❌ FAIL";
  }
  return "?";
}

/// One expectation entry vs a (possibly missing) measured value.
Finding check_observable(const std::string& tool, const std::string& name,
                         const Json& spec, const Json* measured) {
  Finding f;
  f.tool = tool;
  f.name = name;
  if (const auto claim = spec.get_string("claim")) f.note = *claim;

  const Json* equals = spec.get("equals");
  const std::optional<double> min = spec.get_number("min");
  const std::optional<double> max = spec.get_number("max");
  const std::optional<double> warn_min = spec.get_number("warn_min");
  const std::optional<double> warn_max = spec.get_number("warn_max");

  if (equals != nullptr) {
    f.expected = "== " + std::string(equals->is_bool()
                                         ? (equals->boolean() ? "true" : "false")
                                         : format_value(equals->number()));
  } else {
    // Show both bands: the hard range fails, the soft band merely warns —
    // a warn line must say which one the value escaped.
    f.expected = format_range(min, max);
    if (warn_min || warn_max) {
      f.expected += ", soft " + format_range(warn_min, warn_max);
    }
  }

  if (measured == nullptr || measured->is_null()) {
    f.status = Status::kFail;
    f.note = (measured == nullptr ? "observable missing from manifest"
                                  : "observable is null (analyzer undefined)") +
             (f.note.empty() ? "" : "; claim: " + f.note);
    return f;
  }

  if (equals != nullptr) {
    bool match = false;
    if (equals->is_bool() && measured->is_bool()) {
      match = equals->boolean() == measured->boolean();
    } else if (equals->is_number() && measured->is_number()) {
      match = equals->number() == measured->number();
    }
    if (measured->is_number()) f.value = measured->number();
    if (measured->is_bool()) f.value = measured->boolean() ? 1.0 : 0.0;
    f.status = match ? Status::kPass : Status::kFail;
    return f;
  }

  if (!measured->is_number()) {
    f.status = Status::kFail;
    f.note = "observable is not numeric" +
             (f.note.empty() ? "" : "; claim: " + f.note);
    return f;
  }
  const double v = measured->number();
  f.value = v;
  if (!std::isfinite(v) || (min && v < *min) || (max && v > *max)) {
    f.status = Status::kFail;
    f.note = "outside hard range " + format_range(min, max) +
             (f.note.empty() ? "" : "; claim: " + f.note);
  } else if ((warn_min && v < *warn_min) || (warn_max && v > *warn_max)) {
    f.status = Status::kWarn;
    f.note = "outside soft range " + format_range(warn_min, warn_max) +
             ", inside hard range " + format_range(min, max) +
             (f.note.empty() ? "" : "; claim: " + f.note);
  } else {
    f.status = Status::kPass;
  }
  return f;
}

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kPass: return "pass";
    case Status::kWarn: return "warn";
    case Status::kFail: return "fail";
  }
  return "?";
}

int Report::count(Status s) const {
  int n = 0;
  for (const Finding& f : observables) n += f.status == s;
  return n;
}

bool Report::ok() const { return count(Status::kFail) == 0; }

Report evaluate(const Json& expectations, const std::vector<Json>& manifests) {
  Report report;

  // Index manifests by their tool name; last one wins (a re-run overwrote
  // the file anyway).
  std::map<std::string, const Json*> by_tool;
  for (const Json& m : manifests) {
    const auto schema = m.get_string("schema");
    const auto tool = m.get_string("tool");
    if (!schema || *schema != "ecnd-manifest-v1" || !tool) continue;
    by_tool[*tool] = &m;
  }

  const Json* tools = expectations.get("tools");
  if (tools != nullptr && tools->is_object()) {
    for (const auto& [tool, spec] : tools->object()) {
      const Json* manifest =
          by_tool.count(tool) != 0 ? by_tool.at(tool) : nullptr;
      const Json* observables = spec.get("observables");
      if (observables == nullptr || !observables->is_object()) continue;
      if (manifest == nullptr) {
        Finding f;
        f.tool = tool;
        f.name = "(manifest)";
        f.status = Status::kFail;
        f.expected = "manifest present";
        f.note = "no manifest for this tool — did the harness run with "
                 "ECND_RUN_DIR?";
        report.observables.push_back(std::move(f));
        continue;
      }
      const Json* measured_map = manifest->get("observables");
      for (const auto& [name, entry] : observables->object()) {
        const Json* measured =
            measured_map != nullptr ? measured_map->get(name) : nullptr;
        report.observables.push_back(
            check_observable(tool, name, entry, measured));
      }
    }
  }
  return report;
}

void write_markdown(const Report& report, const std::string& meta,
                    std::ostream& out) {
  out << "# ecnd regression report\n\n";
  if (!meta.empty()) out << "_" << meta << "_\n\n";

  out << "## Observable expectations\n\n";
  if (report.observables.empty()) {
    out << "(no expectations evaluated)\n";
  } else {
    out << "| status | tool | observable | value | expected | note |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const Finding& f : report.observables) {
      out << "| " << status_marker(f.status) << " | " << f.tool << " | `"
          << f.name << "` | " << format_value(f.value) << " | " << f.expected
          << " | " << f.note << " |\n";
    }
  }

  out << "\n## Summary\n\n";
  out << "**" << report.count(Status::kPass) << " pass, "
      << report.count(Status::kWarn) << " warn, "
      << report.count(Status::kFail) << " fail** — "
      << (report.ok() ? "gate PASSES" : "gate FAILS") << "\n";
}

}  // namespace ecnd::report
