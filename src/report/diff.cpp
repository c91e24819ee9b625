#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "report/json.hpp"

namespace ecnd::report {
namespace {

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string format_pct(double rel) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.2f%%", rel * 100.0);
  return buf;
}

/// Relative change used for ranking and tolerance checks: symmetric in the
/// operands' magnitudes so a change from 0 to anything is 100%, never inf.
double rel_change(double a, double b) {
  const double denom = std::max({std::fabs(a), std::fabs(b), 1e-300});
  return std::fabs(b - a) / denom;
}

struct LoadedArtifact {
  std::string kind;
  Json json;
};

LoadedArtifact load_artifact(const std::string& path) {
  LoadedArtifact art;
  art.json = Json::parse_file(path);
  const auto schema = art.json.get_string("schema");
  if (!schema) throw std::runtime_error(path + ": no \"schema\" field");
  if (*schema == "ecnd-manifest-v1") art.kind = "manifest";
  if (*schema == "ecnd-metrics-v1") art.kind = "metrics";
  if (*schema == "ecnd-metrics-ts-v1") art.kind = "metrics_ts";
  if (art.kind.empty()) {
    throw std::runtime_error(path + ": unrecognized schema \"" + *schema + "\"");
  }
  return art;
}

void add_structural(DiffResult& out, std::string key, std::string a,
                    std::string b, std::string note) {
  out.entries.push_back({DiffSeverity::kStructural, std::move(key),
                         std::move(a), std::move(b), 0.0, std::move(note)});
}

/// Numeric drift, honoring the suppression tolerance.
void add_numeric(DiffResult& out, std::string key, double a, double b,
                 std::string note = {}) {
  const double rel = rel_change(a, b);
  if (rel <= out.tolerance) {
    ++out.suppressed;
    return;
  }
  if (note.empty()) note = format_pct((b - a) / std::max({std::fabs(a), std::fabs(b), 1e-300}));
  out.entries.push_back({DiffSeverity::kNumeric, std::move(key),
                         format_value(a), format_value(b), rel,
                         std::move(note)});
}

void rank_entries(DiffResult& out) {
  std::stable_sort(out.entries.begin(), out.entries.end(),
                   [](const DiffEntry& x, const DiffEntry& y) {
                     if (x.severity != y.severity) {
                       return static_cast<int>(x.severity) >
                              static_cast<int>(y.severity);
                     }
                     return x.rel > y.rel;
                   });
}

// -- manifest ---------------------------------------------------------------

/// Compare two flat JSON objects whose values may be numbers, strings,
/// bools or nulls (manifest params/observables after rendering).
void diff_flat_section(DiffResult& out, const char* section, const Json* a,
                       const Json* b) {
  const Json::Object empty;
  const Json::Object& oa = a != nullptr && a->is_object() ? a->object() : empty;
  const Json::Object& ob = b != nullptr && b->is_object() ? b->object() : empty;
  for (const auto& [key, va] : oa) {
    const std::string label = std::string(section) + "." + key;
    const auto it = ob.find(key);
    if (it == ob.end()) {
      add_structural(out, label, "present", "—", "only in A");
      continue;
    }
    const Json& vb = it->second;
    if (va.kind() != vb.kind()) {
      add_structural(out, label, "kind " + std::to_string(static_cast<int>(va.kind())),
                     "kind " + std::to_string(static_cast<int>(vb.kind())),
                     "value kind changed");
      continue;
    }
    switch (va.kind()) {
      case Json::Kind::kNumber:
        if (va.number() != vb.number()) {
          add_numeric(out, label, va.number(), vb.number());
        }
        break;
      case Json::Kind::kString:
        if (va.str() != vb.str()) {
          out.entries.push_back({DiffSeverity::kNumeric, label, va.str(),
                                 vb.str(), 0.0, "string changed"});
        }
        break;
      case Json::Kind::kBool:
        if (va.boolean() != vb.boolean()) {
          out.entries.push_back({DiffSeverity::kNumeric, label,
                                 va.boolean() ? "true" : "false",
                                 vb.boolean() ? "true" : "false", 0.0,
                                 "flag flipped"});
        }
        break;
      default:
        break;  // null == null
    }
  }
  for (const auto& [key, vb] : ob) {
    if (oa.find(key) == oa.end()) {
      add_structural(out, std::string(section) + "." + key, "—", "present",
                     "only in B");
    }
  }
}

std::string failure_cells(const Json& doc) {
  std::string cells;
  if (const Json* failures = doc.get("failures")) {
    if (failures->is_array()) {
      for (const Json& f : failures->array()) {
        if (!cells.empty()) cells += ", ";
        cells += f.get_string("cell").value_or("?");
      }
    }
  }
  return cells;
}

void diff_manifest(DiffResult& out, const Json& a, const Json& b) {
  const std::string tool_a = a.get_string("tool").value_or("");
  const std::string tool_b = b.get_string("tool").value_or("");
  if (tool_a != tool_b) {
    add_structural(out, "tool", tool_a, tool_b,
                   "manifests from different tools");
  }
  diff_flat_section(out, "params", a.get("params"), b.get("params"));
  diff_flat_section(out, "observables", a.get("observables"),
                    b.get("observables"));
  const std::string fail_a = failure_cells(a);
  const std::string fail_b = failure_cells(b);
  if (fail_a != fail_b) {
    add_structural(out, "failures", fail_a.empty() ? "none" : fail_a,
                   fail_b.empty() ? "none" : fail_b,
                   "quarantined cells changed");
  }
  const std::string dig_a = a.get_string("metrics_digest").value_or("");
  const std::string dig_b = b.get_string("metrics_digest").value_or("");
  if (dig_a != dig_b && !dig_a.empty() && !dig_b.empty()) {
    out.context.push_back("metrics digests differ (" + dig_a + " vs " + dig_b +
                          "): the underlying metric streams diverged even "
                          "where observables agree");
  }
}

// -- metrics dump -----------------------------------------------------------

void diff_number_map(DiffResult& out, const std::string& prefix, const Json* a,
                     const Json* b) {
  const Json::Object empty;
  const Json::Object& oa = a != nullptr && a->is_object() ? a->object() : empty;
  const Json::Object& ob = b != nullptr && b->is_object() ? b->object() : empty;
  for (const auto& [key, va] : oa) {
    const auto it = ob.find(key);
    if (it == ob.end()) {
      add_structural(out, prefix + key, format_value(va.number()), "—",
                     "metric removed");
    } else if (va.number() != it->second.number()) {
      add_numeric(out, prefix + key, va.number(), it->second.number());
    }
  }
  for (const auto& [key, vb] : ob) {
    if (oa.find(key) == oa.end()) {
      add_structural(out, prefix + key, "—", format_value(vb.number()),
                     "metric added");
    }
  }
}

void diff_metrics(DiffResult& out, const Json& a, const Json& b) {
  diff_number_map(out, "", a.get("counters"), b.get("counters"));
  diff_number_map(out, "", a.get("gauges"), b.get("gauges"));
  // Histograms: compare the scalar summary fields; the bucket vectors add
  // noise without localizing anything the scalars don't.
  const Json::Object empty;
  const Json* ha = a.get("histograms");
  const Json* hb = b.get("histograms");
  const Json::Object& oa = ha != nullptr && ha->is_object() ? ha->object() : empty;
  const Json::Object& ob = hb != nullptr && hb->is_object() ? hb->object() : empty;
  for (const auto& [key, va] : oa) {
    const auto it = ob.find(key);
    if (it == ob.end()) {
      add_structural(out, key, "present", "—", "histogram removed");
      continue;
    }
    for (const char* field : {"count", "sum", "p50", "p99"}) {
      const auto na = va.get_number(field);
      const auto nb = it->second.get_number(field);
      if (na && nb && *na != *nb) {
        add_numeric(out, key + "." + field, *na, *nb);
      }
    }
  }
  for (const auto& [key, vb] : ob) {
    if (oa.find(key) == oa.end()) {
      add_structural(out, key, "—", "present", "histogram added");
    }
  }
}

// -- metrics time-series ----------------------------------------------------

/// The per-series value column: "cum" for counters, "values" for gauges.
const Json* series_column(const Json& series) {
  const Json* col = series.get("cum");
  return col != nullptr ? col : series.get("values");
}

void diff_series(DiffResult& out, std::uint32_t task, const std::string& name,
                 const Json& times_a, const Json& sa, const Json& sb) {
  const Json* ca = series_column(sa);
  const Json* cb = series_column(sb);
  if (ca == nullptr || cb == nullptr) return;
  const Json::Array& va = ca->array();
  const Json::Array& vb = cb->array();
  const Json::Array& ts = times_a.array();
  const std::size_t n = std::min(va.size(), vb.size());
  const std::string label = "task " + std::to_string(task) + " " + name;
  for (std::size_t i = 0; i < n; ++i) {
    if (va[i].number() != vb[i].number()) {
      const double t = i < ts.size() ? ts[i].number() : 0.0;
      add_numeric(out, label, va[i].number(), vb[i].number(),
                  "first divergence at t=" + format_value(t) + " s (sample " +
                      std::to_string(i) + ")");
      return;
    }
  }
  if (va.size() != vb.size()) {
    add_structural(out, label, std::to_string(va.size()) + " samples",
                   std::to_string(vb.size()) + " samples",
                   "series lengths differ (identical up to the shorter)");
  }
}

/// The tasks of a metrics_ts file by id. An id is an obs::TaskScope index:
/// an integer in [0, 2^32) that appears once per file. Anything else makes
/// the file unparseable, since pairing tasks across files needs exact ids.
std::map<std::uint32_t, const Json*> tasks_by_id(const Json& doc,
                                                 const std::string& path) {
  std::map<std::uint32_t, const Json*> tasks;
  const Json* arr = doc.get("tasks");
  if (arr == nullptr || !arr->is_array()) return tasks;
  for (const Json& t : arr->array()) {
    const std::optional<double> id = t.get_number("task");
    if (!id || !(*id >= 0.0 && *id < 4294967296.0 && *id == std::floor(*id))) {
      throw std::runtime_error(path +
                               ": a task id must be an integer in [0, 2^32)");
    }
    const auto task = static_cast<std::uint32_t>(*id);
    if (!tasks.emplace(task, &t).second) {
      throw std::runtime_error(path + ": task " + std::to_string(task) +
                               " appears twice");
    }
  }
  return tasks;
}

void diff_metrics_ts(DiffResult& out, const Json& a, const Json& b) {
  const auto ia = a.get_number("interval_s");
  const auto ib = b.get_number("interval_s");
  if (ia && ib && *ia != *ib) {
    add_structural(out, "interval_s", format_value(*ia), format_value(*ib),
                   "sampling intervals differ; timestamps are not comparable");
    return;
  }
  const auto tasks_a = tasks_by_id(a, out.path_a);
  const auto tasks_b = tasks_by_id(b, out.path_b);
  for (const auto& [id, ta] : tasks_a) {
    const auto it = tasks_b.find(id);
    if (it == tasks_b.end()) {
      add_structural(out, "task " + std::to_string(id), "present", "—",
                     "task only in A");
      continue;
    }
    const Json* times = ta->get("t_s");
    if (times == nullptr) continue;
    // Index series by name per task.
    std::map<std::string, const Json*> sa, sb;
    if (const Json* s = ta->get("series")) {
      for (const Json& x : s->array()) sa[x.get_string("name").value_or("")] = &x;
    }
    if (const Json* s = it->second->get("series")) {
      for (const Json& x : s->array()) sb[x.get_string("name").value_or("")] = &x;
    }
    for (const auto& [name, xa] : sa) {
      const auto itb = sb.find(name);
      if (itb == sb.end()) {
        add_structural(out, "task " + std::to_string(id) + " " + name,
                       "present", "—", "series only in A");
      } else {
        diff_series(out, id, name, *times, *xa, *itb->second);
      }
    }
    for (const auto& [name, xb] : sb) {
      if (sa.find(name) == sa.end()) {
        add_structural(out, "task " + std::to_string(id) + " " + name, "—",
                       "present", "series only in B");
      }
    }
  }
  for (const auto& [id, tb] : tasks_b) {
    if (tasks_a.find(id) == tasks_a.end()) {
      add_structural(out, "task " + std::to_string(id), "—", "present",
                     "task only in B");
    }
  }
}

}  // namespace

DiffSeverity DiffResult::severity() const {
  DiffSeverity worst = DiffSeverity::kNone;
  for (const DiffEntry& e : entries) {
    if (static_cast<int>(e.severity) > static_cast<int>(worst)) {
      worst = e.severity;
    }
  }
  return worst;
}

std::string detect_artifact(const std::string& path) {
  return load_artifact(path).kind;
}

DiffResult diff_artifacts(const std::string& path_a, const std::string& path_b,
                          double tolerance) {
  DiffResult out;
  out.path_a = path_a;
  out.path_b = path_b;
  out.tolerance = tolerance;
  const LoadedArtifact a = load_artifact(path_a);
  const LoadedArtifact b = load_artifact(path_b);
  if (a.kind != b.kind) {
    out.kind = a.kind + " vs " + b.kind;
    add_structural(out, "schema", a.kind, b.kind,
                   "artifacts are of different kinds");
    return out;
  }
  out.kind = a.kind;
  if (a.kind == "manifest") {
    diff_manifest(out, a.json, b.json);
  } else if (a.kind == "metrics") {
    diff_metrics(out, a.json, b.json);
  } else {
    diff_metrics_ts(out, a.json, b.json);
  }
  rank_entries(out);
  return out;
}

void write_markdown(std::ostream& out, const DiffResult& result) {
  out << "# ecnd-diff: " << result.kind << "\n\n";
  out << "- A: `" << result.path_a << "`\n";
  out << "- B: `" << result.path_b << "`\n";
  if (result.tolerance > 0.0) {
    out << "- tolerance: " << format_value(result.tolerance * 100.0) << "% ("
        << result.suppressed << " drift(s) suppressed)\n";
  }
  for (const std::string& line : result.context) out << "- " << line << "\n";
  out << "\n";
  if (result.entries.empty()) {
    out << "No differences";
    if (result.suppressed > 0) out << " above the tolerance";
    out << ".\n";
    return;
  }
  out << "| kind | key | A | B | note |\n";
  out << "|------|-----|---|---|------|\n";
  for (const DiffEntry& e : result.entries) {
    out << "| "
        << (e.severity == DiffSeverity::kStructural ? "structural" : "drift")
        << " | " << e.key << " | " << e.a << " | " << e.b << " | " << e.note
        << " |\n";
  }
  out << "\n" << result.entries.size() << " difference(s), worst: "
      << (result.severity() == DiffSeverity::kStructural ? "structural"
                                                         : "drift")
      << ".\n";
}

}  // namespace ecnd::report
