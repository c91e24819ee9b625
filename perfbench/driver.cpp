// Benchmark driver: runs one workload for a time budget and prints one JSON
// result line (see METRICS.md for every metric and why each workload exists).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --reference <reference.json> --trace-dir <dir>
//                    [--git-sha <sha>] [--src-digest <digest>]
//   perfbench_driver --record-reference <reference.json>
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) first repeat the untraced passes for part of the budget, then
// run one pass with spans recorded and the ecnd obs counters armed (exact
// per-pass counts), then more traced passes with the counters disarmed
// (layer times), and report the per-layer metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "report/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Reference outputs exist for this seed only; other seeds get the
/// structural checks (finite outputs, no truncation, no drops, no
/// quarantined cells, identical outputs on every pass).
constexpr std::uint64_t kDefaultSeed = 1;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"run_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"work_per_s", "1/s"},
};

// Every per-layer metric, reported by every workload (0 where the layer does
// no work on that workload).
constexpr MetricDef kPerLayer[] = {
    {"sim.run_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.heap_ns_per_event", "ns"},
    {"sim.heap_ns_per_event_max", "ns"},
    {"sim.pending_p50", "count"},
    {"sim.pending_max", "count"},
    {"sim.events", "count"},
    {"sim.pkt_tx", "count"},
    {"sim.events_per_pkt", "ratio"},
    {"sim.event_pool_reuse_ratio", "ratio"},
    {"sim.late_schedules", "count"},
    {"sim.flow_table_reuse", "count"},
    {"sim.flow_table_active_max", "count"},
    {"sim.ecn_marked", "count"},
    {"sim.pfc_pause_frames", "count"},
    {"sim.ecmp_decisions", "count"},
    {"sim.pkt_tail_dropped", "count"},
    {"sim.topology_ms", "ms"},
    {"proto.cnps", "count"},
    {"proto.acks", "count"},
    {"proto.rate_updates", "count"},
    {"proto.rate_updates_per_pkt", "ratio"},
    {"workload.flows_completed", "count"},
    {"workload.flows_truncated", "count"},
    {"workload.reduce_ms", "ms"},
    {"exp.setup_ms", "ms"},
    {"fluid.step_ns", "ns"},
    {"fluid.rhs_ns_per_flow", "ns"},
    {"fluid.step_rest_ns", "ns"},
    {"fluid.history_ns_per_lookup", "ns"},
    {"fluid.hint_hit_ratio", "ratio"},
    {"fluid.rk4_steps", "count"},
    {"fluid.rhs_evals", "count"},
    {"fluid.delayed_lookups", "count"},
    {"fluid.lookup_clamped", "count"},
    {"fluid.step_retries", "count"},
    {"fluid.model_build_ms", "ms"},
    {"fluid.flow_steps_per_s", "1/s"},
    {"control.fixed_point_us", "us"},
    {"control.linearize_us", "us"},
    {"control.phase_margin_ms_p50", "ms"},
    {"control.phase_margin_ms_p99", "ms"},
    {"control.phase_margin_samples", "count"},
    {"par.tasks", "count"},
    {"par.efficiency", "ratio"},
    {"par.task_max_s", "s"},
    {"sim.self_s", "s"},
    {"proto.self_s", "s"},
    {"workload.self_s", "s"},
    {"exp.self_s", "s"},
    {"fluid.self_s", "s"},
    {"control.self_s", "s"},
    {"core.self_s", "s"},
    {"obs.self_s", "s"},
    {"obs.traced_overhead_frac", "ratio"},
    {"unattributed_frac", "ratio"},
};

// obs registry metric -> reported per-layer name. The host-side protocol
// feedback counters live in sim/host.cpp under sim.* names.
constexpr std::pair<const char*, const char*> kCounterMap[] = {
    {"sim.events", "sim.events"},
    {"sim.pkt_tx", "sim.pkt_tx"},
    {"sim.late_schedules", "sim.late_schedules"},
    {"sim.flow_table_reuse", "sim.flow_table_reuse"},
    {"sim.flow_table_active_max", "sim.flow_table_active_max"},
    {"sim.ecn_marked", "sim.ecn_marked"},
    {"sim.pfc_pause_frames", "sim.pfc_pause_frames"},
    {"sim.ecmp_decisions", "sim.ecmp_decisions"},
    {"sim.pkt_tail_dropped", "sim.pkt_tail_dropped"},
    {"sim.cnps_generated", "proto.cnps"},
    {"sim.acks_generated", "proto.acks"},
    {"sim.rate_updates", "proto.rate_updates"},
    {"workload.flows_truncated", "workload.flows_truncated"},
    {"fluid.rk4_steps", "fluid.rk4_steps"},
    {"fluid.rhs_evals", "fluid.rhs_evals"},
    {"fluid.delayed_lookups", "fluid.delayed_lookups"},
    {"fluid.lookup_clamped", "fluid.lookup_clamped"},
    {"fluid.step_retries", "fluid.step_retries"},
    {"par.tasks", "par.tasks"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0.0;
  int trace = -1;
  std::string reference;
  std::string trace_dir;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  std::string record_reference;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0' || errno != 0 || s[0] == '-') {
    usage(std::string("bad ") + what + ": " + s);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = parse_u64(value, "seed");
    else if (key == "--seconds") a.seconds = static_cast<double>(parse_u64(value, "seconds"));
    else if (key == "--trace") a.trace = static_cast<int>(parse_u64(value, "trace"));
    else if (key == "--reference") a.reference = value;
    else if (key == "--trace-dir") a.trace_dir = value;
    else if (key == "--git-sha") a.git_sha = value;
    else if (key == "--src-digest") a.src_digest = value;
    else if (key == "--record-reference") a.record_reference = value;
    else usage("unknown argument " + key);
  }
  if (!a.record_reference.empty()) return a;
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds < 1.0 || a.seconds > 600.0) usage("--seconds must be in [1, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.reference.empty()) usage("--reference is required");
  return a;
}

/// Why this build must not report, if it must not: timings from Debug,
/// sanitizer or obs-less builds do not compare with the optimized default.
std::vector<std::string> build_problems() {
  std::vector<std::string> problems;
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    problems.push_back("build type is '" + type + "', not Release or RelWithDebInfo");
  }
#if !defined(NDEBUG)
  problems.push_back("assertions are compiled in (NDEBUG unset)");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  problems.push_back("sanitizer build");
#endif
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos) {
    problems.push_back("sanitizer flags in CMAKE_CXX_FLAGS");
  }
#if defined(ECND_OBS_DISABLED)
  problems.push_back("built with -DECND_OBS=OFF");
#endif
  std::ostringstream dump;
  ecnd::obs::dump_metrics_json(dump);
  if (dump.str().find("compiled_out") != std::string::npos) {
    problems.push_back("the ecnd obs layer is compiled out");
  }
  return problems;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Counters and gauges of the obs registry, by name.
std::map<std::string, double> read_counters() {
  std::ostringstream dump;
  ecnd::obs::dump_metrics_json(dump);
  const ecnd::report::Json json = ecnd::report::Json::parse(dump.str());
  std::map<std::string, double> out;
  for (const char* section : {"counters", "gauges"}) {
    if (const ecnd::report::Json* s = json.get(section); s != nullptr && s->is_object()) {
      for (const auto& [name, value] : s->object()) out[name] = value.number();
    }
  }
  return out;
}

/// Outcome of all the passes of one run.
struct Passes {
  // [unit][pass]
  std::vector<std::vector<UnitRun>> runs;
  std::vector<std::size_t> span_begin, span_end;  // per pass (traced only)
  std::size_t count = 0;
};

void run_pass(Workload& wl, Passes& passes, std::uint32_t& op) {
  passes.span_begin.push_back(span_count());
  for (std::size_t u = 0; u < wl.units(); ++u) {
    Span root(Layer::kBench, "unit", -1, op++, 1.0);
    passes.runs[u].push_back(wl.run_unit(u));
  }
  passes.span_end.push_back(span_count());
  ++passes.count;
}

double pass_seconds(const Passes& passes, std::size_t p) {
  double s = 0.0;
  for (const auto& unit : passes.runs) s += unit[p].setup_s + unit[p].run_s;
  return s;
}

/// Runs passes, each followed by `between` (set-up probes), until the next
/// would end after `deadline`; at least one.
template <typename Between>
void run_until(Workload& wl, Passes& passes, std::uint32_t& op, double deadline,
               Between between) {
  std::vector<double> iterations;
  for (;;) {
    const double t0 = now_s();
    run_pass(wl, passes, op);
    std::fprintf(stderr, "pass %zu: %.4f s\n", passes.count - 1,
                 pass_seconds(passes, passes.count - 1));
    between();
    iterations.push_back(now_s() - t0);
    if (now_s() + median(iterations) > deadline) break;
  }
}

/// Σ over units of the median over passes [from, to) of field(run).
template <typename Field>
double sum_of_medians(const Passes& passes, std::size_t from, std::size_t to, Field field) {
  double total = 0.0;
  for (const auto& unit : passes.runs) {
    std::vector<double> v;
    for (std::size_t p = from; p < to; ++p) v.push_back(field(unit[p]));
    total += median(v);
  }
  return total;
}

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
};

/// Structural failures of every pass, outputs identical on every pass, and
/// for the default seed, outputs equal to the recorded reference values.
Verdict check(Workload& wl, const Passes& passes, const Args& args) {
  Verdict v;
  for (std::size_t u = 0; u < wl.units(); ++u) {
    const std::vector<UnitRun>& runs = passes.runs[u];
    for (const UnitRun& r : runs) {
      v.attempted += r.ops;
      v.failed += r.failed;
      v.problems.insert(v.problems.end(), r.problems.begin(), r.problems.end());
    }
    const Observables& first = runs.front().outputs;
    for (std::size_t p = 1; p < runs.size(); ++p) {
      if (runs[p].outputs != first) {
        ++v.failed;
        v.problems.push_back(wl.unit_name(u) + ": outputs differ between passes 0 and " +
                             std::to_string(p));
      }
    }
  }
  if (args.seed != kDefaultSeed) return v;
  ecnd::report::Json ref;
  try {
    ref = ecnd::report::Json::parse_file(args.reference);
  } catch (const std::exception& e) {
    ++v.failed;
    v.problems.push_back(std::string("reference: ") + e.what());
    return v;
  }
  const ecnd::report::Json* units = nullptr;
  if (const ecnd::report::Json* w = ref.get("workloads")) units = w->get(args.workload);
  for (std::size_t u = 0; u < wl.units(); ++u) {
    const std::string name = wl.unit_name(u);
    const ecnd::report::Json* expect = units != nullptr ? units->get(name) : nullptr;
    const Observables& got = passes.runs[u].front().outputs;
    if (expect == nullptr || !expect->is_object() || expect->object().size() != got.size()) {
      ++v.failed;
      v.problems.push_back(name + ": reference values missing or of another shape");
      continue;
    }
    for (const auto& [key, value] : got) {
      const std::optional<double> want = expect->get_number(key);
      if (!want || *want != value) {
        ++v.failed;
        v.problems.push_back(name + "." + key + " = " + fmt(value) + ", reference " +
                             (want ? fmt(*want) : std::string("missing")));
      }
    }
  }
  return v;
}

std::string metrics_json(const std::map<std::string, double>& values,
                         const MetricDef* defs, std::size_t n) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(defs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += quote(defs[i].name) + ": {\"value\": " + fmt(value) +
           ", \"unit\": " + quote(defs[i].unit) + "}";
  }
  return out + "}";
}

/// Per-layer metrics: counts from the counted pass, times from the traced
/// passes [first_traced, count).
std::map<std::string, double> layer_metrics(Workload& wl, const Passes& passes,
                                            std::size_t first_traced,
                                            const std::map<std::string, double>& counters,
                                            double untraced_run_s) {
  const std::vector<SpanRecord> all = spans();
  std::map<std::string, double> m;
  for (const auto& [from, to] : kCounterMap) {
    const auto it = counters.find(from);
    m[to] = it == counters.end() ? 0.0 : it->second;
  }

  // Per traced pass: layer self times, inclusive times of named spans, and
  // the closure of self times against the units' setup + run seconds.
  struct Named {
    const char* metric;
    Layer layer;
    const char* span;
    double scale;
  };
  constexpr Named kNamed[] = {
      {"sim.run_s", Layer::kSim, "event_loop", 1.0},
      {"sim.topology_ms", Layer::kSim, "topology", 1e3},
      {"workload.reduce_ms", Layer::kWorkload, "reduce", 1e3},
      {"exp.setup_ms", Layer::kExp, "setup", 1e3},
      {"fluid.model_build_ms", Layer::kFluid, "model_build", 1e3},
  };
  std::map<std::string, std::vector<double>> per_pass;
  std::vector<double> fixed_point_us, linearize_us, stability_ms, integrate_s;
  for (std::size_t p = first_traced; p < passes.count; ++p) {
    const std::size_t b = passes.span_begin[p], e = passes.span_end[p];
    const auto self = layer_self_seconds(all, b, e);
    double layered = 0.0;
    for (std::size_t l = 1; l < kLayers; ++l) {
      per_pass[std::string(layer_name(static_cast<Layer>(l))) + ".self_s"].push_back(self[l]);
      layered += self[l];
    }
    const double measured = pass_seconds(passes, p);
    per_pass["unattributed_frac"].push_back(1.0 - layered / measured);
    std::map<std::string, double> named;
    double integrate = 0.0;
    for (std::size_t i = b; i < e; ++i) {
      const SpanRecord& s = all[i];
      const double d = s.t1 - s.t0;
      for (const Named& n : kNamed) {
        if (s.layer == n.layer && std::strcmp(s.name, n.span) == 0) named[n.metric] += d * n.scale;
      }
      if (s.layer == Layer::kControl) {
        if (std::strcmp(s.name, "fixed_point") == 0) fixed_point_us.push_back(d * 1e6);
        if (std::strcmp(s.name, "linearize") == 0) linearize_us.push_back(d * 1e6);
        if (std::strcmp(s.name, "stability") == 0) stability_ms.push_back(d * 1e3);
      }
      if (s.layer == Layer::kFluid && std::strcmp(s.name, "integrate") == 0) integrate += d;
    }
    for (const Named& n : kNamed) per_pass[n.metric].push_back(named[n.metric]);
    integrate_s.push_back(integrate);
    std::map<std::string, double> counts;
    for (const auto& unit : passes.runs) {
      for (const auto& [k, v] : unit[p].counts) counts[k] += v;
    }
    for (const auto& [k, v] : counts) per_pass[k].push_back(v);
  }
  for (const auto& [k, v] : per_pass) m[k] = median(v);

  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  m["sim.ns_per_event"] = ratio(m["sim.run_s"] * 1e9, m["sim.events"]);
  m["sim.events_per_pkt"] = ratio(m["sim.events"], m["sim.pkt_tx"]);
  m["sim.event_pool_reuse_ratio"] =
      ratio(counters.count("sim.event_pool_reuse") ? counters.at("sim.event_pool_reuse") : 0.0,
            m["sim.events"]);
  m["proto.rate_updates_per_pkt"] = ratio(m["proto.rate_updates"], m["sim.pkt_tx"]);
  m["fluid.hint_hit_ratio"] =
      ratio(counters.count("fluid.lookup_hint_hits") ? counters.at("fluid.lookup_hint_hits") : 0.0,
            m["fluid.delayed_lookups"]);
  m["fluid.flow_steps_per_s"] = ratio(m["fluid.flow_steps"], median(integrate_s));
  m.erase("fluid.flow_steps");
  if (!fixed_point_us.empty()) {
    m["control.fixed_point_us"] = median(fixed_point_us);
    m["control.linearize_us"] = median(linearize_us);
    m["control.phase_margin_ms_p50"] = percentile(stability_ms, 0.50);
    m["control.phase_margin_ms_p99"] = percentile(stability_ms, 0.99);
    m["control.phase_margin_samples"] = static_cast<double>(stability_ms.size());
  }
  const double traced_run_s =
      sum_of_medians(passes, first_traced, passes.count,
                     [](const UnitRun& r) { return r.run_s * r.size_scale; });
  m["obs.traced_overhead_frac"] = ratio(traced_run_s, untraced_run_s) - 1.0;
  wl.probe(m);
  return m;
}

std::string run_record(const Args& args, std::size_t workers, std::size_t passes) {
  std::string r = "{";
  r += "\"workload\": " + quote(args.workload);
  r += ", \"seed\": " + std::to_string(args.seed);
  r += ", \"seconds\": " + fmt(args.seconds);
  r += ", \"trace\": " + std::to_string(args.trace);
  r += ", \"git_sha\": " + quote(args.git_sha);
  r += ", \"src_digest\": " + quote(args.src_digest);
  r += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  r += ", \"workers\": " + std::to_string(workers);
  r += ", \"build_type\": " + quote(PERFBENCH_BUILD_TYPE);
#if defined(ECND_OBS_DISABLED)
  r += ", \"ecnd_obs\": false";
#else
  r += ", \"ecnd_obs\": true";
#endif
  r += ", \"passes\": " + std::to_string(passes);
  return r + "}";
}

int record_reference(const std::string& path) {
  std::string out = "{\n  \"schema\": \"perfbench-reference-v1\",\n  \"seed\": " +
                    std::to_string(kDefaultSeed) + ",\n  \"workloads\": {";
  int mismatches = 0;
  const auto& names = workload_names();
  for (std::size_t w = 0; w < names.size(); ++w) {
    auto wl = make_workload(names[w], kDefaultSeed);
    out += (w ? ",\n    " : "\n    ") + quote(names[w]) + ": {";
    for (std::size_t u = 0; u < wl->units(); ++u) {
      const Observables ref = wl->reference_outputs(u);
      // The benchmark's step-by-step composition must agree with the
      // libraries' own drivers bit for bit.
      const UnitRun run = wl->run_unit(u);
      if (run.outputs != ref) {
        ++mismatches;
        std::fprintf(stderr, "%s/%s: composed outputs differ from the reference\n",
                     names[w].c_str(), wl->unit_name(u).c_str());
      }
      out += (u ? ",\n      " : "\n      ") + quote(wl->unit_name(u)) + ": {";
      for (std::size_t i = 0; i < ref.size(); ++i) {
        out += (i ? ", " : "") + quote(ref[i].first) + ": " + fmt(ref[i].second);
      }
      out += "}";
    }
    out += "\n    }";
  }
  out += "\n  }\n}\n";
  if (mismatches > 0) return 1;
  std::ofstream file(path);
  file << out;
  return file ? 0 : 1;
}

int run(const Args& args) {
  const std::vector<std::string> problems = build_problems();
  if (!problems.empty()) {
    for (const auto& p : problems) std::fprintf(stderr, "refusing to report: %s\n", p.c_str());
    return 3;
  }
  auto wl = make_workload(args.workload, args.seed);
  if (!wl) usage("unknown workload " + args.workload);

  const double start = now_s();
  const double budget = args.seconds;

  // Set-up cost: the median of repeated set-ups of each unit, probed
  // between the passes so the samples span the whole run.
  std::vector<std::vector<double>> setups(wl->units());
  const auto probe_setups = [&] {
    for (std::size_t u = 0; u < wl->units(); ++u) {
      const double t0 = now_s();
      for (int i = 0; i < 50 && (i < 3 || now_s() - t0 < 0.01 * budget / wl->units()); ++i) {
        setups[u].push_back(wl->setup_only(u));
      }
    }
  };
  const auto nothing = [] {};

  Passes passes;
  passes.runs.resize(wl->units());
  std::uint32_t op = 0;
  const bool traced = args.trace == 1;
  if (traced) {
    run_until(*wl, passes, op, start + 0.45 * budget, nothing);
  } else {
    run_until(*wl, passes, op, start + budget, probe_setups);
  }
  const std::size_t untraced = passes.count;
  const double run_s = sum_of_medians(
      passes, 0, untraced, [](const UnitRun& r) { return r.run_s * r.size_scale; });

  std::map<std::string, double> values;
  std::map<std::string, double> counters;
  if (traced) {
    set_tracing(true);
    ecnd::obs::reset();
    ecnd::obs::set_metrics_enabled(true);
    run_pass(*wl, passes, op);  // the counted pass: exact per-pass counts
    counters = read_counters();
    // Armed counters slow the hot loops; time the layers on passes without.
    ecnd::obs::set_metrics_enabled(false);
    run_until(*wl, passes, op, start + 0.85 * budget, nothing);
    set_tracing(false);
    values = layer_metrics(*wl, passes, untraced + 1, counters, run_s);
  } else {
    double work = 0.0;
    for (const auto& unit : passes.runs) work += unit.front().work;
    double setup_s = 0.0;
    for (std::size_t u = 0; u < wl->units(); ++u) {
      std::vector<double> samples = setups[u];
      for (const UnitRun& r : passes.runs[u]) samples.push_back(r.setup_s);
      setup_s += median(samples);
    }
    values["run_s"] = run_s;
    values["setup_s"] = setup_s;
    values["peak_rss_mb"] = peak_rss_mb();
    values["work_per_s"] = work / sum_of_medians(passes, 0, untraced,
                                                 [](const UnitRun& r) { return r.run_s; });
  }

  Verdict verdict = check(*wl, passes, args);
  verdict.failed = std::min(verdict.failed, verdict.attempted);
  for (std::size_t i = 0; i < verdict.problems.size() && i < 20; ++i) {
    std::fprintf(stderr, "check: %s\n", verdict.problems[i].c_str());
  }

  const std::string record = run_record(args, wl->workers(), passes.count);
  if (traced && !args.trace_dir.empty()) {
    write_chrome_trace(args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".trace.json",
                       record);
  }
  std::printf("{\"run_record\": %s}\n", record.c_str());
  const std::string metrics =
      traced ? metrics_json(values, kPerLayer, std::size(kPerLayer))
             : metrics_json(values, kEndToEnd, std::size(kEndToEnd));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              verdict.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(verdict.attempted),
              static_cast<unsigned long long>(verdict.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (!args.record_reference.empty()) {
      return perfbench::record_reference(args.record_reference);
    }
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
