#pragma once
// The benchmark's four workloads. Each is a fixed panel of units (one
// protocol run, one fluid model run, or one whole sweep); a pass runs every
// unit once, and a benchmark run repeats passes for its time budget.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Named outputs of one unit, compared across passes (bitwise) and, for the
/// default seed, against the recorded reference values.
using Observables = std::vector<std::pair<std::string, double>>;

struct UnitRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  double work = 0.0;        ///< events, flow steps or cells (METRICS.md)
  /// Nominal input size / this unit's input size. Only fct_dumbbell's
  /// inputs change size with the seed (heavy-tailed flow sizes); its run
  /// time is scaled by this factor, which depends on the seed alone.
  double size_scale = 1.0;
  std::uint64_t ops = 0;    ///< flows, fluid runs or sweep cells attempted
  std::uint64_t failed = 0; ///< ops that failed a structural check
  std::vector<std::string> problems;  ///< one line per failure
  Observables outputs;
  /// Exact per-unit layer counts the obs registry does not keep (flows
  /// completed, flow steps, ...), summed over units by driver.cpp.
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::size_t units() const = 0;
  virtual std::string unit_name(std::size_t unit) const = 0;
  /// Set up, run and reduce one unit.
  virtual UnitRun run_unit(std::size_t unit) = 0;
  /// Set up one unit and discard it; returns the set-up seconds.
  virtual double setup_only(std::size_t unit) = 0;
  /// Isolated timing probes of single layers, for the traced run. Called
  /// after the traced passes, with the obs counters disarmed.
  virtual void probe(std::map<std::string, double>& out) = 0;
  /// Worker threads the workload's sweep uses (1 = none).
  virtual std::size_t workers() const { return 1; }
  /// Reference values recorded through the libraries' own end-to-end
  /// drivers (exp::run_fct_experiment, exp::run_shuffle, ...), not through
  /// this benchmark's composition of their steps.
  virtual Observables reference_outputs(std::size_t unit) = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
