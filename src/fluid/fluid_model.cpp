#include "fluid/fluid_model.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "core/diagnostic.hpp"

namespace ecnd::fluid {
namespace {

// Satellite invariant shared by simulate() and simulate_aggregates(): a
// wrong-length override would reach DdeSolver as silent out-of-bounds state.
void check_override(const FluidModel& model,
                    const std::vector<double>& initial_override) {
  if (initial_override.empty() || initial_override.size() == model.dim()) {
    return;
  }
  throw InvariantViolation(Diagnostic::make(
      "fluid::simulate", "initial_override", 0.0,
      static_cast<double>(initial_override.size()),
      "initial_override has " + std::to_string(initial_override.size()) +
          " entries but the model's state dimension is " +
          std::to_string(model.dim())));
}

}  // namespace

void require_param(const char* component, const char* name, double value,
                   bool ok, const char* rule) {
  if (ok) return;
  throw InvariantViolation(Diagnostic::make(component, name, 0.0, value, rule));
}

void require_min_rate_feasible(const char* component, int num_flows,
                               double min_rate_pps, double capacity_pps) {
  const double floor_demand = static_cast<double>(num_flows) * min_rate_pps;
  if (floor_demand <= capacity_pps) return;
  const int max_flows = static_cast<int>(capacity_pps / min_rate_pps);
  throw InvariantViolation(Diagnostic::make(
      component, "num_flows", 0.0, static_cast<double>(num_flows),
      std::to_string(num_flows) + " flows x " + std::to_string(min_rate_pps) +
          " pps rate floor exceeds link capacity " +
          std::to_string(capacity_pps) +
          " pps: the queue can only grow; max feasible N = " +
          std::to_string(max_flows)));
}

FluidRun simulate(const FluidModel& model, double duration,
                  double sample_interval, std::vector<double> initial_override) {
  check_override(model, initial_override);
  std::vector<double> x0 =
      initial_override.empty() ? model.initial_state() : std::move(initial_override);

  FluidRun run;
  run.queue_bytes.set_name("queue_bytes");
  run.flow_rate_gbps.reserve(static_cast<std::size_t>(model.num_flows()));
  for (int i = 0; i < model.num_flows(); ++i) {
    run.flow_rate_gbps.emplace_back("flow" + std::to_string(i) + "_gbps");
  }

  DdeSolver solver(model, std::move(x0), 0.0, model.suggested_dt());
  solver.run_until(
      duration,
      [&](double t, std::span<const double> x) {
        run.queue_bytes.push(t, model.queue_bytes(x));
        for (int i = 0; i < model.num_flows(); ++i) {
          run.flow_rate_gbps[static_cast<std::size_t>(i)].push(
              t, model.flow_rate_bps(x, i) / 1e9);
        }
      },
      sample_interval);
  return run;
}

FluidAggregateRun simulate_aggregates(const FluidModel& model, double duration,
                                      double sample_interval,
                                      std::vector<double> initial_override,
                                      double dt_override) {
  check_override(model, initial_override);
  std::vector<double> x0 =
      initial_override.empty() ? model.initial_state() : std::move(initial_override);

  FluidAggregateRun run;
  run.queue_bytes.set_name("queue_bytes");
  run.sum_rate_gbps.set_name("sum_rate_gbps");
  run.min_rate_gbps.set_name("min_rate_gbps");
  run.max_rate_gbps.set_name("max_rate_gbps");
  run.jain_fairness.set_name("jain_fairness");

  const double dt = dt_override > 0.0 ? dt_override : model.suggested_dt();
  DdeSolver solver(model, std::move(x0), 0.0, dt);
  solver.run_until(
      duration,
      [&](double t, std::span<const double> x) {
        run.queue_bytes.push(t, model.queue_bytes(x));
        // Flow order, so sum/min/max match a reduction of simulate()'s
        // per-flow series bit for bit.
        double sum = 0.0;
        double sum_sq = 0.0;
        double lo = 0.0;
        double hi = 0.0;
        for (int i = 0; i < model.num_flows(); ++i) {
          const double r = model.flow_rate_bps(x, i) / 1e9;
          sum += r;
          sum_sq += r * r;
          lo = i == 0 ? r : std::min(lo, r);
          hi = i == 0 ? r : std::max(hi, r);
        }
        const double n = static_cast<double>(model.num_flows());
        const double jain = sum_sq > 0.0 ? sum * sum / (n * sum_sq) : 1.0;
        run.sum_rate_gbps.push(t, sum);
        run.min_rate_gbps.push(t, lo);
        run.max_rate_gbps.push(t, hi);
        run.jain_fairness.push(t, jain);
      },
      sample_interval);
  return run;
}

}  // namespace ecnd::fluid
