#pragma once
// Common interface for the paper's fluid models and a small run harness that
// turns a model into queue/rate time-series (what Figures 2, 4, 8, 9, 12, 18,
// 19 and 20 plot).
//
// Unit convention inside every fluid model: rates are in PACKETS PER SECOND
// and queue lengths in PACKETS. The DCQCN model's exponential terms
// (1 - p)^{tau * Rc} count packets seen in an interval, so packet units are
// the natural (and the original paper's) choice; accessors convert to
// bits-per-second / bytes at the boundary.

#include <span>
#include <vector>

#include "core/timeseries.hpp"
#include "fluid/dde_solver.hpp"

namespace ecnd::fluid {

class FluidModel : public DdeSystem {
 public:
  /// Number of modeled flows N.
  virtual int num_flows() const = 0;

  /// Index of the queue variable within the state vector.
  virtual std::size_t queue_index() const = 0;

  /// Index of flow i's sending-rate variable.
  virtual std::size_t rate_index(int flow) const = 0;

  /// Initial condition (the protocol's specified start state).
  virtual std::vector<double> initial_state() const = 0;

  /// A safe integration step for this parameterization.
  virtual double suggested_dt() const = 0;

  /// MTU used for packet<->byte conversions.
  virtual double mtu_bytes() const = 0;

  /// Bottleneck capacity C in packets/s (the natural scale of every rate
  /// variable).
  virtual double capacity_pps() const = 0;

  double queue_bytes(std::span<const double> x) const {
    return x[queue_index()] * mtu_bytes();
  }
  double flow_rate_bps(std::span<const double> x, int flow) const {
    return x[rate_index(flow)] * mtu_bytes() * 8.0;
  }
};

/// Result of integrating a fluid model: bottleneck queue (bytes) and per-flow
/// rate (Gb/s) traces.
struct FluidRun {
  TimeSeries queue_bytes;
  std::vector<TimeSeries> flow_rate_gbps;
};

/// Integrate `model` from its initial state to `duration` seconds, sampling
/// every `sample_interval` seconds. `initial_override`, when non-empty,
/// replaces the model's default initial state (used by the unequal-start
/// experiments of Figures 9 and 12); a non-empty override whose length does
/// not match model.dim() throws InvariantViolation.
FluidRun simulate(const FluidModel& model, double duration,
                  double sample_interval,
                  std::vector<double> initial_override = {});

/// Aggregate observables of a many-flow run: the queue plus summary
/// statistics of the per-flow rate distribution. Sampling a 10k-flow model
/// this way allocates five TimeSeries instead of 10k; each sample is an
/// exact (bitwise) reduction of the per-flow values simulate() would have
/// recorded, in flow order.
struct FluidAggregateRun {
  TimeSeries queue_bytes;
  TimeSeries sum_rate_gbps;
  TimeSeries min_rate_gbps;
  TimeSeries max_rate_gbps;
  TimeSeries jain_fairness;  ///< (sum r)^2 / (N sum r^2); 1 = perfectly fair
};

/// simulate() with aggregate sampling. `dt_override`, when positive,
/// replaces model.suggested_dt() — large-N sweeps and benches trade step
/// resolution for wall clock (the step must stay below the model's minimum
/// feedback delay for the delayed lookups to remain interior).
FluidAggregateRun simulate_aggregates(const FluidModel& model, double duration,
                                      double sample_interval,
                                      std::vector<double> initial_override = {},
                                      double dt_override = 0.0);

/// Shared constructor-time parameter check: throws InvariantViolation naming
/// `component`, the parameter and its value unless `ok`. `rule` states what
/// a valid value looks like.
void require_param(const char* component, const char* name, double value,
                   bool ok, const char* rule);

/// Shared constructor-time feasibility check for the models' per-flow rate
/// floors: with N flows each clamped to at least `min_rate_pps`, demand can
/// never drop below N * min_rate_pps — if that exceeds the link capacity the
/// queue grows without bound and every trajectory is unphysical. Throws
/// InvariantViolation naming the largest feasible N.
void require_min_rate_feasible(const char* component, int num_flows,
                               double min_rate_pps, double capacity_pps);

}  // namespace ecnd::fluid
