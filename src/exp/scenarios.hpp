#pragma once
// Experiment drivers shared by the benchmark harnesses and the examples.
// Each driver sets up one of the paper's scenarios on the packet simulator
// and returns queue/rate traces or FCT populations.

#include <cstdint>
#include <vector>

#include "core/timeseries.hpp"
#include "proto/dcqcn/rp.hpp"
#include "proto/timely/timely.hpp"
#include "robust/fault_injector.hpp"
#include "sim/network.hpp"
#include "workload/fct_stats.hpp"
#include "workload/traffic.hpp"

namespace ecnd::exp {

enum class Protocol { kDcqcn, kTimely, kPatchedTimely };

const char* protocol_name(Protocol protocol);
/// Identifier-safe lowercase form ("dcqcn", "timely", "patched_timely") for
/// manifest observable keys and CSV columns.
const char* protocol_key(Protocol protocol);

/// Long-running-flow scenario on the single-switch validation topology
/// (Figures 2, 5, 8, 9, 10, 12, 17): N senders blast one receiver and we
/// trace the bottleneck queue and each sender's rate register.
struct LongFlowConfig {
  Protocol protocol = Protocol::kDcqcn;
  int flows = 2;
  double duration_s = 0.1;
  double sample_interval_s = 1e-4;
  BitsPerSecond link_rate = gbps(10.0);
  PicoTime sender_link_delay = microseconds(1.0);
  /// Receiver-link propagation dominates the feedback loop: the control
  /// delay is ~2x this (mark at bottleneck egress -> receiver -> CNP back).
  PicoTime receiver_link_delay = microseconds(1.0);
  std::uint64_t seed = 1;

  proto::DcqcnRpParams dcqcn;
  proto::TimelyParams timely;
  proto::PatchedTimelyParams patched;
  sim::RedConfig red{.enabled = true};  ///< used by DCQCN runs
  sim::PfcConfig pfc;                   ///< off by default (paper's models ignore PFC)
  sim::MarkPosition mark_position = sim::MarkPosition::kDequeue;
  /// PI-controller marking at the bottleneck instead of RED (§5.2/§7);
  /// applies to DCQCN runs only.
  sim::PiAqmConfig pi_aqm;

  /// Optional per-flow start times (seconds); default: all at 0.
  std::vector<double> start_times_s;
  /// Optional per-flow initial rates as a fraction of link rate (TIMELY
  /// variants only; DCQCN always starts at line rate).
  std::vector<double> initial_rate_fraction;

  /// Degraded-feedback faults: the feedback-path slice (CNP/ACK loss,
  /// duplication, delay/reorder) applies at every host NIC, the data-path
  /// slice (data loss, ECN mis-marking, link flaps) at the bottleneck.
  /// Faults draw from their own RNG stream seeded by `fault_seed`, so a
  /// faulted run's base randomness is identical to its clean twin's.
  robust::FaultProfile faults;
  std::uint64_t fault_seed = 97;
  /// Runaway-run watchdog (0 = disabled): see Simulator::set_event_budget.
  std::uint64_t event_budget = 0;
};

struct LongFlowResult {
  TimeSeries queue_bytes;               ///< bottleneck egress backlog
  std::vector<TimeSeries> rate_gbps;    ///< per-flow sender rate registers
  double utilization = 0.0;             ///< bottleneck goodput / capacity
  std::uint64_t drops = 0;
  std::uint64_t cnps = 0;
  std::uint64_t pause_frames = 0;
  robust::FaultCounters faults;         ///< what the injector actually did
};

LongFlowResult run_long_flows(const LongFlowConfig& config);

/// FCT scenario on the Figure-13 dumbbell (Figures 14-16).
struct FctConfig {
  Protocol protocol = Protocol::kDcqcn;
  double load = 0.8;   ///< 1.0 = 8 Gb/s offered at the bottleneck
  int num_flows = 2000;
  int pairs = 10;
  BitsPerSecond link_rate = gbps(10.0);
  PicoTime link_delay = microseconds(1.0);
  std::uint64_t seed = 1;
  Bytes small_flow_threshold = kilobytes(100.0);
  double queue_sample_interval_s = 1e-4;

  proto::DcqcnRpParams dcqcn;
  proto::TimelyParams timely;
  proto::PatchedTimelyParams patched;
  sim::RedConfig red{.enabled = true};
  sim::PfcConfig pfc{.enabled = true};  ///< RoCE fabrics run PFC

  /// Degraded-feedback faults and the event-budget watchdog (see
  /// LongFlowConfig).
  robust::FaultProfile faults;
  std::uint64_t fault_seed = 97;
  std::uint64_t event_budget = 0;
};

struct FctResult {
  workload::FctSummary small;           ///< flows < small_flow_threshold
  workload::FctSummary overall;
  std::vector<double> small_fcts_us;    ///< raw population (CDF material)
  TimeSeries queue_bytes;               ///< bottleneck queue trace
  double utilization = 0.0;
  std::uint64_t drops = 0;
  bool all_completed = false;
  /// Flows generated but still in flight at the horizon — excluded from the
  /// FCT populations above, so harnesses must report this alongside them.
  int truncated = 0;
  robust::FaultCounters faults;
};

FctResult run_fct_experiment(const FctConfig& config);

/// §5.1 defaults: both protocols use the settings recommended by their
/// papers. In particular TIMELY runs its *implementation's* transmission
/// scheme — 64KB chunks sent at line rate with rate-shaping gaps (per-burst
/// pacing) — which is what drives its queue excursions in Figures 14-16;
/// patched TIMELY keeps burst pacing but with Seg = 16KB (§4.3).
FctConfig make_fct_config(Protocol protocol, double load);

}  // namespace ecnd::exp
