#include "exp/scenarios.hpp"

#include <cassert>
#include <string>

#include "proto/factories.hpp"

namespace ecnd::exp {
namespace {

/// Effectively-infinite flow size for long-running-flow scenarios.
constexpr Bytes kLongFlowBytes = static_cast<Bytes>(100) * 1000 * 1000 * 1000;

sim::RateControllerFactory make_factory(Protocol protocol,
                                        const LongFlowConfig& config,
                                        sim::Simulator& sim,
                                        double initial_fraction) {
  const BitsPerSecond initial =
      initial_fraction > 0.0 ? initial_fraction * config.link_rate : 0.0;
  switch (protocol) {
    case Protocol::kDcqcn:
      return proto::make_dcqcn_factory(sim, config.dcqcn);
    case Protocol::kTimely:
      return proto::make_timely_factory(config.timely, initial);
    case Protocol::kPatchedTimely:
      return proto::make_patched_timely_factory(config.patched, initial);
  }
  return {};
}

/// Shared fault and event-budget wiring for both runners. The injector must
/// outlive the run (ports keep hooks into it).
void arm_robustness(sim::Network& net, robust::FaultInjector& injector,
                    const robust::FaultProfile& faults, sim::Port& bottleneck,
                    std::uint64_t event_budget) {
  if (faults.any()) {
    injector.attach_host_nics(net, faults);
    const robust::FaultProfile data_faults = faults.data_only();
    if (data_faults.any()) injector.attach(bottleneck, data_faults);
  }
  if (event_budget != 0) net.sim().set_event_budget(event_budget);
}

}  // namespace

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kDcqcn:
      return "DCQCN";
    case Protocol::kTimely:
      return "TIMELY";
    case Protocol::kPatchedTimely:
      return "Patched TIMELY";
  }
  return "?";
}

const char* protocol_key(Protocol protocol) {
  switch (protocol) {
    case Protocol::kDcqcn:
      return "dcqcn";
    case Protocol::kTimely:
      return "timely";
    case Protocol::kPatchedTimely:
      return "patched_timely";
  }
  return "unknown";
}

LongFlowResult run_long_flows(const LongFlowConfig& config) {
  sim::Network net(config.seed);

  sim::StarConfig star_config;
  star_config.senders = config.flows;
  star_config.link_rate = config.link_rate;
  star_config.sender_link_delay = config.sender_link_delay;
  star_config.receiver_link_delay = config.receiver_link_delay;
  star_config.red = config.red;
  // ECN/CNP machinery only participates in DCQCN runs.
  star_config.red.enabled =
      config.red.enabled && config.protocol == Protocol::kDcqcn;
  star_config.red.position = config.mark_position;
  star_config.pfc = config.pfc;
  sim::Star star = make_star(net, star_config);
  if (config.pi_aqm.enabled && config.protocol == Protocol::kDcqcn) {
    star.bottleneck().set_pi_aqm(config.pi_aqm);
  }

  robust::FaultInjector injector(config.fault_seed);
  arm_robustness(net, injector, config.faults, star.bottleneck(),
                 config.event_budget);

  // Launch one long flow per sender at its configured start time and rate.
  std::vector<std::uint64_t> flow_ids(static_cast<std::size_t>(config.flows), 0);
  for (int i = 0; i < config.flows; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const double fraction = idx < config.initial_rate_fraction.size()
                                ? config.initial_rate_fraction[idx]
                                : 0.0;
    sim::Host* sender = star.senders[idx];
    sender->set_controller_factory(
        make_factory(config.protocol, config, net.sim(), fraction));
    const double start_s =
        idx < config.start_times_s.size() ? config.start_times_s[idx] : 0.0;
    net.sim().schedule_at(seconds(start_s), [sender, &flow_ids, idx, &star] {
      flow_ids[idx] = sender->start_flow(star.receiver->id(), kLongFlowBytes);
    });
  }

  LongFlowResult result;
  result.queue_bytes.set_name("bottleneck_queue_bytes");
  result.rate_gbps.reserve(static_cast<std::size_t>(config.flows));
  for (int i = 0; i < config.flows; ++i) {
    result.rate_gbps.emplace_back("flow" + std::to_string(i) + "_gbps");
  }

  const PicoTime duration = seconds(config.duration_s);
  const PicoTime sample = seconds(config.sample_interval_s);
  net.monitor_queue(star.bottleneck(), sample, duration, result.queue_bytes);
  // Periodic sampling of each sender's rate register.
  struct Sampler {
    sim::Network* net;
    sim::Star* star;
    std::vector<std::uint64_t>* flow_ids;
    LongFlowResult* result;
    PicoTime interval, until;
    void operator()() {
      const double t = to_seconds(net->sim().now());
      for (std::size_t i = 0; i < flow_ids->size(); ++i) {
        const BitsPerSecond rate =
            (*flow_ids)[i] ? star->senders[i]->flow_rate((*flow_ids)[i]) : 0.0;
        (*result).rate_gbps[i].push(t, to_gbps(rate));
      }
      if (net->sim().now() + interval <= until) {
        net->sim().schedule_in(interval, *this);
      }
    }
  };
  Sampler sampler{&net, &star, &flow_ids, &result, sample, duration};
  net.sim().schedule_at(0, sampler);

  net.sim().run_until(duration);

  result.drops = net.total_drops();
  result.faults = injector.counters();
  result.cnps = star.receiver->cnps_sent();
  result.pause_frames = star.sw->pause_frames_sent();
  result.utilization = static_cast<double>(star.bottleneck().tx_bytes()) * 8.0 /
                       (config.link_rate * config.duration_s);
  return result;
}

FctResult run_fct_experiment(const FctConfig& config) {
  sim::Network net(config.seed);

  sim::DumbbellConfig dumbbell_config;
  dumbbell_config.pairs = config.pairs;
  dumbbell_config.link_rate = config.link_rate;
  dumbbell_config.link_delay = config.link_delay;
  dumbbell_config.red = config.red;
  dumbbell_config.red.enabled =
      config.red.enabled && config.protocol == Protocol::kDcqcn;
  dumbbell_config.pfc = config.pfc;
  sim::Dumbbell dumbbell = make_dumbbell(net, dumbbell_config);

  robust::FaultInjector injector(config.fault_seed);
  arm_robustness(net, injector, config.faults, dumbbell.bottleneck(),
                 config.event_budget);

  for (sim::Host* sender : dumbbell.senders) {
    switch (config.protocol) {
      case Protocol::kDcqcn:
        sender->set_controller_factory(
            proto::make_dcqcn_factory(net.sim(), config.dcqcn));
        break;
      case Protocol::kTimely:
        sender->set_controller_factory(proto::make_timely_factory(config.timely));
        break;
      case Protocol::kPatchedTimely:
        sender->set_controller_factory(
            proto::make_patched_timely_factory(config.patched));
        break;
    }
  }

  workload::TrafficConfig traffic_config;
  traffic_config.load = config.load;
  traffic_config.num_flows = config.num_flows;
  traffic_config.seed = config.seed;
  workload::PoissonTraffic traffic(
      dumbbell, workload::FlowSizeDistribution::web_search(), traffic_config);
  traffic.start();

  // Generous horizon: 4x the expected generation span plus drain time.
  const double expected_span_s =
      config.num_flows *
      workload::FlowSizeDistribution::web_search().mean_bytes() * 8.0 /
      traffic.offered_load_bps();
  const PicoTime horizon = seconds(expected_span_s * 4.0 + 1.0);

  FctResult result;
  result.queue_bytes.set_name("bottleneck_queue_bytes");
  net.monitor_queue(dumbbell.bottleneck(), seconds(config.queue_sample_interval_s),
                    horizon, result.queue_bytes);

  result.all_completed = traffic.run_to_completion(horizon);
  result.truncated = traffic.truncated();

  result.small_fcts_us =
      workload::fcts_us(traffic.completed(), config.small_flow_threshold);
  result.small = workload::summarize(result.small_fcts_us);
  result.overall = workload::summarize(workload::fcts_us(traffic.completed(), 0));
  result.drops = net.total_drops();
  result.faults = injector.counters();
  const double elapsed_s = to_seconds(net.sim().now());
  result.utilization =
      elapsed_s > 0.0
          ? static_cast<double>(dumbbell.bottleneck().tx_bytes()) * 8.0 /
                (config.link_rate * elapsed_s)
          : 0.0;
  return result;
}

FctConfig make_fct_config(Protocol protocol, double load) {
  FctConfig config;
  config.protocol = protocol;
  config.load = load;
  config.timely.burst_pacing = true;
  config.timely.segment = kilobytes(64.0);
  config.patched.burst_pacing = true;
  config.patched.segment = kilobytes(16.0);
  return config;
}

}  // namespace ecnd::exp
