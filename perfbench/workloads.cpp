#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "control/dcqcn_analysis.hpp"
#include "control/timely_analysis.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "exp/fabric.hpp"
#include "exp/scenarios.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/timely_model.hpp"
#include "obs/analyzers.hpp"
#include "proto/factories.hpp"
#include "sim/topology.hpp"
#include "trace.hpp"
#include "workload/fct_stats.hpp"

namespace perfbench {
namespace {

using namespace ecnd;

// Independent RNG streams derived from the one --seed argument. The
// libraries only ever see the derived values, inside generated configs.
enum Stream : std::uint64_t {
  kStreamNetwork = 1,  ///< Network RNG and Poisson arrivals (one seed, as in exp)
  kStreamEcmp = 2,
  kStreamJitter = 3,
  kStreamFluidInit = 4,
  kStreamHeapProbe = 5,
};

std::uint64_t derive(std::uint64_t seed, Stream stream) {
  return par::task_seed(seed, stream);
}

constexpr exp::Protocol kProtocols[] = {exp::Protocol::kDcqcn,
                                        exp::Protocol::kTimely,
                                        exp::Protocol::kPatchedTimely};

sim::RateControllerFactory protocol_factory(exp::Protocol protocol,
                                            sim::Simulator& sim,
                                            const proto::DcqcnRpParams& dcqcn,
                                            const proto::TimelyParams& timely,
                                            const proto::PatchedTimelyParams& patched) {
  switch (protocol) {
    case exp::Protocol::kDcqcn:
      return proto::make_dcqcn_factory(sim, dcqcn);
    case exp::Protocol::kTimely:
      return proto::make_timely_factory(timely);
    case exp::Protocol::kPatchedTimely:
      return proto::make_patched_timely_factory(patched);
  }
  return {};
}

/// Flags every non-finite output as one failed op.
void check_finite(UnitRun& run) {
  for (const auto& [name, value] : run.outputs) {
    if (!std::isfinite(value)) {
      ++run.failed;
      run.problems.push_back(name + " is not finite");
    }
  }
}

void fail(UnitRun& run, std::uint64_t ops, const std::string& why) {
  run.failed += ops;
  run.problems.push_back(why);
}

template <typename T>
T median_of(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// Packet engine helpers.

/// The event loop of the packet workloads. With `pending` set (traced runs)
/// it also samples the event-heap depth every 256 events.
template <typename Done>
void drive(sim::Simulator& sim, PicoTime horizon, Done done,
           std::vector<std::uint32_t>* pending) {
  std::uint64_t k = 0;
  while (sim.now() < horizon && !done()) {
    if (pending != nullptr && (k++ & 255u) == 0) {
      pending->push_back(static_cast<std::uint32_t>(sim.events_pending()));
    }
    if (!sim.run_one()) break;
  }
}

/// ns per event of Simulator::schedule_in + run_one with no-op events, at a
/// steady heap depth of `depth` (hold model: every event reschedules itself
/// a random delay ahead).
double heap_ns_per_event(std::size_t depth, std::uint64_t seed) {
  constexpr std::uint64_t kSpreadPs = 1000000;
  sim::Simulator sim;
  Rng rng(seed);
  struct Hold {
    sim::Simulator* sim;
    Rng* rng;
    void operator()() const {
      sim->schedule_in(1 + static_cast<PicoTime>(rng->uniform_index(kSpreadPs)),
                       *this);
    }
  };
  depth = std::max<std::size_t>(depth, 1);
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule_at(1 + static_cast<PicoTime>(rng.uniform_index(kSpreadPs)),
                    Hold{&sim, &rng});
  }
  for (std::size_t i = 0; i < depth; ++i) sim.run_one();
  const std::size_t events = std::max<std::size_t>(400000, 4 * depth);
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < events / 5; ++i) sim.run_one();
    batches.push_back((now_s() - t0) * 1e9 / static_cast<double>(events / 5));
  }
  return median_of(batches);
}

void heap_probes(std::vector<std::uint32_t> pending, std::uint64_t seed,
                 std::map<std::string, double>& out) {
  if (pending.empty()) return;
  std::sort(pending.begin(), pending.end());
  const std::uint32_t p50 = pending[pending.size() / 2];
  const std::uint32_t max = pending.back();
  out["sim.pending_p50"] = p50;
  out["sim.pending_max"] = max;
  out["sim.heap_ns_per_event"] = heap_ns_per_event(p50, seed);
  out["sim.heap_ns_per_event_max"] = heap_ns_per_event(max, seed);
}

/// The packet workloads: one unit per protocol, and the event-heap probe at
/// the depths the traced passes saw.
class PacketWorkload : public Workload {
 public:
  explicit PacketWorkload(std::uint64_t seed)
      : net_seed_(derive(seed, kStreamNetwork)),
        probe_seed_(derive(seed, kStreamHeapProbe)) {}

  std::size_t units() const override { return std::size(kProtocols); }
  std::string unit_name(std::size_t u) const override {
    return exp::protocol_key(kProtocols[u]);
  }
  void probe(std::map<std::string, double>& out) override {
    heap_probes(pending_, probe_seed_, out);
  }

 protected:
  std::uint64_t net_seed_;
  std::uint64_t probe_seed_;
  std::vector<std::uint32_t> pending_;
};

// ---------------------------------------------------------------------------
// fct_dumbbell: Figures 14/15.

class FctDumbbell final : public PacketWorkload {
 public:
  static constexpr int kFlows = 1000;
  static constexpr double kLoad = 0.6;

  using PacketWorkload::PacketWorkload;

  UnitRun run_unit(std::size_t u) override {
    UnitRun run;
    const double t0 = now_s();
    std::unique_ptr<State> st = setup(kProtocols[u]);
    const double t1 = now_s();
    {
      Span span(Layer::kSim, "event_loop");
      if (tracing()) {
        const auto& traffic = *st->traffic;
        const auto flows = static_cast<std::size_t>(st->config.num_flows);
        drive(st->net->sim(), st->horizon,
              [&] {
                return traffic.generated() >= st->config.num_flows &&
                       traffic.completed().size() >= flows;
              },
              &pending_);
      }
      st->traffic->run_to_completion(st->horizon);
    }
    run.work = static_cast<double>(st->net->sim().events_processed());
    {
      Span span(Layer::kWorkload, "reduce");
      const std::vector<double> small =
          workload::fcts_us(st->traffic->completed(), st->config.small_flow_threshold);
      run.outputs = summarize(workload::summarize(small),
                              workload::summarize(workload::fcts_us(
                                  st->traffic->completed(), 0)),
                              st->traffic->truncated(), st->net->total_drops(),
                              utilization(*st), st->queue);
    }
    run.ops = static_cast<std::uint64_t>(st->config.num_flows);
    run.counts["workload.flows_completed"] =
        static_cast<double>(st->traffic->completed().size());
    double bytes = 0.0;
    for (const sim::FlowRecord& r : st->traffic->completed()) bytes += static_cast<double>(r.size);
    if (bytes > 0.0) {
      run.size_scale = kFlows * workload::FlowSizeDistribution::web_search().mean_bytes() / bytes;
    }
    if (st->traffic->truncated() > 0) {
      fail(run, static_cast<std::uint64_t>(st->traffic->truncated()),
           unit_name(u) + ": flows truncated at the horizon");
    }
    if (st->net->total_drops() > 0) {
      fail(run, st->net->total_drops(), unit_name(u) + ": tail drops under PFC");
    }
    {
      Span span(Layer::kSim, "teardown");
      st.reset();
    }
    run.setup_s = t1 - t0;
    run.run_s = now_s() - t1;
    check_finite(run);
    return run;
  }

  double setup_only(std::size_t u) override {
    const double t0 = now_s();
    std::unique_ptr<State> st = setup(kProtocols[u]);
    const double t1 = now_s();
    return t1 - t0;
  }

  Observables reference_outputs(std::size_t u) override {
    const exp::FctResult r = exp::run_fct_experiment(config(kProtocols[u]));
    return summarize(r.small, r.overall, r.truncated, r.drops, r.utilization,
                     r.queue_bytes);
  }

 private:
  struct State {
    exp::FctConfig config;
    std::unique_ptr<sim::Network> net;
    sim::Dumbbell dumbbell;
    std::unique_ptr<workload::PoissonTraffic> traffic;
    TimeSeries queue;
    PicoTime horizon = 0;
  };

  exp::FctConfig config(exp::Protocol protocol) const {
    exp::FctConfig config = exp::make_fct_config(protocol, kLoad);
    config.num_flows = kFlows;
    config.seed = net_seed_;
    return config;
  }

  // The steps of exp::run_fct_experiment, one span per layer call, so set-up
  // and the event loop are timed apart.
  std::unique_ptr<State> setup(exp::Protocol protocol) const {
    auto st = std::make_unique<State>();
    {
      Span span(Layer::kExp, "setup");
      st->config = config(protocol);
    }
    const exp::FctConfig& c = st->config;
    {
      Span span(Layer::kSim, "topology");
      st->net = std::make_unique<sim::Network>(c.seed);
      sim::DumbbellConfig dumbbell;
      dumbbell.pairs = c.pairs;
      dumbbell.link_rate = c.link_rate;
      dumbbell.link_delay = c.link_delay;
      dumbbell.red = c.red;
      dumbbell.red.enabled = c.red.enabled && protocol == exp::Protocol::kDcqcn;
      dumbbell.pfc = c.pfc;
      st->dumbbell = sim::make_dumbbell(*st->net, dumbbell);
    }
    Span span(Layer::kExp, "setup");
    {
      Span factories(Layer::kProto, "factories");
      for (sim::Host* sender : st->dumbbell.senders) {
        sender->set_controller_factory(protocol_factory(
            protocol, st->net->sim(), c.dcqcn, c.timely, c.patched));
      }
    }
    double expected_span_s = 0.0;
    {
      Span generator(Layer::kWorkload, "generator");
      workload::TrafficConfig traffic;
      traffic.load = c.load;
      traffic.num_flows = c.num_flows;
      traffic.seed = c.seed;
      const auto sizes = workload::FlowSizeDistribution::web_search();
      st->traffic =
          std::make_unique<workload::PoissonTraffic>(st->dumbbell, sizes, traffic);
      st->traffic->start();
      expected_span_s = c.num_flows * sizes.mean_bytes() * 8.0 /
                        st->traffic->offered_load_bps();
    }
    {
      Span monitor(Layer::kSim, "monitor");
      st->horizon = seconds(expected_span_s * 4.0 + 1.0);
      st->queue.set_name("bottleneck_queue_bytes");
      st->net->monitor_queue(st->dumbbell.bottleneck(),
                             seconds(c.queue_sample_interval_s), st->horizon,
                             st->queue);
    }
    return st;
  }

  static double utilization(State& st) {
    const double elapsed_s = to_seconds(st.net->sim().now());
    return elapsed_s > 0.0
               ? static_cast<double>(st.dumbbell.bottleneck().tx_bytes()) * 8.0 /
                     (st.config.link_rate * elapsed_s)
               : 0.0;
  }

  static Observables summarize(const workload::FctSummary& small,
                               const workload::FctSummary& overall,
                               int truncated, std::uint64_t drops,
                               double utilization, const TimeSeries& queue) {
    const double t0 = queue.empty() ? 0.0 : queue.first_time();
    const double t1 = queue.empty() ? 0.0 : queue.last_time();
    return {{"small.count", static_cast<double>(small.count)},
            {"small.p50_us", small.median_us},
            {"small.p90_us", small.p90_us},
            {"small.p99_us", small.p99_us},
            {"overall.count", static_cast<double>(overall.count)},
            {"overall.mean_us", overall.mean_us},
            {"overall.p50_us", overall.median_us},
            {"overall.p90_us", overall.p90_us},
            {"overall.p99_us", overall.p99_us},
            {"truncated", static_cast<double>(truncated)},
            {"drops", static_cast<double>(drops)},
            {"utilization", utilization},
            {"queue.mean_bytes", queue.mean_over(t0, t1)},
            {"queue.max_bytes", queue.max_over(t0, t1).value_or(0.0)}};
  }

};

// ---------------------------------------------------------------------------
// fabric_shuffle: exp::run_shuffle on the canonical k=4 fat-tree.

class FabricShuffle final : public PacketWorkload {
 public:
  static constexpr double kMegabytesPerPair = 2.0;

  explicit FabricShuffle(std::uint64_t seed)
      : PacketWorkload(seed), ecmp_seed_(derive(seed, kStreamEcmp)) {}

  UnitRun run_unit(std::size_t u) override {
    UnitRun run;
    const double t0 = now_s();
    std::unique_ptr<State> st = setup(kProtocols[u]);
    const double t1 = now_s();
    {
      Span span(Layer::kSim, "event_loop");
      const std::size_t flows = static_cast<std::size_t>(st->flows);
      drive(st->net->sim(), st->horizon,
            [&] { return st->records.size() >= flows; },
            tracing() ? &pending_ : nullptr);
    }
    run.work = static_cast<double>(st->net->sim().events_processed());
    exp::ShuffleResult result;
    {
      Span span(Layer::kWorkload, "reduce");
      result = reduce(*st);
      run.outputs = summarize(result);
    }
    run.ops = static_cast<std::uint64_t>(result.flows);
    run.counts["workload.flows_completed"] = result.completed;
    if (result.truncated > 0) {
      fail(run, static_cast<std::uint64_t>(result.truncated),
           unit_name(u) + ": flows truncated at the horizon");
    }
    if (result.drops > 0) {
      fail(run, result.drops, unit_name(u) + ": tail drops under PFC");
    }
    {
      Span span(Layer::kSim, "teardown");
      st.reset();
    }
    run.setup_s = t1 - t0;
    run.run_s = now_s() - t1;
    check_finite(run);
    return run;
  }

  double setup_only(std::size_t u) override {
    const double t0 = now_s();
    std::unique_ptr<State> st = setup(kProtocols[u]);
    const double t1 = now_s();
    return t1 - t0;
  }

  Observables reference_outputs(std::size_t u) override {
    return summarize(exp::run_shuffle(config(kProtocols[u])));
  }

 private:
  struct State {
    exp::ShuffleConfig config;
    std::unique_ptr<sim::Network> net;
    sim::Fabric fabric;
    std::vector<sim::FlowRecord> records;
    int flows = 0;
    PicoTime horizon = 0;
  };

  exp::ShuffleConfig config(exp::Protocol protocol) const {
    exp::ShuffleConfig config;
    config.protocol = protocol;
    config.fabric.k = 4;  // canonical: 16 hosts, 2 per edge switch
    config.fabric.red.enabled = true;
    config.fabric.pfc.enabled = true;
    config.fabric.ecmp_seed = ecmp_seed_;
    config.bytes_per_pair = megabytes(kMegabytesPerPair);
    config.seed = net_seed_;
    return config;
  }

  // The steps of exp::run_shuffle, one span per layer call. Starting the
  // flows at t=0 is the traffic generation, so it counts as set-up.
  std::unique_ptr<State> setup(exp::Protocol protocol) const {
    auto st = std::make_unique<State>();
    sim::FabricConfig fabric;
    {
      Span span(Layer::kExp, "setup");
      st->config = config(protocol);
      fabric = st->config.fabric;
      fabric.red.enabled = fabric.red.enabled && protocol == exp::Protocol::kDcqcn;
    }
    const exp::ShuffleConfig& c = st->config;
    {
      Span span(Layer::kSim, "topology");
      st->net = std::make_unique<sim::Network>(c.seed);
      st->fabric = sim::make_fabric(*st->net, fabric);
    }
    Span span(Layer::kExp, "setup");
    const int hosts = static_cast<int>(st->fabric.hosts.size());
    st->records.reserve(static_cast<std::size_t>(hosts) *
                        static_cast<std::size_t>(hosts - 1));
    {
      Span factories(Layer::kProto, "factories");
      for (sim::Host* host : st->fabric.hosts) {
        host->set_controller_factory(protocol_factory(
            protocol, st->net->sim(), c.dcqcn, c.timely, c.patched));
      }
    }
    State* raw = st.get();
    for (sim::Host* host : st->fabric.hosts) {
      host->on_flow_complete = [raw](const sim::FlowRecord& record) {
        raw->records.push_back(record);
      };
    }
    {
      Span start(Layer::kSim, "start_flows");
      for (int src = 0; src < hosts; ++src) {
        for (int dst = 0; dst < hosts; ++dst) {
          if (src == dst) continue;
          st->fabric.hosts[static_cast<std::size_t>(src)]->start_flow(
              st->fabric.hosts[static_cast<std::size_t>(dst)]->id(),
              c.bytes_per_pair);
          ++st->flows;
        }
      }
    }
    st->horizon = seconds(c.max_time_s);
    return st;
  }

  static exp::ShuffleResult reduce(State& st) {
    exp::ShuffleResult result;
    result.flows = st.flows;
    result.completed = static_cast<int>(st.records.size());
    result.truncated = result.flows - result.completed;
    PicoTime last_end = 0;
    double delivered_bits = 0.0;
    std::vector<double> throughputs;
    throughputs.reserve(st.records.size());
    for (const sim::FlowRecord& record : st.records) {
      last_end = std::max(last_end, record.end);
      delivered_bits += static_cast<double>(record.size) * 8.0;
      if (record.fct() > 0) {
        throughputs.push_back(static_cast<double>(record.size) * 8.0 /
                              to_seconds(record.fct()));
      }
    }
    result.shuffle_time_ms = to_seconds(last_end) * 1e3;
    if (last_end > 0) {
      result.goodput_gbps = delivered_bits / to_seconds(last_end) / 1e9;
    }
    result.jain = jain_fairness(throughputs).value_or(0.0);
    result.drops = st.net->total_drops();
    for (const auto* tier : {&st.fabric.edges, &st.fabric.aggs, &st.fabric.cores}) {
      for (const sim::Switch* sw : *tier) result.pause_frames += sw->pause_frames_sent();
    }
    return result;
  }

  static Observables summarize(const exp::ShuffleResult& r) {
    return {{"flows", static_cast<double>(r.flows)},
            {"completed", static_cast<double>(r.completed)},
            {"truncated", static_cast<double>(r.truncated)},
            {"shuffle_time_ms", r.shuffle_time_ms},
            {"goodput_gbps", r.goodput_gbps},
            {"jain", r.jain},
            {"drops", static_cast<double>(r.drops)},
            {"pause_frames", static_cast<double>(r.pause_frames)}};
  }

  std::uint64_t ecmp_seed_;
};

// ---------------------------------------------------------------------------
// Fluid helpers shared by fluid_many_flows and paper_sweep.

/// A fluid model with its start state and step, for runs and probes.
struct FluidSetup {
  std::unique_ptr<fluid::FluidModel> model;
  std::vector<double> x0;
  double dt = 0.0;
};

/// How a probe reads the live history: `duplicates` lookups of one delayed
/// instant through values_at (symmetric many-flow runs), or single value()
/// reads at jittered delays that jump back and forth in time.
struct LookupPattern {
  std::size_t duplicates = 0;
  const fluid::JitterProcess* jitter = nullptr;
  double delay = 0.0;
};

struct FluidProbe {
  double step_ns = 0.0;
  double rhs_ns = 0.0;  ///< one whole rhs() call
  double lookup_ns = 0.0;
};

/// Median ns per call of `fn` over 31 timed batches, each batch long
/// enough (>= ~50 us) that the clock reads do not dominate.
template <typename Fn>
double ns_per_call(Fn fn) {
  std::size_t batch = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_s() - t0 >= 50e-6 || batch >= (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> samples;
  for (int i = 0; i < 31; ++i) {
    const double t0 = now_s();
    for (std::size_t k = 0; k < batch; ++k) fn();
    samples.push_back((now_s() - t0) * 1e9 / static_cast<double>(batch));
  }
  return median_of(samples);
}

/// Times DdeSolver::step, the model's rhs on the live solver state, and
/// History lookups on the live history, after `warmup` steps.
FluidProbe probe_fluid(const FluidSetup& s, int warmup, const LookupPattern& lookups) {
  fluid::DdeSolver solver(*s.model, s.x0, 0.0, s.dt);
  for (int i = 0; i < warmup; ++i) solver.step();
  FluidProbe p;
  p.step_ns = ns_per_call([&] { solver.step(); });

  std::vector<double> dxdt(s.model->dim());
  p.rhs_ns = ns_per_call(
      [&] { s.model->rhs(solver.time(), solver.state(), solver.history(), dxdt); });

  const fluid::History& history = solver.history();
  const std::size_t var = s.model->queue_index();
  const double t = solver.time();
  double sink = 0.0;
  if (lookups.duplicates > 0) {
    std::vector<double> times(lookups.duplicates, t - lookups.delay);
    std::vector<double> out(lookups.duplicates);
    p.lookup_ns = ns_per_call([&] {
                    history.values_at(var, times, out);
                    sink += out[0];
                  }) /
                  static_cast<double>(times.size());
  } else {
    int k = 0;
    p.lookup_ns = ns_per_call([&] {
      const double jitter = lookups.jitter->value(t - (k++ % 256) * 1e-6);
      sink += history.value(var, t - lookups.delay - jitter);
    });
  }
  if (!std::isfinite(sink)) throw std::runtime_error("probe read a non-finite value");
  return p;
}

/// Combines per-model probes into the workload's fluid layer metrics, each
/// model weighted by the RK4 steps it takes in one pass.
void report_fluid_probes(const std::vector<FluidProbe>& probes,
                         const std::vector<double>& steps,
                         const std::vector<double>& flows,
                         std::map<std::string, double>& out) {
  double w = 0.0, step = 0.0, rhs = 0.0, flow_evals = 0.0, lookup = 0.0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    w += steps[i];
    step += steps[i] * probes[i].step_ns;
    rhs += steps[i] * probes[i].rhs_ns;
    flow_evals += steps[i] * flows[i];
    lookup += steps[i] * probes[i].lookup_ns;
  }
  out["fluid.step_ns"] = step / w;
  out["fluid.rhs_ns_per_flow"] = rhs / flow_evals;
  out["fluid.step_rest_ns"] = (step - 4.0 * rhs) / w;
  out["fluid.history_ns_per_lookup"] = lookup / w;
}

// ---------------------------------------------------------------------------
// fluid_many_flows: simulate_aggregates at the 10k-flow scale target.

class FluidManyFlows final : public Workload {
 public:
  struct Spec {
    const char* name;
    bool dcqcn;
    int flows;
    double horizon_s;
    double dt;
  };
  static constexpr Spec kSpecs[] = {
      {"dcqcn_n10000", true, 10000, 4e-3, 2e-6},
      {"patched_timely_n2000", false, 2000, 6e-3, 1e-6},
  };
  static constexpr double kSampleInterval = 1e-4;

  explicit FluidManyFlows(std::uint64_t seed) : init_seed_(derive(seed, kStreamFluidInit)) {}

  std::size_t units() const override { return std::size(kSpecs); }
  std::string unit_name(std::size_t u) const override { return kSpecs[u].name; }

  UnitRun run_unit(std::size_t u) override {
    const Spec& spec = kSpecs[u];
    UnitRun run;
    run.ops = 1;
    const double t0 = now_s();
    FluidSetup s = setup(spec);
    const double t1 = now_s();
    try {
      fluid::FluidAggregateRun result;
      {
        Span span(Layer::kFluid, "integrate");
        result = fluid::simulate_aggregates(*s.model, spec.horizon_s, kSampleInterval,
                                            s.x0, spec.dt);
      }
      run.outputs = summarize(result);
    } catch (const std::exception& e) {
      fail(run, 1, std::string(spec.name) + ": " + e.what());
    }
    {
      Span span(Layer::kFluid, "teardown");
      s.model.reset();
    }
    run.setup_s = t1 - t0;
    run.run_s = now_s() - t1;
    run.work = flow_steps(spec);
    run.counts["fluid.flow_steps"] = run.work;
    check_finite(run);
    return run;
  }

  double setup_only(std::size_t u) override {
    const double t0 = now_s();
    FluidSetup s = setup(kSpecs[u]);
    const double t1 = now_s();
    return t1 - t0;
  }

  void probe(std::map<std::string, double>& out) override {
    std::vector<FluidProbe> probes;
    std::vector<double> steps, flows;
    for (const Spec& spec : kSpecs) {
      const FluidSetup s = setup(spec);
      LookupPattern lookups;
      lookups.duplicates = static_cast<std::size_t>(spec.flows);
      lookups.delay = 0.5 * s.model->max_delay();
      probes.push_back(probe_fluid(s, 64, lookups));
      steps.push_back(flow_steps(spec) / spec.flows);
      flows.push_back(spec.flows);
    }
    report_fluid_probes(probes, steps, flows, out);
  }

  Observables reference_outputs(std::size_t u) override {
    const Spec& spec = kSpecs[u];
    const FluidSetup s = setup(spec);
    return summarize(fluid::simulate_aggregates(*s.model, spec.horizon_s,
                                                kSampleInterval, s.x0, spec.dt));
  }

 private:
  static double flow_steps(const Spec& spec) {
    return static_cast<double>(spec.flows) * std::round(spec.horizon_s / spec.dt);
  }

  // Symmetric start near the operating point, drawn from the seed: every
  // flow gets the same rate, so the run keeps the symmetric-flow character
  // (one distinct delayed value per lookup) whatever the seed.
  FluidSetup setup(const Spec& spec) const {
    Span span(Layer::kFluid, "model_build");
    Rng rng(init_seed_);
    const double rate_scale = rng.uniform(0.9, 1.1);
    const double queue_u = rng.uniform();
    FluidSetup s;
    s.dt = spec.dt;
    if (spec.dcqcn) {
      fluid::DcqcnFluidParams p;
      p.link_rate = gbps(100.0);
      p.num_flows = spec.flows;
      auto model = std::make_unique<fluid::DcqcnFluidModel>(p);
      s.x0 = model->initial_state();
      const double rate = p.capacity_pps() / spec.flows * rate_scale;
      s.x0[model->queue_index()] =
          p.kmin_pkts() + queue_u * (p.kmax_pkts() - p.kmin_pkts());
      for (int i = 0; i < spec.flows; ++i) {
        s.x0[model->target_rate_index(i)] = rate;
        s.x0[model->rate_index(i)] = rate;
      }
      s.model = std::move(model);
    } else {
      fluid::TimelyFluidParams p = fluid::patched_timely_defaults();
      p.link_rate = gbps(100.0);
      p.delta = mbps(1.0);  // keeps Theorem 5's q* inside the gradient band
      p.num_flows = spec.flows;
      auto model = std::make_unique<fluid::PatchedTimelyFluidModel>(p);
      s.x0 = model->initial_state();
      s.x0[model->queue_index()] = model->fixed_point_queue_pkts() * (0.5 + queue_u);
      const double rate = p.capacity_pps() / spec.flows * rate_scale;
      for (int i = 0; i < spec.flows; ++i) s.x0[model->rate_index(i)] = rate;
      s.model = std::move(model);
    }
    return s;
  }

  static Observables summarize(const fluid::FluidAggregateRun& r) {
    if (r.queue_bytes.empty()) return {{"samples", 0.0}};
    return {{"samples", static_cast<double>(r.queue_bytes.size())},
            {"t_final", r.queue_bytes.back().t},
            {"queue_bytes", r.queue_bytes.back().value},
            {"sum_rate_gbps", r.sum_rate_gbps.back().value},
            {"min_rate_gbps", r.min_rate_gbps.back().value},
            {"max_rate_gbps", r.max_rate_gbps.back().value},
            {"jain", r.jain_fairness.back().value}};
  }

  std::uint64_t init_seed_;
};

// ---------------------------------------------------------------------------
// paper_sweep: the analysis grid of Figures 3, 11 and 20 on the sweep engine.

class PaperSweep final : public Workload {
 public:
  static constexpr double kJitterDuration = 0.3;
  static constexpr double kJitterSample = 2e-4;

  explicit PaperSweep(std::uint64_t seed)
      : jitter_seed_(derive(seed, kStreamJitter)),
        workers_(std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4)) {}

  std::size_t units() const override { return 1; }
  std::string unit_name(std::size_t) const override { return "grid"; }
  std::size_t workers() const override { return workers_; }

  UnitRun run_unit(std::size_t) override {
    UnitRun run;
    const double t0 = now_s();
    const std::vector<Cell> cells = build_grid();
    const double t1 = now_s();
    std::vector<Observables> rows(cells.size());
    std::vector<double> flow_steps(cells.size(), 0.0);
    par::IsolationReport report;
    {
      Span sweep(Layer::kCore, "sweep");
      const int sweep_id = sweep.id();
      const double weight = 1.0 / static_cast<double>(workers_);
      report = par::parallel_for_each_isolated(
          cells.size(),
          [&](std::size_t i, int) {
            Span task(Layer::kCore, "task", sweep_id, static_cast<std::uint32_t>(i),
                      weight);
            rows[i] = run_cell(cells[i], &flow_steps[i]);
          },
          par::FaultPolicy{1}, workers_);
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      for (const auto& [name, value] : rows[i]) {
        run.outputs.emplace_back(cells[i].name + "." + name, value);
      }
    }
    for (const par::TaskFailureRecord& f : report.failures) {
      fail(run, 1, cells[f.index].name + ": " + f.message);
    }
    run.setup_s = t1 - t0;
    run.run_s = now_s() - t1;
    run.ops = cells.size();
    run.work = static_cast<double>(cells.size());
    double steps = 0.0;
    for (double s : flow_steps) steps += s;
    run.counts["fluid.flow_steps"] = steps;
    run.counts["par.efficiency"] =
        report.timing.task_sum_s /
        (static_cast<double>(report.timing.threads) * report.timing.wall_s);
    run.counts["par.task_max_s"] = report.timing.task_max_s;
    check_finite(run);
    return run;
  }

  double setup_only(std::size_t) override {
    const double t0 = now_s();
    const std::vector<Cell> cells = build_grid();
    const double t1 = now_s();
    return t1 - t0;
  }

  void probe(std::map<std::string, double>& out) override {
    // The Figure-20 cells at the largest jitter: 2-flow histories read at
    // jittered delays, so the lookup cursor jumps back and forth.
    std::vector<FluidProbe> probes;
    std::vector<double> steps, flows;
    for (const Cell& cell : build_grid()) {
      if (cell.kind != Cell::kJitterFluid || cell.jitter_us < 100.0) continue;
      FluidSetup s = fluid_setup(cell);
      LookupPattern lookups;
      lookups.jitter = &cell.jitter;
      lookups.delay = cell.dcqcn_fluid ? cell.dcqcn.feedback_delay
                                       : cell.timely.base_feedback_delay();
      probes.push_back(probe_fluid(s, 4000, lookups));
      steps.push_back(std::round(kJitterDuration / s.dt));
      flows.push_back(2.0);
    }
    report_fluid_probes(probes, steps, flows, out);
  }

  Observables reference_outputs(std::size_t) override {
    // Each cell through the analysis layer's one-call entry points.
    Observables out;
    for (const Cell& cell : build_grid()) {
      Observables row;
      switch (cell.kind) {
        case Cell::kDcqcnMargin: {
          fluid::DcqcnFluidParams ext = cell.dcqcn;
          ext.red_linear_extension = true;
          const auto fp = control::solve_dcqcn_fixed_point(ext);
          const auto rep = control::dcqcn_stability(cell.dcqcn);
          row = margin_row(fp.q_star_pkts, fp.interior, &rep);
          break;
        }
        case Cell::kTimelyMargin: {
          const auto fp = control::patched_timely_fixed_point(cell.timely);
          const bool interior = fp.q_star_pkts < cell.timely.qhigh_pkts();
          std::optional<control::StabilityReport> rep;
          if (interior) rep = control::patched_timely_stability(cell.timely);
          row = margin_row(fp.q_star_pkts, interior, rep ? &*rep : nullptr);
          break;
        }
        case Cell::kJitterFluid: {
          const FluidSetup s = fluid_setup(cell);
          row = jitter_row(fluid::simulate(*s.model, kJitterDuration, kJitterSample));
          break;
        }
      }
      for (const auto& [name, value] : row) out.emplace_back(cell.name + "." + name, value);
    }
    return out;
  }

 private:
  struct Cell {
    enum Kind { kDcqcnMargin, kTimelyMargin, kJitterFluid };
    Kind kind = kDcqcnMargin;
    std::string name;
    fluid::DcqcnFluidParams dcqcn;
    fluid::TimelyFluidParams timely;
    bool dcqcn_fluid = true;
    double jitter_us = 0.0;
    fluid::JitterProcess jitter;
  };

  // Figure 20's fluid cells first: they are the longest tasks, and the
  // sweep engine hands out indices in order.
  std::vector<Cell> build_grid() const {
    Span span(Layer::kBench, "build_grid");
    std::vector<Cell> cells;
    char name[64];
    for (bool dcqcn : {false, true}) {
      for (double jitter_us : {100.0, 50.0, 0.0}) {
        Cell c;
        c.kind = Cell::kJitterFluid;
        c.dcqcn_fluid = dcqcn;
        c.jitter_us = jitter_us;
        if (jitter_us > 0.0) c.jitter = fluid::JitterProcess(jitter_us * 1e-6, 20e-6, jitter_seed_);
        c.dcqcn.num_flows = 2;
        c.timely = fluid::patched_timely_defaults();
        c.timely.num_flows = 2;
        c.dcqcn.feedback_jitter = c.jitter;
        c.timely.feedback_jitter = c.jitter;
        std::snprintf(name, sizeof(name), "fig20.%s.j%g",
                      dcqcn ? "dcqcn" : "patched_timely", jitter_us);
        c.name = name;
        cells.push_back(std::move(c));
      }
    }
    const std::vector<int> flow_counts{2, 4, 6, 8, 10, 16, 24, 32, 48, 64, 100};
    auto add_dcqcn = [&](const char* tag, double value, auto apply) {
      for (int n : flow_counts) {
        Cell c;
        c.kind = Cell::kDcqcnMargin;
        c.dcqcn.num_flows = n;
        apply(c.dcqcn, value);
        std::snprintf(name, sizeof(name), "fig03.%s%g.n%d", tag, value, n);
        c.name = name;
        cells.push_back(std::move(c));
      }
    };
    for (double tau_us : {1.0, 20.0, 50.0, 85.0, 100.0}) {
      add_dcqcn("tau_us", tau_us, [](fluid::DcqcnFluidParams& p, double v) {
        p.feedback_delay = v * 1e-6;
      });
    }
    for (double rai : {40.0, 20.0, 10.0, 5.0}) {
      add_dcqcn("rai_mbps", rai, [](fluid::DcqcnFluidParams& p, double v) {
        p.feedback_delay = 100e-6;
        p.rate_ai = mbps(v);
      });
    }
    for (double kmax : {200.0, 400.0, 1000.0}) {
      add_dcqcn("kmax_kb", kmax, [](fluid::DcqcnFluidParams& p, double v) {
        p.feedback_delay = 100e-6;
        p.kmax = kilobytes(v);
      });
    }
    for (int n : {2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 56, 64, 72}) {
      Cell c;
      c.kind = Cell::kTimelyMargin;
      c.timely = fluid::patched_timely_defaults();
      c.timely.num_flows = n;
      std::snprintf(name, sizeof(name), "fig11.n%d", n);
      c.name = name;
      cells.push_back(std::move(c));
    }
    return cells;
  }

  static FluidSetup fluid_setup(const Cell& cell) {
    Span span(Layer::kFluid, "model_build");
    FluidSetup s;
    if (cell.dcqcn_fluid) {
      s.model = std::make_unique<fluid::DcqcnFluidModel>(cell.dcqcn);
    } else {
      s.model = std::make_unique<fluid::PatchedTimelyFluidModel>(cell.timely);
    }
    s.x0 = s.model->initial_state();
    s.dt = s.model->suggested_dt();
    return s;
  }

  static Observables margin_row(double q_star_pkts, bool interior,
                                const control::StabilityReport* rep) {
    Observables row{{"q_star_pkts", q_star_pkts}, {"interior", interior ? 1.0 : 0.0}};
    if (rep != nullptr) {
      row.emplace_back("pm_deg", rep->phase_margin_deg);
      row.emplace_back("crossover_rad_s", rep->crossover_rad_s);
      row.emplace_back("crossovers", rep->crossovers);
    }
    return row;
  }

  // Figure 20's row reduction over the settled window [0.2, 0.3] s.
  static Observables jitter_row(const fluid::FluidRun& run) {
    const auto osc = obs::oscillation(run.queue_bytes, 0.2, 0.3, std::nullopt, 2e3);
    return {{"queue_mean_kb", run.queue_bytes.mean_over(0.2, 0.3) / 1e3},
            {"queue_std_kb", run.queue_bytes.stddev_over(0.2, 0.3) / 1e3},
            {"rate0_std_gbps", run.flow_rate_gbps[0].stddev_over(0.2, 0.3)},
            {"sum_rate_gbps", run.flow_rate_gbps[0].mean_over(0.2, 0.3) +
                                  run.flow_rate_gbps[1].mean_over(0.2, 0.3)},
            {"osc_pp_kb", osc.peak_to_peak / 1e3},
            {"osc_period_us", osc.period * 1e6}};
  }

  Observables run_cell(const Cell& cell, double* flow_steps) const {
    switch (cell.kind) {
      case Cell::kDcqcnMargin: {
        Span span(Layer::kControl, "stability");
        fluid::DcqcnFluidParams ext = cell.dcqcn;
        ext.red_linear_extension = true;
        control::DcqcnFixedPoint fp;
        {
          Span s(Layer::kControl, "fixed_point");
          fp = control::solve_dcqcn_fixed_point(ext);
        }
        control::DelayedLinearization lin;
        {
          Span s(Layer::kControl, "linearize");
          lin = control::linearize_dcqcn(cell.dcqcn);
        }
        control::StabilityReport rep;
        {
          Span s(Layer::kControl, "bode");
          rep = control::phase_margin(lin);
        }
        return margin_row(fp.q_star_pkts, fp.interior, &rep);
      }
      case Cell::kTimelyMargin: {
        Span span(Layer::kControl, "stability");
        control::PatchedTimelyFixedPoint fp;
        {
          Span s(Layer::kControl, "fixed_point");
          fp = control::patched_timely_fixed_point(cell.timely);
        }
        // Past C*T_high there is no interior fixed point to linearize
        // around (Figure 11's "-" rows); that is a result, not a failure.
        if (fp.q_star_pkts >= cell.timely.qhigh_pkts()) {
          return margin_row(fp.q_star_pkts, false, nullptr);
        }
        control::DelayedLinearization lin;
        {
          Span s(Layer::kControl, "linearize");
          lin = control::linearize_patched_timely(cell.timely);
        }
        control::StabilityReport rep;
        {
          Span s(Layer::kControl, "bode");
          rep = control::phase_margin(lin);
        }
        return margin_row(fp.q_star_pkts, true, &rep);
      }
      case Cell::kJitterFluid: {
        const FluidSetup s = fluid_setup(cell);
        fluid::FluidRun run;
        {
          Span span(Layer::kFluid, "integrate");
          run = fluid::simulate(*s.model, kJitterDuration, kJitterSample);
        }
        *flow_steps = 2.0 * std::round(kJitterDuration / s.dt);
        Span span(Layer::kObs, "reduce");
        return jitter_row(run);
      }
    }
    return {};
  }

  std::uint64_t jitter_seed_;
  std::size_t workers_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames{"fct_dumbbell", "fabric_shuffle",
                                               "fluid_many_flows", "paper_sweep"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fct_dumbbell") return std::make_unique<FctDumbbell>(seed);
  if (name == "fabric_shuffle") return std::make_unique<FabricShuffle>(seed);
  if (name == "fluid_many_flows") return std::make_unique<FluidManyFlows>(seed);
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(seed);
  return nullptr;
}

}  // namespace perfbench
