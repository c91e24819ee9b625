// fault_study: the paper's Figure-20 question — what happens to DCQCN (ECN
// feedback) and TIMELY (delay feedback) when the feedback channel degrades —
// pushed past jitter into outright loss: each run injects seeded CNP loss
// (DCQCN) or ACK loss (TIMELY) at 0.1%–5% and reports fairness, utilization
// and queue behavior. DCQCN's coalesced CNPs make a lost notification cost
// one 50µs window at most, so it degrades gracefully; TIMELY has no fixed
// point (Theorem 3), so rates that loss pushed apart have nothing pulling
// them back together and fairness collapses.
//
// Runs are deterministic: the fault injector draws from its own seeded RNG
// stream, so the same arguments always produce byte-identical CSV. The
// (protocol, loss) grid runs on the parallel sweep engine — each run owns
// its network, injector and traces — and rows print from pre-sized slots,
// so the CSV is also byte-identical at any ECND_THREADS.
//
// Usage: fault_study [flows] [duration_s] [seed]
// Bad arguments print usage and exit 2, as does a duration the packet
// clock's 64-bit picosecond count cannot hold (about 9.22e6 s).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_args.hpp"
#include "core/parallel.hpp"
#include "core/stats.hpp"
#include "core/units.hpp"
#include "exp/scenarios.hpp"
#include "obs/manifest.hpp"

using namespace ecnd;

namespace {

struct Row {
  exp::Protocol protocol;
  double loss;
  double jain = 0.0;
  double min_rate_gbps = 0.0;
  double max_rate_gbps = 0.0;
  double utilization = 0.0;
  double queue_mean_kb = 0.0;
  double queue_max_kb = 0.0;
  std::uint64_t feedback_dropped = 0;
};

Row run_one(exp::Protocol protocol, double loss, int flows, double duration_s,
            std::uint64_t seed) {
  exp::LongFlowConfig config;
  config.protocol = protocol;
  config.flows = flows;
  config.duration_s = duration_s;
  config.seed = seed;
  config.fault_seed = seed * 1000 + 7;  // independent fault stream
  // Figure-9-style staggered starts: DCQCN converges from anywhere; TIMELY
  // keeps whatever unfairness the stagger (and then the loss) hands it.
  for (int i = 0; i < flows; ++i) {
    config.start_times_s.push_back(i * duration_s / (20.0 * flows));
  }
  if (protocol == exp::Protocol::kDcqcn) {
    config.faults.cnp_loss = loss;
  } else {
    config.faults.ack_loss = loss;
  }
  // Watchdog, not a tuning knob: a degraded-feedback run that spins must die
  // loudly instead of hanging the sweep.
  config.event_budget = 500'000'000;

  const auto result = exp::run_long_flows(config);

  Row row;
  row.protocol = protocol;
  row.loss = loss;
  // Fairness over the settled tail: mean rate of each flow in the last 30%.
  std::vector<double> tail_rates;
  for (const auto& series : result.rate_gbps) {
    tail_rates.push_back(series.mean_over(0.7 * duration_s, duration_s));
  }
  row.jain = require_stat(jain_fairness(tail_rates), "jain(tail_rates)");
  row.min_rate_gbps = tail_rates.empty() ? 0.0 : *std::min_element(tail_rates.begin(), tail_rates.end());
  row.max_rate_gbps = tail_rates.empty() ? 0.0 : *std::max_element(tail_rates.begin(), tail_rates.end());
  row.utilization = result.utilization;
  row.queue_mean_kb = result.queue_bytes.mean_over(0.0, duration_s) / 1e3;
  row.queue_max_kb =
      require_stat(result.queue_bytes.max_over(0.0, duration_s), "queue max") / 1e3;
  row.feedback_dropped =
      result.faults.cnps_dropped + result.faults.acks_dropped;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  int flows = 10;
  double duration_s = 0.1;
  std::uint64_t seed = 1;
  if (argc > 4 || (argc > 1 && !cli::parse_int(argv[1], flows)) ||
      (argc > 2 && !cli::parse_double(argv[2], duration_s)) ||
      (argc > 3 && !cli::parse_seed(argv[3], seed)) || flows <= 0 ||
      duration_s <= 0.0 ||
      !(duration_s * static_cast<double>(kPicosPerSecond) < 0x1p63)) {
    std::fprintf(stderr,
                 "usage: fault_study [flows > 0] [0 < duration_s < 9.2e6] [seed]\n"
                 "(a run with no flows has no fairness to report; the packet\n"
                 "clock counts picoseconds in 64 bits, about 9.22e6 s)\n");
    return 2;
  }

  const std::vector<double> losses = {0.0, 0.001, 0.005, 0.01, 0.02, 0.05};
  std::vector<std::pair<exp::Protocol, double>> grid;
  for (exp::Protocol protocol :
       {exp::Protocol::kDcqcn, exp::Protocol::kTimely}) {
    for (double loss : losses) grid.emplace_back(protocol, loss);
  }

  par::SweepTiming timing;
  const std::vector<Row> rows = par::parallel_map(
      grid,
      [&](const std::pair<exp::Protocol, double>& cell) {
        return run_one(cell.first, cell.second, flows, duration_s, seed);
      },
      0, &timing);
  std::fprintf(stderr,
               "[fault_study] %zu runs on %zu threads: wall %.2fs "
               "(serial-equivalent %.2fs)\n",
               timing.tasks, timing.threads, timing.wall_s, timing.task_sum_s);

  std::size_t slot = 0;
  for (exp::Protocol protocol :
       {exp::Protocol::kDcqcn, exp::Protocol::kTimely}) {
    std::printf("%s, %d flows, %.3gs, seed %llu: feedback loss sweep\n",
                exp::protocol_name(protocol), flows, duration_s,
                static_cast<unsigned long long>(seed));
    std::printf("  %7s  %6s  %9s  %9s  %5s  %10s  %9s  %8s\n", "loss", "jain",
                "min Gb/s", "max Gb/s", "util", "queue KB", "max KB",
                "dropped");
    for (std::size_t i = 0; i < losses.size(); ++i) {
      const Row& row = rows[slot++];
      std::printf(
          "  %6.2f%%  %6.4f  %9.3f  %9.3f  %5.2f  %10.1f  %9.1f  %8llu\n",
          row.loss * 100.0, row.jain, row.min_rate_gbps, row.max_rate_gbps,
          row.utilization, row.queue_mean_kb, row.queue_max_kb,
          static_cast<unsigned long long>(row.feedback_dropped));
    }
    std::printf("\n");
  }

  // Machine-readable block (same numbers; byte-identical for a given seed).
  std::printf("csv,protocol,loss,jain,min_rate_gbps,max_rate_gbps,utilization,"
              "queue_mean_kb,queue_max_kb,feedback_dropped\n");
  for (const Row& row : rows) {
    std::printf("csv,%s,%.4f,%.6f,%.6f,%.6f,%.6f,%.3f,%.3f,%llu\n",
                exp::protocol_name(row.protocol), row.loss, row.jain,
                row.min_rate_gbps, row.max_rate_gbps, row.utilization,
                row.queue_mean_kb, row.queue_max_kb,
                static_cast<unsigned long long>(row.feedback_dropped));
  }

  // Manifest: one jain/utilization observable per (protocol, loss) cell plus
  // the §5.2 contrast the study exists to show — DCQCN's fairness floor
  // across the whole loss sweep vs TIMELY's.
  obs::RunManifest manifest("fault_study");
  manifest.param("flows", flows)
      .param("duration_s", duration_s)
      .param("seed", seed)
      .param("losses", "0,0.001,0.005,0.01,0.02,0.05");
  double jain_floor_dcqcn = 1.0, jain_floor_timely = 1.0;
  for (const Row& row : rows) {
    char key[48];
    std::snprintf(key, sizeof(key), ".%s.loss%04d",
                  exp::protocol_key(row.protocol),
                  static_cast<int>(row.loss * 10000 + 0.5));
    manifest.observable("jain" + std::string(key), row.jain)
        .observable("utilization" + std::string(key), row.utilization)
        .observable("feedback_dropped" + std::string(key),
                    row.feedback_dropped);
    double& floor = row.protocol == exp::Protocol::kDcqcn ? jain_floor_dcqcn
                                                          : jain_floor_timely;
    floor = std::min(floor, row.jain);
  }
  manifest.observable("jain_floor.dcqcn", jain_floor_dcqcn)
      .observable("jain_floor.timely", jain_floor_timely);
  manifest.write_if_requested();
  return 0;
}
