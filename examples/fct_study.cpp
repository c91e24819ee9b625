// fct_study: run the paper's §5.1 flow-completion-time experiment for one
// protocol and load from the command line, printing the FCT summary, the
// CDF tail, and the bottleneck queue shape.
//
// Usage: fct_study [dcqcn|timely|patched] [load] [num_flows] [seed]
// Bad arguments (including an unknown protocol) print usage and exit 2.

#include <cstdio>
#include <cstring>

#include "core/cli_args.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "exp/scenarios.hpp"

using namespace ecnd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fct_study [dcqcn|timely|patched] [load > 0] "
               "[flows > 0] [seed]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  exp::Protocol protocol = exp::Protocol::kDcqcn;
  if (argc > 1) {
    if (std::strcmp(argv[1], "timely") == 0) {
      protocol = exp::Protocol::kTimely;
    } else if (std::strcmp(argv[1], "patched") == 0) {
      protocol = exp::Protocol::kPatchedTimely;
    } else if (std::strcmp(argv[1], "dcqcn") != 0) {
      std::fprintf(stderr, "unknown protocol '%s'\n", argv[1]);
      return usage();
    }
  }
  double load = 0.6;
  int flows = 1500;
  std::uint64_t seed = 1;
  if (argc > 5 || (argc > 2 && !cli::parse_double(argv[2], load)) ||
      (argc > 3 && !cli::parse_int(argv[3], flows)) ||
      (argc > 4 && !cli::parse_seed(argv[4], seed)) || load <= 0.0 ||
      flows <= 0) {
    return usage();
  }

  auto config = exp::make_fct_config(protocol, load);
  config.num_flows = flows;
  config.seed = seed;

  std::printf("%s at load %.2f (%d flows, seed %llu)...\n",
              exp::protocol_name(protocol), load, flows,
              static_cast<unsigned long long>(seed));
  const auto result = exp::run_fct_experiment(config);

  std::printf("\nsmall flows (<100KB): n=%zu\n", result.small.count);
  std::printf("  median %8.1f us\n  p90    %8.1f us\n  p99    %8.1f us\n",
              result.small.median_us, result.small.p90_us, result.small.p99_us);
  std::printf("all flows: median %.1f us, p99 %.1f us\n",
              result.overall.median_us, result.overall.p99_us);
  std::printf("bottleneck queue: mean %.1f KB, max %.1f KB\n",
              result.queue_bytes.mean_over(0.0, 1e9) / 1e3,
              require_stat(result.queue_bytes.max_over(0.0, 1e9), "queue max") / 1e3);
  std::printf("drops: %llu, all completed: %s\n",
              static_cast<unsigned long long>(result.drops),
              result.all_completed ? "yes" : "NO");

  std::printf("\nsmall-flow FCT CDF tail:\n");
  const auto cdf = empirical_cdf(result.small_fcts_us, 200);
  for (double frac : {0.5, 0.75, 0.9, 0.95, 0.99}) {
    for (const auto& point : cdf) {
      if (point.fraction >= frac) {
        std::printf("  P%2.0f  %10.1f us\n", frac * 100.0, point.value);
        break;
      }
    }
  }
  return 0;
}
