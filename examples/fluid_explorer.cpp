// fluid_explorer: integrate any of the paper's fluid models from the command
// line and dump the queue/rate traces as CSV — the fastest way to explore
// parameter space (the reason the paper built fluid models at all).
//
// Usage:
//   fluid_explorer dcqcn   [N] [feedback_delay_us] [duration_s]
//   fluid_explorer timely  [N] [jitter_us]         [duration_s]
//   fluid_explorer patched [N] [jitter_us]         [duration_s]
//   fluid_explorer dcqcn-pi [N] [qref_pkts]        [duration_s]
//
// Output: CSV on stdout with columns t, queue_kb, rate0_gbps, rate1_gbps...
// Bad arguments (or parameters a model rejects) print usage and exit 2.

#include <cstdio>
#include <cstring>
#include <memory>

#include "core/cli_args.hpp"
#include "core/diagnostic.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/pi_models.hpp"
#include "fluid/timely_model.hpp"

using namespace ecnd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fluid_explorer dcqcn    [N >= 1] [feedback_delay_us >= 0] [duration_s > 0]\n"
               "       fluid_explorer timely   [N >= 1] [jitter_us >= 0]         [duration_s > 0]\n"
               "       fluid_explorer patched  [N >= 1] [jitter_us >= 0]         [duration_s > 0]\n"
               "       fluid_explorer dcqcn-pi [N >= 1] [qref_pkts >= 0]         [duration_s > 0]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* which = argc > 1 ? argv[1] : "dcqcn";
  int n = 2;
  double knob = 4.0;
  double duration = 0.1;
  if (argc > 5 || (argc > 2 && !cli::parse_int(argv[2], n)) ||
      (argc > 3 && !cli::parse_double(argv[3], knob)) ||
      (argc > 4 && !cli::parse_double(argv[4], duration)) || n < 1 ||
      knob < 0.0 || duration <= 0.0) {
    return usage();
  }

  std::unique_ptr<fluid::FluidModel> model;
  try {
    if (std::strcmp(which, "dcqcn") == 0) {
      fluid::DcqcnFluidParams p;
      p.num_flows = n;
      p.feedback_delay = knob * 1e-6;
      model = std::make_unique<fluid::DcqcnFluidModel>(p);
    } else if (std::strcmp(which, "timely") == 0) {
      fluid::TimelyFluidParams p;
      p.num_flows = n;
      if (knob > 0.0) p.feedback_jitter = fluid::JitterProcess(knob * 1e-6, 20e-6, 1);
      model = std::make_unique<fluid::TimelyFluidModel>(p);
    } else if (std::strcmp(which, "patched") == 0) {
      fluid::TimelyFluidParams p = fluid::patched_timely_defaults();
      p.num_flows = n;
      if (knob > 0.0) p.feedback_jitter = fluid::JitterProcess(knob * 1e-6, 20e-6, 1);
      model = std::make_unique<fluid::PatchedTimelyFluidModel>(p);
    } else if (std::strcmp(which, "dcqcn-pi") == 0) {
      fluid::DcqcnFluidParams p;
      p.num_flows = n;
      fluid::PiControllerParams pi;
      if (knob > 0.0) pi.qref_pkts = knob;
      model = std::make_unique<fluid::DcqcnPiFluidModel>(p, pi);
    } else {
      std::fprintf(stderr, "unknown model '%s'\n", which);
      return usage();
    }
  } catch (const InvariantViolation& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage();
  }

  const auto run = fluid::simulate(*model, duration, duration / 2000.0);

  std::printf("t_s,queue_kb");
  for (int i = 0; i < model->num_flows(); ++i) std::printf(",rate%d_gbps", i);
  std::printf("\n");
  for (std::size_t s = 0; s < run.queue_bytes.size(); ++s) {
    const double t = run.queue_bytes[s].t;
    std::printf("%.6f,%.3f", t, run.queue_bytes[s].value / 1e3);
    for (const auto& series : run.flow_rate_gbps) {
      std::printf(",%.4f", series.value_at(t));
    }
    std::printf("\n");
  }
  return 0;
}
