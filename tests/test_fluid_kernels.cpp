// Bit-identity pins for the per-flow fluid kernels at a size where the
// fast paths stop being uniform: N = 37 (odd, so every vectorized pass ends
// in a scalar tail), a block of 21 bitwise-identical flows (one long run of
// shared DCQCN coefficients and of values_at duplicates) followed by 16
// distinct ones (fresh coefficients and a fresh history search per flow),
// and starts inside each model's active region (DCQCN's marking band,
// Equation 29's gradient band).
//
// Each pin holds 17-digit end-state values, a digest of the whole end
// state, and digests of rhs() itself early in the transient and at the end.
// The rhs digests matter: a one-ulp change in a small derivative term is
// usually absorbed by the state's much larger ulp, but never by dx/dt.
// All were recorded from the engine before the per-flow loops were
// rewritten as flat passes and the solver's bounds moved into its RK4
// loops. Any mismatch means a floating-point expression changed shape, not
// just its schedule.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fnv1a.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/dde_solver.hpp"
#include "fluid/fluid_model.hpp"
#include "fluid/pi_models.hpp"
#include "fluid/timely_model.hpp"

namespace ecnd::fluid {
namespace {

constexpr int kFlows = 37;
constexpr int kIdentical = 21;  // flows [0, 21) share one state

/// Spread of flow i over [lo, hi]: constant for the identical block, then
/// distinct per flow.
double spread(int i, double lo, double hi) {
  const int j = i < kIdentical ? 0 : i - kIdentical + 1;
  return lo + (hi - lo) * j / static_cast<double>(kFlows - kIdentical);
}

/// FNV-1a over the raw bits of the state: any single-bit change moves it.
std::uint64_t digest(std::span<const double> x) {
  return fnv1a64(std::string_view(reinterpret_cast<const char*>(x.data()),
                                  x.size() * sizeof(double)));
}

/// The recorded results of one pinned run.
struct Pin {
  std::uint64_t early_rhs;  // digest of rhs() at t = 0.2 ms
  std::uint64_t end_rhs;    // digest of rhs() at the end state
  double t;
  std::uint64_t digest;     // of the end state
  double q;
  double r0;   // first flow of the identical block
  double r36;  // last distinct flow
};

void expect_pin(const FluidModel& m, std::vector<double> x0, const Pin& pin) {
  DdeSolver solver(m, std::move(x0), 0.0, m.suggested_dt());
  std::vector<double> dxdt(m.dim());
  solver.run_until(2e-4, nullptr, 0.0);
  m.rhs(solver.time(), solver.state(), solver.history(), dxdt);
  EXPECT_EQ(digest(dxdt), pin.early_rhs);
  solver.run_until(2e-3, nullptr, 0.0);
  const std::span<const double> x = solver.state();
  EXPECT_EQ(solver.time(), pin.t);
  EXPECT_EQ(digest(x), pin.digest);
  EXPECT_EQ(x[m.queue_index()], pin.q);
  EXPECT_EQ(x[m.rate_index(0)], pin.r0);
  EXPECT_EQ(x[m.rate_index(kIdentical - 1)], pin.r0);
  EXPECT_EQ(x[m.rate_index(kFlows - 1)], pin.r36);
  m.rhs(solver.time(), x, solver.history(), dxdt);
  EXPECT_EQ(digest(dxdt), pin.end_rhs);
}

TEST(FluidKernelPins, DcqcnOddFlowCountMixedRuns) {
  DcqcnFluidParams p;
  p.num_flows = kFlows;
  DcqcnFluidModel m(p);
  auto x0 = m.initial_state();
  const double c = p.capacity_pps();
  x0[m.queue_index()] = 100.0;  // inside the Kmin..Kmax marking band
  for (int i = 0; i < kFlows; ++i) {
    x0[m.alpha_index(i)] = spread(i, 0.1, 0.9);
    x0[m.rate_index(i)] = c / kFlows * spread(i, 0.6, 1.4);
    x0[m.target_rate_index(i)] = c / kFlows * spread(i, 0.8, 1.6);
  }
  expect_pin(m, std::move(x0),
             {10042174669102536785u, 14437980740699397998u, 0.002,
              5930315798499820562u, 141.21631494927806,
              46743.924501597809, 14222.144123275513});
}

/// TIMELY-family start: 9% overload from inside [C*T_low, C*T_high], with
/// gradients spread over [-g, g].
std::vector<double> timely_start(const TimelyFluidBase& m, double g) {
  auto x0 = m.initial_state();
  const double c = m.capacity_pps();
  x0[m.queue_index()] = 200.0;
  for (int i = 0; i < kFlows; ++i) {
    x0[m.rate_index(i)] = c / kFlows * spread(i, 1.0, 1.4);
    x0[m.gradient_index(i)] = spread(i, -g, g);
  }
  return x0;
}

TEST(FluidKernelPins, TimelyOddFlowCountMixedLookups) {
  TimelyFluidParams p;
  p.num_flows = kFlows;
  TimelyFluidModel m(p);
  expect_pin(m, timely_start(m, 0.3),
             {9218761608704041488u, 10858740056058448734u,
              0.0020002499999999999, 7270607688183904559u, 0.0,
              20164.531165535605, 18586.164181464239});
}

TEST(FluidKernelPins, TimelyGradientBranchDerivatives) {
  // rhs() with the measured queue inside [C*T_low, C*T_high], so every flow
  // takes Equation 21's gradient branch, with gradients of both signs and
  // exactly 0 (where the strict variant of Equation 28 differs).
  for (const bool strict : {false, true}) {
    TimelyFluidParams p;
    p.num_flows = kFlows;
    p.strict_gradient_zero = strict;
    TimelyFluidModel m(p);
    std::vector<double> x = m.initial_state();
    x[m.queue_index()] = 300.0;
    for (int i = 0; i < kFlows; ++i) {
      x[m.rate_index(i)] = 2e4 + 977.0 * i;
      x[m.gradient_index(i)] = (i - 18) / 60.0;
    }
    History h(m.dim());
    h.append(0.0, x);
    h.append(1e-3, x);
    std::vector<double> dxdt(m.dim());
    m.rhs(1e-3, x, h, dxdt);
    EXPECT_EQ(digest(dxdt),
              strict ? 996093503277131725u : 15619860647908257682u);
    EXPECT_EQ(dxdt[m.rate_index(0)], 1562500.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dxdt[m.rate_index(18)]),
              std::bit_cast<std::uint64_t>(strict ? -0.0 : 2936406.25));
    EXPECT_EQ(dxdt[m.rate_index(36)], -45659243.759999998);
  }
}

TEST(FluidKernelPins, TimelyWithJitterOddFlowCount) {
  TimelyFluidParams p;
  p.num_flows = kFlows;
  p.feedback_jitter = JitterProcess(20e-6, 10e-6, 42);
  TimelyFluidModel m(p);
  expect_pin(m, timely_start(m, 0.3),
             {16921473404597572731u, 4117464595191383928u,
              0.0020002499999999999, 9888815123956132833u, 0.0,
              19833.94657159159, 18339.887166959805});
}

TEST(FluidKernelPins, PatchedTimelyInsideGradientBand) {
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = kFlows;
  PatchedTimelyFluidModel m(p);
  // |g| < 1/4 puts every flow on the ramp of w(g) (Equation 30).
  expect_pin(m, timely_start(m, 0.2),
             {16833565007331574806u, 14292506827932018217u,
              0.0020002499999999999, 7410061228965816623u, 349.80971104690542,
              31186.457955127, 40873.573279075026});
}

TEST(FluidKernelPins, DcqcnPiOddFlowCountMixedRuns) {
  DcqcnFluidParams p;
  p.num_flows = kFlows;
  DcqcnPiFluidModel m(p, PiControllerParams{});
  auto x0 = m.initial_state();
  const double c = p.capacity_pps();
  x0[m.queue_index()] = 60.0;
  x0[m.marking_index()] = 0.01;
  for (int i = 0; i < kFlows; ++i) {
    x0[m.alpha_index(i)] = spread(i, 0.1, 0.9);
    x0[m.rate_index(i)] = c / kFlows * spread(i, 0.6, 1.4);
    x0[m.target_rate_index(i)] = c / kFlows * spread(i, 0.8, 1.6);
  }
  expect_pin(m, std::move(x0),
             {6881513555864510832u, 16830048839261701368u, 0.002,
              2912866762744421579u, 2506.7146838912931,
              75464.120887677927, 47343.513552427423});
}

TEST(FluidKernelPins, PatchedTimelyPiInsideGradientBand) {
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = kFlows;
  PatchedTimelyPiFluidModel m(p, TimelyPiParams{});
  auto x0 = m.initial_state();
  const double c = p.capacity_pps();
  x0[m.queue_index()] = 200.0;
  for (int i = 0; i < kFlows; ++i) {
    x0[m.rate_index(i)] = c / kFlows * spread(i, 1.0, 1.4);
    x0[m.gradient_index(i)] = spread(i, -0.2, 0.2);
    x0[m.pi_state_index(i)] = spread(i, -0.5, 0.5);
  }
  expect_pin(m, std::move(x0),
             {13488256229528500898u, 15311175561384938772u,
              0.0020002499999999999, 15148162869199068552u, 479.22488773214718,
              34996.870964586378, 46205.385187688466});
}

// ---------------------------------------------------------------------------
// In-loop bounds against the clamp() overrides they replaced.

// The four clamp() bodies as they were, verbatim: the oracle.
void old_clamp(const DcqcnFluidModel& m, std::span<double> x) {
  const double line = m.params().capacity_pps();
  x[m.queue_index()] = std::max(0.0, x[m.queue_index()]);
  for (int i = 0; i < m.num_flows(); ++i) {
    x[m.alpha_index(i)] = std::clamp(x[m.alpha_index(i)], 0.0, 1.0);
    x[m.target_rate_index(i)] = std::clamp(
        x[m.target_rate_index(i)], DcqcnFluidModel::kMinRatePps, line);
    x[m.rate_index(i)] =
        std::clamp(x[m.rate_index(i)], DcqcnFluidModel::kMinRatePps, line);
  }
}

void old_clamp(const TimelyFluidBase& m, std::span<double> x) {
  const TimelyFluidParams& p = m.params();
  const double qcap = TimelyFluidBase::kQueueCapFactor * p.qhigh_pkts();
  x[m.queue_index()] = std::clamp(x[m.queue_index()], 0.0, qcap);
  for (int i = 0; i < m.num_flows(); ++i) {
    x[m.rate_index(i)] = std::clamp(
        x[m.rate_index(i)], TimelyFluidBase::kMinRatePps, p.capacity_pps());
    x[m.gradient_index(i)] = std::clamp(x[m.gradient_index(i)], -100.0, 100.0);
  }
}

void old_clamp(const DcqcnPiFluidModel& m, std::span<double> x) {
  const double line = m.params().capacity_pps();
  const double floor = DcqcnFluidModel::kMinRatePps;
  x[m.queue_index()] = std::max(0.0, x[m.queue_index()]);
  x[m.marking_index()] = std::clamp(x[m.marking_index()], 0.0, 1.0);
  for (int i = 0; i < m.num_flows(); ++i) {
    x[m.alpha_index(i)] = std::clamp(x[m.alpha_index(i)], 0.0, 1.0);
    x[m.target_rate_index(i)] = std::clamp(x[m.target_rate_index(i)], floor, line);
    x[m.rate_index(i)] = std::clamp(x[m.rate_index(i)], floor, line);
  }
}

void old_clamp(const PatchedTimelyPiFluidModel& m, std::span<double> x) {
  const TimelyFluidParams& p = m.params();
  const double qcap = 4.0 * p.qhigh_pkts();
  x[m.queue_index()] = std::clamp(x[m.queue_index()], 0.0, qcap);
  for (int i = 0; i < m.num_flows(); ++i) {
    x[m.rate_index(i)] = std::clamp(
        x[m.rate_index(i)], TimelyFluidBase::kMinRatePps, p.capacity_pps());
    x[m.gradient_index(i)] = std::clamp(x[m.gradient_index(i)], -100.0, 100.0);
    x[m.pi_state_index(i)] = std::clamp(x[m.pi_state_index(i)], -10.0, 10.0);
  }
}

/// Forwards a model's bounds() with dx/dt = -0.0 everywhere. x + a * -0.0
/// is x for every x (-0.0, NaN and infinities included), so each RK4 stage
/// state the solver builds is exactly bound(x0), and so is the accepted
/// state: the probe sees the in-loop bounds and nothing else.
class BoundsProbe final : public DdeSystem {
 public:
  explicit BoundsProbe(const DdeSystem& model) : model_(model) {}
  std::size_t dim() const override { return model_.dim(); }
  void rhs(double, std::span<const double> x, const History&,
           std::span<double> dxdt) const override {
    stages.emplace_back(x.begin(), x.end());
    std::fill(dxdt.begin(), dxdt.end(), -0.0);
  }
  std::vector<StateBounds> bounds() const override { return model_.bounds(); }
  double max_delay() const override { return 1e-3; }

  mutable std::vector<std::vector<double>> stages;

 private:
  const DdeSystem& model_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Fills the whole state with each probe value in turn — every bound of
/// every block and its neighbours, signed zeros, NaN, infinities — and
/// requires the solver's stage states and accepted state to equal the old
/// clamp() of it bit for bit.
template <typename Model>
void expect_bounds_match_old_clamp(const Model& m) {
  std::vector<double> probes = {0.0,  -0.0, 0.5, -0.5, 1e300, -1e300,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  for (const StateBounds& b : m.bounds()) {
    for (const double edge : {b.lo, b.hi}) {
      probes.push_back(edge);
      probes.push_back(std::nextafter(edge, -HUGE_VAL));
      probes.push_back(std::nextafter(edge, HUGE_VAL));
    }
  }
  const BoundsProbe probe(m);
  for (const double v : probes) {
    std::vector<double> expected(m.dim(), v);
    old_clamp(m, expected);
    probe.stages.clear();
    DdeSolver solver(probe, std::vector<double>(m.dim(), v), 0.0, 1e-6);
    solver.step();
    ASSERT_EQ(probe.stages.size(), 4u);
    for (std::size_t i = 0; i < m.dim(); ++i) {
      for (std::size_t s = 1; s < 4; ++s) {
        EXPECT_EQ(bits(probe.stages[s][i]), bits(expected[i]))
            << "probe " << v << " var " << i << " stage " << s + 1;
      }
      EXPECT_EQ(bits(solver.state()[i]), bits(expected[i]))
          << "probe " << v << " var " << i << " accepted state";
    }
  }
}

TEST(FluidBounds, DcqcnMatchesOldClampBitForBit) {
  DcqcnFluidParams p;
  p.num_flows = 3;
  expect_bounds_match_old_clamp(DcqcnFluidModel(p));
}

TEST(FluidBounds, TimelyMatchesOldClampBitForBit) {
  TimelyFluidParams p;
  p.num_flows = 3;
  expect_bounds_match_old_clamp(TimelyFluidModel(p));
  expect_bounds_match_old_clamp(PatchedTimelyFluidModel(p));
}

TEST(FluidBounds, DcqcnPiMatchesOldClampBitForBit) {
  DcqcnFluidParams p;
  p.num_flows = 3;
  expect_bounds_match_old_clamp(DcqcnPiFluidModel(p, PiControllerParams{}));
}

TEST(FluidBounds, TimelyPiMatchesOldClampBitForBit) {
  TimelyFluidParams p = patched_timely_defaults();
  p.num_flows = 3;
  expect_bounds_match_old_clamp(PatchedTimelyPiFluidModel(p, TimelyPiParams{}));
}

TEST(FluidBounds, QueueFloorMapsNegativeZeroAndNanToZero) {
  // std::max(0.0, q), the rule DCQCN's queue kept, differs from
  // std::clamp(q, 0, hi) on exactly these inputs.
  DcqcnFluidModel m(DcqcnFluidParams{});
  for (const double q : {-0.0, std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> x0 = m.initial_state();
    x0[m.queue_index()] = q;
    BoundsProbe probe(m);
    DdeSolver solver(probe, x0, 0.0, 1e-6);
    solver.step();
    EXPECT_EQ(bits(solver.state()[m.queue_index()]), bits(0.0)) << q;
  }
}

TEST(FluidBounds, WeightMatchesPiecewiseEquation30) {
  // weight() is written as min/max of the ramp; the piecewise form of
  // Equation 30 is the oracle, at and next to both corners and beyond.
  const auto piecewise = [](double g) {
    if (g <= -0.25) return 0.0;
    if (g >= 0.25) return 1.0;
    return 2.0 * g + 0.5;
  };
  std::vector<double> grads = {0.0, -0.0, 0.1, -0.1, 1.0, -1.0, 1e300, -1e300,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::denorm_min()};
  for (const double corner : {-0.25, 0.25}) {
    double below = corner;
    double above = corner;
    for (int k = 0; k < 4; ++k) {
      grads.push_back(below);
      grads.push_back(above);
      below = std::nextafter(below, -HUGE_VAL);
      above = std::nextafter(above, HUGE_VAL);
    }
  }
  for (const double g : grads) {
    EXPECT_EQ(bits(PatchedTimelyFluidModel::weight(g)), bits(piecewise(g)))
        << "g = " << g;
  }
}

}  // namespace
}  // namespace ecnd::fluid
