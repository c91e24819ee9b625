#include "fluid/dcqcn_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace ecnd::fluid {
namespace {

// Numerically safe helpers for the model's exponential terms. All reduce to
// well-behaved limits as p -> 0 (no marking), which matters because DCQCN's
// fixed-point p* is typically O(1e-3..1e-2) and transients pass through 0.

// Each takes l = log1p(-p) precomputed by the caller: the six exponential
// terms per flow all share the same p, so one rhs() evaluation pays a single
// log1p instead of six per flow.

/// (1 - p)^x given l = log1p(-p).
double pow1m(double l, double x) { return std::exp(x * l); }

/// p / ((1-p)^{-n} - 1); limit 1/n as p -> 0.
double increase_event_factor(double p, double l, double n) {
  assert(n > 0.0);
  if (p <= 1e-12) return 1.0 / n;
  if (p >= 1.0) return 0.0;
  const double denom = std::expm1(-n * l);
  if (denom <= 0.0) return 1.0 / n;
  return p / denom;
}

/// 1 - (1-p)^n: probability of >= 1 mark in n packets.
double mark_within(double p, double l, double n) {
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 1.0;
  return -std::expm1(n * l);
}

}  // namespace

DcqcnFluidModel::DcqcnFluidModel(DcqcnFluidParams params) : params_(params) {
  const DcqcnFluidParams& P = params_;
  require_param("DcqcnFluidModel", "num_flows", P.num_flows, P.num_flows >= 1,
                "need at least one flow");
  require_param("DcqcnFluidModel", "kmax", static_cast<double>(P.kmax),
                P.kmax > P.kmin, "Kmax must exceed Kmin");
  require_param("DcqcnFluidModel", "pmax", P.pmax,
                P.pmax > 0.0 && P.pmax <= 1.0, "Pmax must lie in (0, 1]");
  require_min_rate_feasible("DcqcnFluidModel", P.num_flows, kMinRatePps,
                            P.capacity_pps());
}

double DcqcnFluidModel::marking_probability(double q_pkts) const {
  const double kmin = params_.kmin_pkts();
  const double kmax = params_.kmax_pkts();
  if (q_pkts <= kmin) return 0.0;
  if (!params_.red_linear_extension && q_pkts > kmax) return 1.0;
  return std::min(1.0, (q_pkts - kmin) / (kmax - kmin) * params_.pmax);
}

std::vector<double> DcqcnFluidModel::initial_state() const {
  // DCQCN flows start at line rate with alpha = 1 and an empty queue.
  std::vector<double> x(dim(), 0.0);
  const double line = params_.capacity_pps();
  for (int i = 0; i < params_.num_flows; ++i) {
    x[alpha_index(i)] = 1.0;
    x[target_rate_index(i)] = line;
    x[rate_index(i)] = line;
  }
  return x;
}

double DcqcnFluidModel::suggested_dt() const {
  const double dt = std::min(params_.feedback_delay, params_.tau_cnp) / 8.0;
  return std::clamp(dt, 5e-8, 1e-6);
}

DcqcnFluidModel::MarkingShared DcqcnFluidModel::make_marking_shared(
    double p_delayed) const {
  const DcqcnFluidParams& P = params_;
  MarkingShared m{};
  m.p = std::clamp(p_delayed, 0.0, 1.0);
  m.l = std::log1p(-m.p);
  const double B = P.byte_counter_pkts();
  m.byte_factor = increase_event_factor(m.p, m.l, B);               // ~ 1/B
  m.byte_ai = pow1m(m.l, P.fast_recovery_steps * B);                // P(in AI, byte)
  return m;
}

DcqcnFluidModel::FlowDerivatives DcqcnFluidModel::flow_rhs(
    double alpha, double rt, double rc, double p_delayed,
    double rc_delayed) const {
  const double x[3] = {alpha, rt, rc};
  double dxdt[3];
  flows_rhs(make_marking_shared(p_delayed), {&rc_delayed, 1}, x, dxdt);
  return {dxdt[0], dxdt[1], dxdt[2]};
}

DcqcnFluidModel::RateShared DcqcnFluidModel::make_rate_shared(
    const MarkingShared& m, double rc_delayed) const {
  const DcqcnFluidParams& P = params_;
  const double p = m.p;
  RateShared r{};
  r.rcd = std::max(rc_delayed, kMinRatePps);

  const double TRc = P.timer_T * r.rcd;
  const double F = P.fast_recovery_steps;

  // Probability of at least one CNP per tau / tau' window (Equations 5-7).
  r.cnp_prob_tau = mark_within(p, m.l, P.tau_cnp * r.rcd);
  r.cnp_prob_tau_alpha = mark_within(p, m.l, P.tau_alpha * r.rcd);

  // Timer-based rate-increase event factors (the byte-counter pair depends
  // only on p and lives in MarkingShared), Equation 6/7.
  r.timer_factor = increase_event_factor(p, m.l, TRc);   // ~ 1/(T Rc)
  const double timer_ai = pow1m(m.l, F * TRc);           // P(in AI, timer)

  // The Equation-6 additive-increase terms in full — association matches the
  // original dRt/dt sum exactly, so folding them here is bit-neutral.
  r.ai_byte = P.rate_ai_pps() * r.rcd * m.byte_ai * m.byte_factor;
  r.ai_timer = P.rate_ai_pps() * r.rcd * timer_ai * r.timer_factor;
  return r;
}

// x and dxdt never overlap (DdeSystem::rhs). Saying so with __restrict
// keeps the run-time alias checks of the vectorized pass within the
// compiler's limit; with six unqualified streams it gives up.
void DcqcnFluidModel::flows_rhs(const MarkingShared& m,
                                std::span<const double> rc_delayed,
                                const double* __restrict x,
                                double* __restrict dxdt) const {
  const DcqcnFluidParams& P = params_;
  const std::size_t n = rc_delayed.size();
  const double* alpha = x;
  const double* rt = x + n;
  const double* rc = x + 2 * n;
  double* dalpha = dxdt;
  double* dtarget = dxdt + n;
  double* drate = dxdt + 2 * n;
  // Parameter quotients, hoisted. Each equation below keeps the association
  // it was written with (g / tau' * (...) is (g / tau') * (...), and so on),
  // so hoisting them is bit-neutral.
  const double g_over_tau_alpha = P.g / P.tau_alpha;
  const double tau = P.tau_cnp;
  const double two_tau = 2.0 * P.tau_cnp;
  const double byte_factor = m.byte_factor;
  // Flows whose delayed rates compare equal share every transcendental, so
  // each run of them gets one RateShared and a flat loop over its flows. In
  // symmetric runs that is one pass over all N; with distinct rates it
  // degrades to one RateShared per flow, as a per-flow evaluation would.
  for (std::size_t begin = 0; begin < n;) {
    const double key = rc_delayed[begin];
    std::size_t end = begin + 1;
    while (end < n && rc_delayed[end] == key) ++end;
    const RateShared r = make_rate_shared(m, key);
    const double rcd = r.rcd;
    const double cnp_tau = r.cnp_prob_tau;
    const double cnp_tau_alpha = r.cnp_prob_tau_alpha;
    const double timer_factor = r.timer_factor;
    const double ai_byte = r.ai_byte;
    const double ai_timer = r.ai_timer;
    for (std::size_t i = begin; i < end; ++i) {
      const double a = alpha[i];
      const double target = rt[i];
      const double rate = rc[i];
      // Equation 5.
      dalpha[i] = g_over_tau_alpha * (cnp_tau_alpha - a);
      // Equation 6.
      dtarget[i] = -(target - rate) / tau * cnp_tau + ai_byte + ai_timer;
      // Equation 7.
      drate[i] = -(rate * a) / two_tau * cnp_tau +
                 (target - rate) / 2.0 * rcd * byte_factor +
                 (target - rate) / 2.0 * rcd * timer_factor;
    }
    begin = end;
  }
}

void DcqcnFluidModel::rhs(double t, std::span<const double> x, const History& past,
                          std::span<double> dxdt) const {
  const DcqcnFluidParams& P = params_;
  const double delay = P.feedback_delay + P.feedback_jitter.value(t);
  const double t_delayed = t - delay;

  // Equation 4: queue evolution, gated so an empty queue cannot go negative.
  const std::size_t n = nflows();
  const double* rc = x.data() + rate_index(0);
  double sum_rc = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_rc += rc[i];
  const double q = x[queue_index()];
  double dq = sum_rc - P.capacity_pps();
  if (q <= 0.0 && dq < 0.0) dq = 0.0;
  dxdt[queue_index()] = dq;

  // Two history searches serve every delayed read: the queue drives the
  // shared marking terms, and the SoA rate block interpolates in one
  // contiguous pass (the second search reuses the cursor the first warmed).
  const double q_delayed = past.value(queue_index(), t_delayed);
  const std::span<const double> rc_delayed =
      past.values(t_delayed, rate_index(0), n);
  const double p_delayed = marking_probability(q_delayed);
  flows_rhs(make_marking_shared(p_delayed), rc_delayed,
            x.data() + alpha_index(0), dxdt.data() + alpha_index(0));
}

std::vector<StateBounds> DcqcnFluidModel::bounds() const {
  const double line = params_.capacity_pps();
  const std::size_t n = nflows();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {{queue_index(), 1, 0.0, kInf, StateBounds::Rule::kFloor},
          {alpha_index(0), n, 0.0, 1.0},
          {target_rate_index(0), n, kMinRatePps, line},
          {rate_index(0), n, kMinRatePps, line}};
}

}  // namespace ecnd::fluid
