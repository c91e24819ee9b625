#include "fluid/pi_models.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecnd::fluid {
namespace {

// The PI variant shares the base TIMELY floors and caps.
constexpr double kMinRatePps = TimelyFluidBase::kMinRatePps;
constexpr double kQueueCapFactor = TimelyFluidBase::kQueueCapFactor;

}  // namespace

DcqcnPiFluidModel::DcqcnPiFluidModel(DcqcnFluidParams params, PiControllerParams pi)
    : params_(params), pi_(pi), flow_dynamics_(params) {}

std::vector<double> DcqcnPiFluidModel::initial_state() const {
  std::vector<double> x(dim(), 0.0);
  const double line = params_.capacity_pps();
  x[marking_index()] = 0.0;
  for (int i = 0; i < params_.num_flows; ++i) {
    x[alpha_index(i)] = 1.0;
    x[target_rate_index(i)] = line;
    x[rate_index(i)] = line;
  }
  return x;
}

void DcqcnPiFluidModel::rhs(double t, std::span<const double> x,
                            const History& past, std::span<double> dxdt) const {
  const DcqcnFluidParams& P = params_;
  const double delay = P.feedback_delay + P.feedback_jitter.value(t);
  const double t_delayed = t - delay;

  const std::size_t n = nflows();
  const double* rc = x.data() + rate_index(0);
  double sum_rc = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_rc += rc[i];
  const double q = x[queue_index()];
  double dq = sum_rc - P.capacity_pps();
  if (q <= 0.0 && dq < 0.0) dq = 0.0;
  dxdt[queue_index()] = dq;

  // Equation 32 at the switch: the marking probability is now an integrator
  // over the queue error instead of the static RED profile.
  const double p = x[marking_index()];
  double dp = pi_.k_p * dq + pi_.k_i * (q - pi_.qref_pkts);
  // Anti-windup: freeze the integrator when p is pinned at a bound and the
  // update would push it further out.
  if ((p <= 0.0 && dp < 0.0) || (p >= 1.0 && dp > 0.0)) dp = 0.0;
  dxdt[marking_index()] = dp;

  // Senders receive the *delayed* controller output, exactly as they
  // received the delayed RED marking probability before. Two history
  // searches serve the marking state and the contiguous delayed rate block.
  const double p_raw = past.value(marking_index(), t_delayed);
  const std::span<const double> rc_delayed =
      past.values(t_delayed, rate_index(0), n);
  const double p_delayed = std::clamp(p_raw, 0.0, 1.0);
  flow_dynamics_.flows_rhs(flow_dynamics_.make_marking_shared(p_delayed),
                           rc_delayed, x.data() + alpha_index(0),
                           dxdt.data() + alpha_index(0));
}

std::vector<StateBounds> DcqcnPiFluidModel::bounds() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double line = params_.capacity_pps();
  const double floor = DcqcnFluidModel::kMinRatePps;
  const std::size_t n = nflows();
  return {{queue_index(), 1, 0.0, kInf, StateBounds::Rule::kFloor},
          {marking_index(), 1, 0.0, 1.0},
          {alpha_index(0), n, 0.0, 1.0},
          {target_rate_index(0), n, floor, line},
          {rate_index(0), n, floor, line}};
}

PatchedTimelyPiFluidModel::PatchedTimelyPiFluidModel(TimelyFluidParams params,
                                                     TimelyPiParams pi)
    : params_(params), pi_(pi) {
  require_valid_timely_params("PatchedTimelyPiFluidModel", params_);
  require_param("PatchedTimelyPiFluidModel", "qref_pkts", pi_.qref_pkts,
                pi_.qref_pkts > params_.qlow_pkts() &&
                    pi_.qref_pkts < params_.qhigh_pkts(),
                "q_ref must lie strictly between C*T_low and C*T_high");
  require_min_rate_feasible("PatchedTimelyPiFluidModel", params_.num_flows,
                            kMinRatePps, params_.capacity_pps());
}

std::vector<double> PatchedTimelyPiFluidModel::initial_state() const {
  std::vector<double> x(dim(), 0.0);
  const double start = params_.capacity_pps() / params_.num_flows;
  for (int i = 0; i < params_.num_flows; ++i) {
    x[rate_index(i)] = std::max(start, kMinRatePps);
  }
  return x;
}

double PatchedTimelyPiFluidModel::suggested_dt() const {
  const double min_delay = params_.base_feedback_delay();
  return std::clamp(std::min(min_delay, params_.d_min_rtt) / 8.0, 5e-8, 5e-7);
}

double PatchedTimelyPiFluidModel::feedback_delay(double q_pkts) const {
  return q_pkts / params_.capacity_pps() + params_.base_feedback_delay();
}

double PatchedTimelyPiFluidModel::max_delay() const {
  const double max_tau_prime =
      kQueueCapFactor * params_.qhigh_pkts() / params_.capacity_pps() +
      params_.base_feedback_delay();
  const double max_tau_star =
      std::max(params_.segment_pkts() / kMinRatePps, params_.d_min_rtt);
  return max_tau_prime + max_tau_star + params_.feedback_jitter.amplitude();
}

double PatchedTimelyPiFluidModel::max_row_delay() const {
  // The clamp() queue cap bounds tau' at evaluation time; rates are never
  // read back further than that.
  return kQueueCapFactor * params_.qhigh_pkts() / params_.capacity_pps() +
         params_.base_feedback_delay() + params_.feedback_jitter.amplitude();
}

void PatchedTimelyPiFluidModel::rhs(double t, std::span<const double> x,
                                    const History& past,
                                    std::span<double> dxdt) const {
  const TimelyFluidParams& P = params_;
  const double C = P.capacity_pps();
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  const double* grad = x.data() + gradient_index(0);
  const double* pi_state = x.data() + pi_state_index(0);

  double sum_r = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_r += rate[i];
  const double q = x[queue_index()];
  double dq = sum_r - C;
  if (q <= 0.0 && dq < 0.0) dq = 0.0;
  dxdt[queue_index()] = dq;

  const double tau_prime = feedback_delay(q);
  // Two history searches serve the delayed queue and the contiguous delayed
  // rate block (the second reuses the cursor the first warmed).
  const double q_hat = past.value(queue_index(), t - tau_prime);
  const std::span<const double> rates_delayed =
      past.values(t - tau_prime, rate_index(0), n);

  // Rate of change of the delayed observation: the queue law evaluated on
  // delayed rates (gated the same way the queue itself is).
  double sum_r_delayed = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_r_delayed += rates_delayed[i];
  double dq_hat = sum_r_delayed - C;
  if (q_hat <= 0.0 && dq_hat < 0.0) dq_hat = 0.0;

  const double error = (q_hat - pi_.qref_pkts) / pi_.qref_pkts;
  const double derror = dq_hat / pi_.qref_pkts;

  // tau*_i once per flow, then batched per-flow gradient lookups, as in the
  // base model.
  tau_star_buf_.resize(n);
  lookup_times_.resize(n);
  lookup_vals_.resize(n);
  double* tau_star = tau_star_buf_.data();
  double* times = lookup_times_.data();
  const double segment = P.segment_pkts();
  const double t_recent = t - tau_prime;  // (t - tau') - tau*_i below
  for (std::size_t i = 0; i < n; ++i) {
    tau_star[i] = rate_update_interval(segment, P.d_min_rtt, rate[i]);
    times[i] = t_recent - tau_star[i];
  }
  past.values_at(queue_index(), lookup_times_, lookup_vals_);

  // Gradient EWMA (Equation 22), as in the base model, and the local PI
  // controller over the host's own delayed queue observation (Equation 32
  // evaluated at the end host). The host applies one update per completion
  // event, i.e. every tau*_i — so the effective continuous gain scales with
  // 1/tau*_i and is *per-flow*. This asymmetry is part of why per-host
  // integrators end up at different p_i (Figure 19).
  const double c_dmin = C * P.d_min_rtt;
  const double pi_drive = pi_.k_p * derror + pi_.k_i * error;
  const double* q_prev = lookup_vals_.data();
  double* dgrad = dxdt.data() + gradient_index(0);
  double* dpi = dxdt.data() + pi_state_index(0);
  for (std::size_t i = 0; i < n; ++i) {
    const double normalized = (q_hat - q_prev[i]) / c_dmin;
    dgrad[i] = P.alpha_ewma / tau_star[i] * (-grad[i] + normalized);
    dpi[i] = pi_drive / tau_star[i];
  }

  // Equation 29 with the PI output replacing the (q - q')/q' error term,
  // one flat pass per branch of the measured queue.
  const double qhigh = P.qhigh_pkts();
  const double delta = P.delta_pps();
  double* dr = dxdt.data() + rate_index(0);
  if (q_hat < P.qlow_pkts()) {
    for (std::size_t i = 0; i < n; ++i) dr[i] = delta / tau_star[i];
  } else if (q_hat > qhigh) {
    const double neg_beta_high = -P.beta_high;
    const double excess = 1.0 - qhigh / q_hat;
    for (std::size_t i = 0; i < n; ++i) {
      dr[i] = neg_beta_high / tau_star[i] * excess * rate[i];
    }
  } else {
    // w(g_i) staged in dr, as in PatchedTimelyFluidModel::rhs.
    for (std::size_t i = 0; i < n; ++i) {
      dr[i] = PatchedTimelyFluidModel::weight(grad[i]);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double w = dr[i];
      dr[i] = (1.0 - w) * delta / tau_star[i] -
              w * P.beta / tau_star[i] * rate[i] * pi_state[i];
    }
  }
}

std::vector<StateBounds> PatchedTimelyPiFluidModel::bounds() const {
  const std::size_t n = nflows();
  return {{queue_index(), 1, 0.0, kQueueCapFactor * params_.qhigh_pkts()},
          {rate_index(0), n, kMinRatePps, params_.capacity_pps()},
          {gradient_index(0), n, -100.0, 100.0},
          {pi_state_index(0), n, -10.0, 10.0}};
}

}  // namespace ecnd::fluid
