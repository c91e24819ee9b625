#include "fluid/timely_model.hpp"

#include <algorithm>
#include <cmath>

namespace ecnd::fluid {

void require_valid_timely_params(const char* component,
                                 const TimelyFluidParams& p) {
  require_param(component, "num_flows", p.num_flows, p.num_flows >= 1,
                "need at least one flow");
  require_param(component, "t_high", p.t_high, p.t_high > p.t_low,
                "T_high must exceed T_low");
  require_param(component, "d_min_rtt", p.d_min_rtt, p.d_min_rtt > 0.0,
                "D_minRTT must be positive");
}

TimelyFluidBase::TimelyFluidBase(TimelyFluidParams params) : params_(params) {
  require_valid_timely_params("TimelyFluidBase", params_);
  require_min_rate_feasible("TimelyFluidBase", params_.num_flows, kMinRatePps,
                            params_.capacity_pps());
}

std::vector<double> TimelyFluidBase::initial_state() const {
  // TIMELY flows start at C/N (the paper's validation setup, §4.1) with a
  // zero gradient and an empty queue.
  std::vector<double> x(dim(), 0.0);
  const double start = params_.capacity_pps() / params_.num_flows;
  for (int i = 0; i < params_.num_flows; ++i) {
    x[rate_index(i)] = std::max(start, kMinRatePps);
    x[gradient_index(i)] = 0.0;
  }
  return x;
}

double TimelyFluidBase::suggested_dt() const {
  const double min_delay = params_.base_feedback_delay();
  return std::clamp(std::min(min_delay, params_.d_min_rtt) / 8.0, 5e-8, 5e-7);
}

std::vector<StateBounds> TimelyFluidBase::bounds() const {
  const std::size_t n = nflows();
  return {{queue_index(), 1, 0.0, kQueueCapFactor * params_.qhigh_pkts()},
          {rate_index(0), n, kMinRatePps, params_.capacity_pps()},
          {gradient_index(0), n, -100.0, 100.0}};
}

double TimelyFluidBase::max_delay() const {
  const double max_tau_prime =
      kQueueCapFactor * params_.qhigh_pkts() / params_.capacity_pps() +
      params_.base_feedback_delay();
  const double max_tau_star =
      std::max(params_.segment_pkts() / kMinRatePps, params_.d_min_rtt);
  return max_tau_prime + max_tau_star + params_.feedback_jitter.amplitude();
}

double TimelyFluidBase::update_interval(double rate_pps) const {
  return rate_update_interval(params_.segment_pkts(), params_.d_min_rtt,
                              rate_pps);
}

double TimelyFluidBase::feedback_delay(double q_pkts) const {
  // Equation 24: q/C + MTU/C + D_prop (all in packet units, MTU/C = 1/C_pps).
  return q_pkts / params_.capacity_pps() + params_.base_feedback_delay();
}

TimelyFluidBase::MeasuredQueue TimelyFluidBase::measured_queue(
    double t, double q_now, const History& past) const {
  MeasuredQueue mq{};
  mq.jitter = params_.feedback_jitter.value(t);
  mq.tau_prime = feedback_delay(q_now) + mq.jitter;
  const double sample = past.value(queue_index(), t - mq.tau_prime);
  // Reverse-path jitter shows up as extra apparent queueing delay.
  mq.q_hat = sample + mq.jitter * params_.capacity_pps();
  return mq;
}

void TimelyFluidBase::gradient_rhs(double t, std::span<const double> x,
                                   const History& past,
                                   const MeasuredQueue& mq,
                                   std::span<double> dxdt) const {
  // Equation 22. The two queue samples that form the gradient are one rate-
  // update interval apart; both are read through the measured-queue lens so
  // jitter perturbs the *difference* (the paper's "noisy feedback" effect).
  // The recent sample is exactly the q_hat the rate branches use.
  const TimelyFluidParams& P = params_;
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  const double* grad = x.data() + gradient_index(0);
  double* dgrad = dxdt.data() + gradient_index(0);
  tau_star_buf_.resize(n);
  lookup_times_.resize(n);
  lookup_vals_.resize(n);
  double* tau_star = tau_star_buf_.data();
  double* times = lookup_times_.data();
  const double segment = P.segment_pkts();
  const double t_recent = t - mq.tau_prime;  // (t - tau') - tau*_i below
  for (std::size_t i = 0; i < n; ++i) {
    tau_star[i] = rate_update_interval(segment, P.d_min_rtt, rate[i]);
    times[i] = t_recent - tau_star[i];
  }
  // Batched per-flow lookups: flows with bitwise-equal rates (the symmetric
  // many-flow case) share one history search.
  past.values_at(queue_index(), lookup_times_, lookup_vals_);

  const double c = P.capacity_pps();
  const double c_dmin = c * P.d_min_rtt;
  const double q_recent = mq.q_hat;
  const double* q_old = lookup_vals_.data();
  const auto pass = [&](auto jitter_at) {
    for (std::size_t i = 0; i < n; ++i) {
      const double q_prev = q_old[i] + jitter_at(t - tau_star[i]) * c;
      const double normalized = (q_recent - q_prev) / c_dmin;
      dgrad[i] = P.alpha_ewma / tau_star[i] * (-grad[i] + normalized);
    }
  };
  if (P.feedback_jitter.enabled()) {
    pass([&](double when) { return P.feedback_jitter.value(when); });
  } else {
    pass([](double) { return 0.0; });  // what value() returns when disabled
  }
}

void TimelyFluidModel::rhs(double t, std::span<const double> x,
                           const History& past, std::span<double> dxdt) const {
  const TimelyFluidParams& P = params_;
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  const double* grad = x.data() + gradient_index(0);

  // Equation 20.
  double sum_r = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_r += rate[i];
  const double q = x[queue_index()];
  double dq = sum_r - P.capacity_pps();
  if (q <= 0.0 && dq < 0.0) dq = 0.0;
  dxdt[queue_index()] = dq;

  // One measured-queue evaluation serves the gradient EWMA and every rate
  // branch below (bit-identical to the former per-use recomputation).
  const MeasuredQueue mq = measured_queue(t, q, past);
  gradient_rhs(t, x, past, mq, dxdt);

  // Equation 21. The branch on the measured queue is the same for every
  // flow, so each branch is its own flat pass.
  const double q_hat = mq.q_hat;
  const double qhigh = P.qhigh_pkts();
  const double delta = P.delta_pps();
  const double* tau_star = tau_star_buf_.data();
  double* dr = dxdt.data() + rate_index(0);
  if (q_hat < P.qlow_pkts()) {
    // Additive increase below T_low.
    for (std::size_t i = 0; i < n; ++i) dr[i] = delta / tau_star[i];
  } else if (q_hat > qhigh) {
    const double neg_beta_high = -P.beta_high;
    const double excess = 1.0 - qhigh / q_hat;
    for (std::size_t i = 0; i < n; ++i) {
      dr[i] = neg_beta_high / tau_star[i] * excess * rate[i];
    }
  } else {
    // Gradient-based additive increase or multiplicative decrease. The
    // increase is staged in dr first and the decrease computed for every
    // flow, so the select has no division under a branch and vectorizes.
    const bool strict = P.strict_gradient_zero;
    const double beta = P.beta;
    for (std::size_t i = 0; i < n; ++i) dr[i] = delta / tau_star[i];
    for (std::size_t i = 0; i < n; ++i) {
      const double g = grad[i];
      const double decrease = -g * beta / tau_star[i] * rate[i];
      const bool increase = strict ? g < 0.0 : g <= 0.0;
      dr[i] = increase ? dr[i] : decrease;
    }
  }
}

TimelyFluidParams patched_timely_defaults() {
  TimelyFluidParams p;
  p.beta = 0.008;
  p.segment = kilobytes(16.0);
  return p;
}

double PatchedTimelyFluidModel::fixed_point_queue_pkts() const {
  // Theorem 5 / Equation 31: q* = N delta q' / (beta C) + q'.
  const TimelyFluidParams& P = params_;
  return P.num_flows * P.delta_pps() * qref_pkts() /
             (P.beta * P.capacity_pps()) +
         qref_pkts();
}

void PatchedTimelyFluidModel::rhs(double t, std::span<const double> x,
                                  const History& past,
                                  std::span<double> dxdt) const {
  const TimelyFluidParams& P = params_;
  const std::size_t n = nflows();
  const double* rate = x.data() + rate_index(0);
  const double* grad = x.data() + gradient_index(0);

  double sum_r = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum_r += rate[i];
  const double q = x[queue_index()];
  double dq = sum_r - P.capacity_pps();
  if (q <= 0.0 && dq < 0.0) dq = 0.0;
  dxdt[queue_index()] = dq;

  const MeasuredQueue mq = measured_queue(t, q, past);
  gradient_rhs(t, x, past, mq, dxdt);

  // Equation 29, one flat pass per branch of the measured queue.
  const double q_hat = mq.q_hat;
  const double qhigh = P.qhigh_pkts();
  const double delta = P.delta_pps();
  const double* tau_star = tau_star_buf_.data();
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
    // Middle branch: smooth blend of additive increase and an
    // absolute-queue-error multiplicative decrease. w(g_i) is staged in dr
    // first: a w read back from memory keeps the compiler from specializing
    // the blend for w = 0 and w = 1, which would put its divisions under
    // branches and stop the pass from vectorizing.
    const double qref = qref_pkts();
    const double error = q_hat - qref;  // q_hat - q'
    for (std::size_t i = 0; i < n; ++i) dr[i] = weight(grad[i]);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = dr[i];
      dr[i] = (1.0 - w) * delta / tau_star[i] -
              w * P.beta / tau_star[i] * rate[i] * error / qref;
    }
  }
}

}  // namespace ecnd::fluid
