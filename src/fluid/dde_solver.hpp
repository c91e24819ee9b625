#pragma once
// Delay-differential-equation (DDE) integrator.
//
// The DCQCN and TIMELY fluid models (paper Figures 1 and 7) are systems of
// ODEs whose right-hand sides reference *past* state: DCQCN's marking
// probability and rate enter with control-loop delay tau*, TIMELY's queue
// samples enter with the (state-dependent) feedback delay tau'. We integrate
// them with a fixed-step classic RK4 scheme plus a dense history buffer;
// delayed state is read back through linear interpolation.
//
// Accuracy note: for RK4 stage evaluations at t + dt/2 and t + dt, a delayed
// lookup at (stage_time - tau) lands strictly inside recorded history as long
// as tau >= dt. Models here have minimum delays of a few microseconds and we
// integrate with sub-microsecond steps, so this always holds; lookups beyond
// the last recorded point clamp to it (and before t0 clamp to the initial
// state, i.e. a constant pre-history, which matches the models' semantics of
// "flows start at t=0 with an empty queue").
//
// Time grid: the solver never accumulates `t += dt`. It tracks an integer
// step index and computes t = t0 + k*dt per commit, so step counts (and the
// observer's sample count) are exact for any horizon — 1e7 steps land on the
// same grid points a fresh solver would compute, with no floating-point
// drift. A guard-rejected step is retried at half size but always completes
// the remaining sub-steps of the original dt, so retries never shift the
// grid either.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/diagnostic.hpp"

namespace ecnd::fluid {

/// Dense solution history: state vectors recorded at each accepted step.
/// Provides interpolated random access for delayed right-hand-side terms.
///
/// Lookups are amortized O(1): successive delayed reads within an RK4 step
/// are non-decreasing in t per delay lane, so a monotonic cursor remembers
/// the last interpolation bracket and walks forward from it, falling back to
/// binary search on backward jumps (e.g. TIMELY's per-flow tau* lanes).
class History {
 public:
  explicit History(std::size_t dim) : dim_(dim) {}

  std::size_t dim() const { return dim_; }
  bool empty() const { return times_.empty(); }
  double first_time() const { return times_.empty() ? 0.0 : times_.front(); }
  double last_time() const { return times_.empty() ? 0.0 : times_.back(); }

  void append(double t, std::span<const double> x);

  /// Value of state variable `var` at time t (linear interpolation, clamped
  /// to the recorded span).
  double value(std::size_t var, double t) const;

  /// All dim() state variables at time t — one history search instead of
  /// dim() of them, for right-hand sides that read many variables at the
  /// same delayed time. The returned span is valid until the next values()
  /// call, append() or trim_before() on this History.
  std::span<const double> values(double t) const;

  /// The contiguous variable block [var_begin, var_begin + var_count) at
  /// time t — the ranged form of values() for struct-of-arrays state layouts
  /// where a right-hand side needs one block (e.g. all delayed rates) out of
  /// a wide row: one history search, var_count interpolations instead of
  /// dim(). Element j is bit-identical to value(var_begin + j, t). Same
  /// lifetime rules as values().
  std::span<const double> values(double t, std::size_t var_begin,
                                 std::size_t var_count) const;

  /// One variable at many (arbitrary, possibly unsorted) times:
  /// out[i] = value(var, times[i]), bit-identical to per-query value()
  /// calls. A query equal to its predecessor is served from the previous
  /// result without a new search — the dominant case for per-flow delayed
  /// lookups in symmetric many-flow runs, where every flow asks for the
  /// same delayed instant.
  void values_at(std::size_t var, std::span<const double> times,
                 std::span<double> out) const;

  /// Enable split retention: trim_before(t_keep, t_keep_deep) then keeps
  /// full state rows back to t_keep only, while preserving the variables
  /// [var_begin, var_begin + var_count) in a narrow side store back to
  /// t_keep_deep. For wide systems whose long-delay reads touch few
  /// variables (TIMELY at 10k flows: 20k-wide rows, queue-only lookbacks of
  /// milliseconds) this is the difference between megabytes and gigabytes
  /// of retained history. Lookups into the deep window interpolate the same
  /// recorded samples and are bit-identical to an untrimmed History.
  /// Must be called before the first append().
  void set_deep_retention(std::size_t var_begin, std::size_t var_count);

  /// Drop history strictly older than t_keep (ring-buffer style trimming so
  /// long runs don't grow unboundedly). Keeps at least two points.
  void trim_before(double t_keep);

  /// Split-retention trim: full rows back to t_keep_rows, deep-retained
  /// variables back to t_keep_deep (<= t_keep_rows). Equivalent to
  /// trim_before(t_keep_rows) when set_deep_retention was never called.
  void trim_before(double t_keep_rows, double t_keep_deep);

 private:
  /// First index in (start, size) with times[i] >= t, walking forward from
  /// the cursor hint when possible. Precondition:
  /// times[start] < t <= times.back(). Updates the cursor.
  static std::size_t locate_in(const std::vector<double>& times,
                               std::size_t start, std::size_t& cursor,
                               double t);
  /// locate_in over the full-row store.
  std::size_t locate(double t) const {
    return locate_in(times_, start_, cursor_, t);
  }
  bool deep_covers(std::size_t var) const {
    return deep_count_ > 0 && var >= deep_begin_ &&
           var - deep_begin_ < deep_count_;
  }
  /// Interpolated deep-store read. Preconditions: deep_covers(var), the deep
  /// store is non-empty, and deep_first < t <= times_[start_] (queries past
  /// the row-store start bridge across the boundary sample pair).
  double deep_value(std::size_t var, double t) const;
  /// Batch-path fallback for t at/below the row-store start when the
  /// requested range intersects the deep store: per-variable reads into
  /// batch_buf_, each matching value() bit for bit.
  std::span<const double> deep_clamped_range(double t, std::size_t var_begin,
                                             std::size_t var_count) const;

  std::size_t dim_;
  std::vector<double> times_;
  std::vector<double> states_;  // row-major: states_[i * dim_ + var]
  std::size_t start_ = 0;       // logical start after trimming
  mutable std::size_t cursor_ = 0;          // last interpolation bracket (hi)
  mutable std::vector<double> batch_buf_;   // scratch row for values()

  // Deep-retention side store (set_deep_retention): samples of variables
  // [deep_begin_, deep_begin_ + deep_count_) for times strictly older than
  // times_[start_], contiguous with the row store (its last sample is the
  // row dropped most recently).
  std::size_t deep_begin_ = 0;
  std::size_t deep_count_ = 0;  // 0 = split retention disabled
  std::vector<double> deep_times_;
  std::vector<double> deep_vals_;  // row-major: [i * deep_count_ + col]
  std::size_t deep_start_ = 0;
  mutable std::size_t deep_cursor_ = 0;
};

/// Box bound on the contiguous state block [first, first + count). The
/// solver applies it to every RK4 stage state and to each accepted state,
/// inside the loops that build them, element by element:
///   kClamp  v -> std::clamp(v, lo, hi)   NaN passes through, -0.0 stays
///   kFloor  v -> std::max(lo, v)         hi unused; NaN and every v <= lo
///                                        (so -0.0 when lo is 0) become lo
struct StateBounds {
  enum class Rule { kClamp, kFloor };
  std::size_t first = 0;
  std::size_t count = 0;
  double lo = 0.0;
  double hi = 0.0;
  Rule rule = Rule::kClamp;
};

/// A delayed dynamical system dx/dt = f(t, x(t), history).
class DdeSystem {
 public:
  virtual ~DdeSystem() = default;

  /// Number of state variables.
  virtual std::size_t dim() const = 0;

  /// Compute dxdt at time t given current state x and access to past state.
  /// x and dxdt never overlap.
  virtual void rhs(double t, std::span<const double> x, const History& past,
                   std::span<double> dxdt) const = 0;

  /// The feasible region (e.g. queue >= 0, floor <= rate <= line rate) as
  /// non-overlapping box bounds; variables outside every block are
  /// unbounded. Read once, when a solver is built. Default: unbounded.
  virtual std::vector<StateBounds> bounds() const { return {}; }

  /// Largest delay the rhs ever looks back by; the solver keeps at least this
  /// much history (plus slack).
  virtual double max_delay() const = 0;

  /// Largest delay at which the rhs reads variables *outside* deep_vars():
  /// the solver only retains complete state rows this far back, and keeps
  /// just the deep_vars() block out to the full max_delay(). Defaults to
  /// max_delay() (retain full rows for the whole horizon). Systems whose
  /// long-delay terms touch few variables (TIMELY: millisecond queue
  /// lookbacks against a 2N+1-wide state) override this with the short
  /// horizon — at 10k+ flows the row window is the entire memory footprint.
  virtual double max_row_delay() const { return max_delay(); }

  /// Contiguous variable range [first, count] still readable back to the
  /// full max_delay() horizon. Only consulted when max_row_delay() is
  /// shorter than max_delay().
  virtual std::pair<std::size_t, std::size_t> deep_vars() const {
    return {0, dim()};
  }
};

/// Fixed-step RK4 driver over a DdeSystem.
class DdeSolver {
 public:
  /// Invariant check run on every trial step before it is accepted. Returns
  /// true to accept; on rejection fills `diag` (component/last-good fields
  /// are completed by the solver). See robust/invariant_guard.hpp for the
  /// standard guards (non-finite state, queue/rate bounds).
  using Guard =
      std::function<bool(double t, std::span<const double> x, Diagnostic& diag)>;

  /// Throws InvariantViolation when initial_state does not have dim()
  /// entries, dt is not a positive finite number, or the system's bounds()
  /// overlap or leave [0, dim()).
  DdeSolver(const DdeSystem& system, std::vector<double> initial_state,
            double t0, double dt);

  double time() const { return t_; }
  std::span<const double> state() const { return x_; }
  const History& history() const { return history_; }

  /// Install an invariant guard. A rejected step is retried from the last
  /// accepted state at half the step size (graceful degradation through a
  /// stiff transient); the remaining sub-steps of the nominal dt are then
  /// completed, so the post-step time is always t0 + k*dt regardless of
  /// retries. `max_step_halvings` bounds the total rejections within one
  /// nominal step; past it the solver throws InvariantViolation carrying
  /// the guard's diagnostic plus the last good state.
  void set_guard(Guard guard, int max_step_halvings = 6);

  /// Steps that needed at least one halving before a guard accepted them.
  std::uint64_t steps_retried() const { return steps_retried_; }

  /// Advance one nominal step: time moves from t0 + k*dt to t0 + (k+1)*dt.
  void step();

  /// Advance until time t_end, invoking `observer(t, x)` every
  /// `sample_interval` seconds (and at t_end). Pass a zero/negative interval
  /// to observe every step.
  void run_until(double t_end,
                 const std::function<void(double, std::span<const double>)>& observer,
                 double sample_interval);

 private:
  /// One RK4 update of size h applied in place to x_ (no history append).
  void advance(double h);
  /// out[i] = value(i) for every i in [0, dim()), bounded by bounds_: one
  /// flat loop per bounds block and per unbounded gap, so each vectorizes.
  template <typename Value>
  void bounded_pass(double* out, Value value) const;
  void commit(double t_new);
  double grid_time(std::uint64_t k) const {
    return t0_ + static_cast<double>(k) * dt_;
  }

  const DdeSystem& system_;
  std::vector<StateBounds> bounds_;  // system_.bounds(), sorted by first
  double t_;
  double t0_;
  double dt_;
  std::uint64_t step_index_ = 0;  // t_ == grid_time(step_index_) between steps
  std::vector<double> x_;
  History history_;
  // Scratch buffers for RK4 stages (avoid per-step allocation).
  std::vector<double> k1_, k2_, k3_, k4_, tmp_;
  std::vector<double> x_save_;  // last accepted state, for guarded retries
  Guard guard_;
  int max_step_halvings_ = 6;
  std::uint64_t steps_retried_ = 0;
  double last_trim_ = 0.0;
};

}  // namespace ecnd::fluid
