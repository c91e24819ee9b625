#pragma once
// Delay-differential-equation (DDE) integrator.
//
// The DCQCN and TIMELY fluid models (paper Figures 1 and 7) are systems of
// ODEs whose right-hand sides reference *past* state: DCQCN's marking
// probability and rate enter with control-loop delay tau*, TIMELY's queue
// samples enter with the (state-dependent) feedback delay tau'. We integrate
// them with a fixed-step classic RK4 scheme plus a dense history ring;
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
// step index and computes t = t0 + k*dt per step, so step counts (and the
// observer's sample count) are exact for any horizon below 2^53 steps — 1e7
// steps land on the same grid points a fresh solver would compute, with no
// floating-point drift.

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
/// Storage is a history ring: samples sit in fixed-capacity rings addressed
/// by a logical sample index that never shifts (the i-th append is sample
/// i). Trimming only advances a ring's oldest live index, and an append
/// reuses the oldest free slot, so no sample is ever moved or compacted.
/// DdeSolver sizes the rings once, from the windows it trims to; a ring
/// grows only when more samples arrive than that window holds (a History
/// filled without a solver, or a window too long for the solver to size).
///
/// Lookups are amortized O(1): successive delayed reads within an RK4 step
/// are non-decreasing in t per delay lane, so each lane keeps a monotonic
/// cursor that remembers its last interpolation bracket and walks forward
/// from it. There are two lanes: value() and values() serve the feedback
/// delay (DCQCN's tau*, TIMELY's tau'), and values_at() serves the per-flow
/// lookbacks a further tau*_i behind it (TIMELY's Equation 22), which would
/// otherwise drag one shared cursor back and forth on every right-hand
/// side. On a backward jump (feedback jitter, a flow whose tau* grew) the
/// bracket index is computed from the samples' even spacing and checked; a
/// binary search runs only when that check fails. A cursor is only a
/// starting hint, so every lookup returns the same bracket whichever lane
/// serves it.
class History {
 public:
  explicit History(std::size_t dim) : dim_(dim), rows_(dim), deep_(0) {}

  std::size_t dim() const { return dim_; }
  bool empty() const { return rows_.size() == 0; }
  /// Oldest retained sample time (0 when empty).
  double first_time() const { return empty() ? 0.0 : rows_.time(rows_.begin); }
  double last_time() const { return empty() ? 0.0 : rows_.time(rows_.end - 1); }

  /// Record the state x at time t. Throws InvariantViolation naming both
  /// times when t is earlier than the newest sample (or NaN): every search
  /// relies on sorted times.
  void append(double t, std::span<const double> x);

  /// Value of state variable `var` at time t (linear interpolation, clamped
  /// to the recorded span; a NaN t reads the oldest sample).
  double value(std::size_t var, double t) const;

  /// The contiguous variable block [var_begin, var_begin + var_count) at
  /// time t, for struct-of-arrays state layouts where a right-hand side
  /// needs one block (e.g. all delayed rates) out of a wide row: one history
  /// search, var_count interpolations instead of var_count searches. Element
  /// j is bit-identical to value(var_begin + j, t). The returned span is
  /// valid until the next values() call, append() or trim_before() on this
  /// History.
  std::span<const double> values(double t, std::size_t var_begin,
                                 std::size_t var_count) const;

  /// One variable at many (arbitrary, possibly unsorted) times:
  /// out[i] = value(var, times[i]), bit-identical to per-query value()
  /// calls but searched from this call's own lane cursors. A query equal to
  /// its predecessor is served from the previous result without a new
  /// search — the dominant case for per-flow delayed lookups in symmetric
  /// many-flow runs, where every flow asks for the same delayed instant.
  void values_at(std::size_t var, std::span<const double> times,
                 std::span<double> out) const;

  /// Enable split retention: trim_before(t_keep, t_keep_deep) then keeps
  /// full state rows back to t_keep only, while preserving the variables
  /// [var_begin, var_begin + var_count) in a narrow deep ring back to
  /// t_keep_deep. For wide systems whose long-delay reads touch few
  /// variables (TIMELY at 10k flows: 20k-wide rows, queue-only lookbacks of
  /// milliseconds) this is the difference between megabytes and gigabytes
  /// of retained history. Lookups into the deep window interpolate the same
  /// recorded samples and are bit-identical to an untrimmed History.
  /// Must be called before the first append().
  void set_deep_retention(std::size_t var_begin, std::size_t var_count);

  /// Drop history strictly older than t_keep, so long runs don't grow
  /// unboundedly. Keeps at least two points.
  void trim_before(double t_keep);

  /// Split-retention trim: full rows back to t_keep_rows, deep-retained
  /// variables back to t_keep_deep (<= t_keep_rows). Equivalent to
  /// trim_before(t_keep_rows) when set_deep_retention was never called.
  void trim_before(double t_keep_rows, double t_keep_deep);

 private:
  friend class DdeSolver;

  /// Samples of `width` values each plus their times. Sample i stays in
  /// slot head + (i - begin), wrapped at the capacity, while
  /// begin <= i < end. The slots fill in order up to the capacity and are
  /// reused from then on, so a reservation costs memory only as it fills.
  struct Ring {
    explicit Ring(std::size_t w) : width(w) {}

    std::size_t size() const { return end - begin; }
    std::size_t slot(std::size_t i) const {
      const std::size_t s = head + (i - begin);
      return s < capacity ? s : s - capacity;
    }
    double time(std::size_t i) const { return times[slot(i)]; }
    const double* row(std::size_t i) const {
      return vals.data() + slot(i) * width;
    }
    /// Append sample `end` (time t, values row[0, width)), growing the ring
    /// when it is full.
    void push(double t, const double* row);
    /// Forget the samples before i (begin <= i <= end).
    void drop_before(std::size_t i) {
      head = slot(i);
      begin = i;
    }
    /// Room for n >= size() samples; the live ones move to slots from 0.
    void reserve(std::size_t n);
    /// First index in [lo, end) with time >= t, or end: what std::lower_bound
    /// over those samples returns.
    std::size_t lower_bound(std::size_t lo, double t) const;
    /// lower_bound(begin, t) for time(begin) < t <= time(end - 1): the
    /// bracket index computed from the even spacing when it checks out,
    /// else a binary search.
    std::size_t bracket(double t) const;

    std::size_t width;
    std::size_t capacity = 0;
    std::size_t begin = 0;  // oldest live sample
    std::size_t end = 0;    // one past the newest
    std::size_t head = 0;   // slot of `begin`
    std::vector<double> times;  // by slot
    std::vector<double> vals;   // row-major: [slot * width + col]
  };

  /// Room for `rows` full rows and `deep_rows` deep samples; DdeSolver
  /// calls it once, before the first append.
  void reserve(std::size_t rows, std::size_t deep_rows);
  /// First index of `r` with time >= t, walking forward from the cursor
  /// hint when it is live and below t, else r.bracket(t). Precondition:
  /// r.time(r.begin) < t <= r.time(r.end - 1). Updates the cursor.
  static std::size_t locate(const Ring& r, std::size_t& cursor, double t);
  /// value(var, t) searched from one lane's row-ring and deep-ring cursors.
  double value_lane(std::size_t var, double t, std::size_t& cursor,
                    std::size_t& deep_cursor) const;
  bool deep_covers(std::size_t var) const {
    return deep_.width > 0 && var >= deep_begin_ &&
           var - deep_begin_ < deep_.width;
  }
  /// Interpolated deep-ring read. Preconditions: deep_covers(var), the deep
  /// ring is non-empty, and its first time < t <= the row ring's first
  /// time (queries past the deep ring's newest sample bridge across the
  /// boundary sample pair). Searches from, and updates, `deep_cursor`.
  double deep_value(std::size_t var, double t, std::size_t& deep_cursor) const;
  /// Batch-path fallback for t at/below the row ring's start when the
  /// requested range intersects the deep ring: per-variable reads into
  /// batch_buf_, each matching value() bit for bit.
  std::span<const double> deep_clamped_range(double t, std::size_t var_begin,
                                             std::size_t var_count) const;

  std::size_t dim_;
  Ring rows_;                               // full state rows
  // Lookup lanes' cursors, the last bracket (hi) each found in rows_ and in
  // deep_: value() and values() use cursor_ and deep_cursor_, values_at()
  // uses at_cursor_ and at_deep_cursor_.
  mutable std::size_t cursor_ = 0;
  mutable std::size_t at_cursor_ = 0;
  mutable std::vector<double> batch_buf_;   // scratch row for values()

  // Deep-retention ring (set_deep_retention): samples of variables
  // [deep_begin_, deep_begin_ + deep_.width) for times strictly older than
  // the row ring's first sample, contiguous with it (its newest sample is
  // the row dropped most recently). Width 0 = split retention disabled.
  std::size_t deep_begin_ = 0;
  Ring deep_;
  mutable std::size_t deep_cursor_ = 0;
  mutable std::size_t at_deep_cursor_ = 0;
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
  /// x and dxdt never overlap. Implementations may keep mutable scratch
  /// (lookup buffers, memos of delayed terms), so a system serves one solver
  /// at a time and never two threads at once.
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
  /// Throws InvariantViolation when initial_state does not have dim()
  /// entries, dt is not a positive finite number, or the system's bounds()
  /// overlap or leave [0, dim()).
  DdeSolver(const DdeSystem& system, std::vector<double> initial_state,
            double t0, double dt);

  double time() const { return t_; }
  std::span<const double> state() const { return x_; }
  const History& history() const { return history_; }

  /// Advance one step: time moves from t0 + k*dt to t0 + (k+1)*dt.
  void step();

  /// Advance until time t_end, invoking `observer(t, x)` every
  /// `sample_interval` seconds (and at t_end). Pass a zero/negative interval
  /// to observe every step. Throws InvariantViolation naming t_end and dt
  /// when (t_end - t0) / dt is NaN or at least 2^53 steps, past which the
  /// step index no longer converts to a grid time exactly.
  void run_until(double t_end,
                 const std::function<void(double, std::span<const double>)>& observer,
                 double sample_interval);

 private:
  /// One RK4 update of size dt applied in place to x_ (no history append).
  void advance();
  /// out[i] = value(i) for every i in [0, dim()), bounded by bounds_: one
  /// flat loop per bounds block and per unbounded gap, so each vectorizes.
  template <typename Value>
  void bounded_pass(double* out, Value value) const;
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
  // History windows step() trims to: full rows back by keep_rows_ (twice
  // the system's max_row_delay() plus 10 dt), deep-retained variables back
  // by keep_deep_ (the same over max_delay()).
  double keep_rows_;
  double keep_deep_;
  double last_trim_ = 0.0;
};

}  // namespace ecnd::fluid
