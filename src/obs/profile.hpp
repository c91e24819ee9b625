#pragma once
// Hierarchical wall-clock profiler — the only place wall-clock time lives in
// the observability layer. Every ProfScope pushes a frame onto a TLS stack
// while the profiler is armed (ECND_RUN_DETAIL=prof). Nested scopes form a
// call tree per thread — node = (parent, name), with hit count and total
// ns — merged across threads by name path at export and written into the
// run directory, one "a;b;c value" line per stack, ready for flamegraph.pl /
// speedscope. The engines' top-level frames are sim.run
// (Simulator::run_until / run_all), fluid.run (DdeSolver::run_until) and
// par.sweep / par.task (the sweep engine); their profile.wall.folded totals
// are the per-region wall times.
//
// Determinism: profile.folded carries HIT COUNTS — a pure function of the
// scenario, so the file is byte-identical at any ECND_THREADS.
// profile.wall.folded carries self-nanoseconds (what flamegraphs usually
// want; inherently run-specific). Frames that
// must not inherit their caller's stack (a sweep task timed from whichever
// worker picked it up) pass Anchor::kDetached and anchor at the root, so
// the tree shape never depends on the schedule.
//
// When the profiler is off (or -DECND_OBS=OFF) construction takes one
// branch and the clock is never read. Depth is capped at 64 frames; deeper
// scopes are counted as dropped.
//
// Export discipline matches the other obs modules: collect while sweeps run,
// export after workers joined (process exit or an explicit write call).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ecnd::obs {

/// One merged call-tree node (pre-order flattening; depth gives the shape).
/// self_ns = total_ns minus children's total_ns, clamped at 0.
struct ProfileNode {
  std::string name;
  int depth = 0;
  std::uint64_t hits = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// How a frame attaches to the tree. kDetached anchors at the root no matter
/// what is on the caller's stack — required for frames whose caller is a
/// scheduling accident (sweep tasks under par.sweep on the main thread but
/// not on workers).
enum class Anchor : std::uint8_t { kNested, kDetached };

#if !defined(ECND_OBS_DISABLED)

namespace detail {
extern std::atomic<bool> g_prof_on;
/// High bit of a prof_enter token: the frame was NOT pushed (disabled race
/// or depth cap) and prof_exit must ignore it.
inline constexpr std::uint32_t kInert = 0x80000000u;
/// Push a frame named `name` (literal or intern()ed) under the current
/// frame (or the root when detached). Returns the token prof_exit needs.
std::uint32_t prof_enter(const char* name, bool detach);
/// Pop the current frame, charging it `ns`. No-op for kInert tokens.
void prof_exit(std::uint32_t token, std::uint64_t ns);
/// Zero every node's hits and ns but keep the tree structure (thread-local
/// cursors stay valid). obs::reset's profiler half.
void prof_reset();
}  // namespace detail

inline bool profile_enabled() {
  return detail::g_prof_on.load(std::memory_order_relaxed);
}

/// Programmatic override (tests). ECND_RUN_DETAIL=prof arms this at
/// startup.
void set_profile_enabled(bool on);

/// One profiled region: a named frame under the caller's (or, detached,
/// under the root).
class ProfScope {
 public:
  explicit ProfScope(const char* name, Anchor anchor = Anchor::kNested)
      : token_(detail::kInert) {
    if (profile_enabled()) {
      token_ = detail::prof_enter(name, anchor == Anchor::kDetached);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if ((token_ & detail::kInert) == 0) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      detail::prof_exit(token_, ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::uint32_t token_;
  std::chrono::steady_clock::time_point start_;
};

/// Merged (all threads, by name path) call tree, pre-order, children in
/// name order. Call after workers joined.
std::vector<ProfileNode> profile_nodes();

/// Folded-stack text: one "name;name;... value" line per node, stacks in
/// depth-first name order. wall_values selects self-ns (run-specific)
/// instead of the default hit count (deterministic).
void write_profile_folded(std::ostream& out, bool wall_values = false);

#else  // ECND_OBS_DISABLED: frames vanish.

inline bool profile_enabled() { return false; }
inline void set_profile_enabled(bool) {}

class ProfScope {
 public:
  explicit ProfScope(const char*, Anchor = Anchor::kNested) {}
};

inline std::vector<ProfileNode> profile_nodes() { return {}; }
void write_profile_folded(std::ostream& out, bool wall_values = false);

#endif  // ECND_OBS_DISABLED

}  // namespace ecnd::obs
