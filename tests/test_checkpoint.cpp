// Checkpoint/restore fidelity for the fluid DdeSolver: a run saved
// mid-flight and resumed in a fresh solver must be bit-identical to one that
// never stopped — same observer rows, same state, same retry count. The
// refusal paths are covered too: a corrupted or truncated payload, a
// dimension mismatch, and a header whose magic, version or kind is wrong.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "fluid/dcqcn_model.hpp"
#include "fluid/dde_solver.hpp"
#include "robust/invariant_guard.hpp"

namespace ecnd {
namespace {

/// dx/dt = -k x(t - tau): delayed negative feedback, oscillatory for
/// k * tau near pi/2 — plenty of history traffic for the snapshot to carry.
class DelayedFeedback final : public fluid::DdeSystem {
 public:
  DelayedFeedback(double k, double tau) : k_(k), tau_(tau) {}
  std::size_t dim() const override { return 1; }
  void rhs(double t, std::span<const double>, const fluid::History& past,
           std::span<double> dxdt) const override {
    dxdt[0] = -k_ * past.value(0, t - tau_);
  }
  double max_delay() const override { return tau_; }

 private:
  double k_, tau_;
};

struct Row {
  double t;
  std::vector<double> x;
  bool operator==(const Row&) const = default;
};

std::vector<Row> observe_rows(fluid::DdeSolver& solver, double t_end,
                              double interval) {
  std::vector<Row> rows;
  solver.run_until(
      t_end,
      [&](double t, std::span<const double> x) {
        rows.push_back({t, {x.begin(), x.end()}});
      },
      interval);
  return rows;
}

TEST(FluidCheckpoint, RestoredSolverContinuesBitIdentically) {
  const DelayedFeedback sys(140.0, 0.01);
  const double dt = 1e-4, mid = 0.25, end = 0.5, interval = 1e-3;

  // Reference run. It must split run_until at `mid` exactly like the
  // checkpointed run does, so the observer's sampling anchors match and the
  // comparison isolates snapshot fidelity.
  fluid::DdeSolver ref(sys, {1.0}, 0.0, dt);
  std::vector<Row> ref_rows = observe_rows(ref, mid, interval);
  const std::vector<Row> ref_tail = observe_rows(ref, end, interval);

  // Checkpointed run: integrate to mid, freeze, thaw into a fresh solver.
  fluid::DdeSolver first(sys, {1.0}, 0.0, dt);
  std::vector<Row> got_rows = observe_rows(first, mid, interval);
  std::stringstream snap;
  first.save(snap);

  fluid::DdeSolver resumed(sys, {0.0}, 0.0, dt);  // junk init, overwritten
  resumed.restore(snap);
  EXPECT_EQ(resumed.time(), first.time());
  ASSERT_EQ(resumed.state().size(), first.state().size());
  EXPECT_EQ(resumed.state()[0], first.state()[0]);  // bit-exact, not NEAR

  const std::vector<Row> got_tail = observe_rows(resumed, end, interval);
  ASSERT_EQ(got_tail.size(), ref_tail.size());
  for (std::size_t i = 0; i < ref_tail.size(); ++i) {
    EXPECT_EQ(got_tail[i].t, ref_tail[i].t) << "row " << i;
    EXPECT_EQ(got_tail[i].x, ref_tail[i].x) << "row " << i;
  }
  EXPECT_EQ(resumed.state()[0], ref.state()[0]);
  EXPECT_EQ(resumed.steps_retried(), ref.steps_retried());
}

TEST(FluidCheckpoint, GuardedDcqcnModelRoundTrips) {
  fluid::DcqcnFluidParams params;
  params.num_flows = 2;
  const fluid::DcqcnFluidModel model(params);
  const double dt = model.suggested_dt();
  const double mid = 0.01, end = 0.02;

  fluid::DdeSolver ref(model, model.initial_state(), 0.0, dt);
  robust::guard_solver(ref, model);
  observe_rows(ref, mid, 0.0);
  observe_rows(ref, end, 0.0);

  fluid::DdeSolver first(model, model.initial_state(), 0.0, dt);
  robust::guard_solver(first, model);
  observe_rows(first, mid, 0.0);
  std::stringstream snap;
  first.save(snap);

  fluid::DdeSolver resumed(model, model.initial_state(), 0.0, dt);
  resumed.restore(snap);
  // The guard is a closure and deliberately not serialized: reinstall it.
  robust::guard_solver(resumed, model);
  observe_rows(resumed, end, 0.0);

  ASSERT_EQ(resumed.state().size(), ref.state().size());
  for (std::size_t i = 0; i < ref.state().size(); ++i) {
    EXPECT_EQ(resumed.state()[i], ref.state()[i]) << "state var " << i;
  }
  EXPECT_EQ(resumed.steps_retried(), ref.steps_retried());
}

TEST(FluidCheckpoint, RestoreRejectsDimensionMismatch) {
  const DelayedFeedback one_dim(10.0, 0.01);
  fluid::DdeSolver src(one_dim, {1.0}, 0.0, 1e-4);
  observe_rows(src, 0.01, 0.0);
  std::stringstream snap;
  src.save(snap);

  fluid::DcqcnFluidParams params;
  params.num_flows = 2;
  const fluid::DcqcnFluidModel model(params);
  fluid::DdeSolver dst(model, model.initial_state(), 0.0, 1e-6);
  EXPECT_THROW(dst.restore(snap), SnapshotError);
}

TEST(FluidCheckpoint, CorruptedPayloadIsRejected) {
  const DelayedFeedback sys(10.0, 0.01);
  fluid::DdeSolver src(sys, {1.0}, 0.0, 1e-4);
  observe_rows(src, 0.02, 0.0);
  std::stringstream snap;
  src.save(snap);

  std::string bytes = snap.str();
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit
  std::stringstream corrupted(bytes);
  fluid::DdeSolver dst(sys, {1.0}, 0.0, 1e-4);
  EXPECT_THROW(dst.restore(corrupted), SnapshotError);
}

TEST(FluidCheckpoint, TruncatedStreamIsRejected) {
  const DelayedFeedback sys(10.0, 0.01);
  fluid::DdeSolver src(sys, {1.0}, 0.0, 1e-4);
  observe_rows(src, 0.02, 0.0);
  std::stringstream snap;
  src.save(snap);

  const std::string bytes = snap.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  fluid::DdeSolver dst(sys, {1.0}, 0.0, 1e-4);
  EXPECT_THROW(dst.restore(truncated), SnapshotError);

  std::stringstream beheaded(bytes.substr(0, 10));
  EXPECT_THROW(dst.restore(beheaded), SnapshotError);
}

TEST(FluidCheckpoint, PatchedHeaderFieldIsRejectedByName) {
  const DelayedFeedback sys(10.0, 0.01);
  fluid::DdeSolver src(sys, {1.0}, 0.0, 1e-4);
  observe_rows(src, 0.01, 0.0);
  std::stringstream snap;
  src.save(snap);
  const std::string bytes = snap.str();

  // Header: magic u32 at 0, version u16 at 4, kind u16 at 6 (little-endian).
  struct Patch {
    std::size_t offset;
    std::uint16_t value;
    const char* field;
  };
  const Patch patches[] = {
      {0, 0x5858, "magic"},
      {4, static_cast<std::uint16_t>(kSnapshotVersion + 1), "version"},
      {6, 2, "kind"},
  };
  for (const Patch& p : patches) {
    SCOPED_TRACE(p.field);
    std::string patched = bytes;
    patched[p.offset] = static_cast<char>(p.value & 0xFF);
    patched[p.offset + 1] = static_cast<char>(p.value >> 8);
    std::stringstream in(patched);
    fluid::DdeSolver dst(sys, {1.0}, 0.0, 1e-4);
    try {
      dst.restore(in);
      ADD_FAILURE() << "expected SnapshotError";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(p.field), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace ecnd
