#include "core/diagnostic.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace ecnd {

namespace {
const obs::Counter kInvariantViolations =
    obs::counter("robust.invariant_violations");
}  // namespace

namespace detail {
void note_invariant_violation() { kInvariantViolations.add(); }
}  // namespace detail

std::string Diagnostic::to_string() const {
  char head[256];
  if (task_index >= 0) {
    std::snprintf(head, sizeof(head),
                  "invariant violated in %s (task %lld) at t=%.9gs: %s = %.9g",
                  component.c_str(), static_cast<long long>(task_index), time,
                  variable.c_str(), value);
  } else {
    std::snprintf(head, sizeof(head),
                  "invariant violated in %s at t=%.9gs: %s = %.9g",
                  component.c_str(), time, variable.c_str(), value);
  }
  std::string out = head;
  if (!detail.empty()) {
    out += " (";
    out += detail;
    out += ")";
  }
  return out;
}

}  // namespace ecnd
