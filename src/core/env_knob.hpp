#pragma once
// Checked parsing for the numeric environment knobs (ECND_THREADS,
// ECND_TRACE_CAP, ECND_FLIGHT_SAMPLE, ECND_METRICS_TS_INTERVAL). The whole
// value must parse: a count is decimal digits only and at least 1, an
// interval is a finite number above 0. On anything else one stderr line
// names the knob and the value, and the caller keeps its default. Parsing
// uses std::from_chars: strtoul would accept "-1" and wrap it to 2^64-1.
//
// Header-only, like core/json_writer.hpp: obs code includes it but cannot
// link anything compiled into ecnd_core.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace ecnd::env {

inline void warn_ignored(const char* knob, const char* value,
                         const char* expected) {
  std::fprintf(stderr, "[env] ignoring %s=\"%s\": expected %s\n", knob, value,
               expected);
}

/// `value` as a count >= 1, or nullopt (with a warning naming `knob`).
inline std::optional<std::uint64_t> parse_count(const char* knob,
                                                const char* value) {
  const char* end = value + std::strlen(value);
  std::uint64_t n = 0;
  const auto [ptr, ec] = std::from_chars(value, end, n);
  if (ec == std::errc() && ptr == end && n >= 1) return n;
  warn_ignored(knob, value, "a whole number >= 1");
  return std::nullopt;
}

/// `value` as a finite number > 0, or nullopt (with a warning naming `knob`).
inline std::optional<double> parse_positive(const char* knob,
                                            const char* value) {
  const char* end = value + std::strlen(value);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(value, end, v);
  if (ec == std::errc() && ptr == end && std::isfinite(v) && v > 0.0) return v;
  warn_ignored(knob, value, "a finite number > 0");
  return std::nullopt;
}

/// Knob `knob` read as a count; nullopt when unset or invalid.
inline std::optional<std::uint64_t> count(const char* knob) {
  const char* value = std::getenv(knob);
  return value != nullptr ? parse_count(knob, value) : std::nullopt;
}

/// Knob `knob` read as a positive number; nullopt when unset or invalid.
inline std::optional<double> positive(const char* knob) {
  const char* value = std::getenv(knob);
  return value != nullptr ? parse_positive(knob, value) : std::nullopt;
}

}  // namespace ecnd::env
