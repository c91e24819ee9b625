#pragma once
// Whole-string argument parsing shared by the example programs. A parser
// returns false on junk, trailing characters, overflow or empty input, so a
// mistyped argument reaches the caller's usage message instead of being read
// as 0 (atoi) or wrapped (strtoull).

#include <cerrno>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace ecnd::cli {

/// Whole-string integer parse; false on junk, overflow or empty input.
inline bool parse_int(const char* s, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

/// Whole-string finite floating-point parse.
inline bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !std::isfinite(v)) return false;
  out = v;
  return true;
}

/// Seed parse: decimal digits only, at most 2^64 - 1. No sign is accepted,
/// so "-1" is rejected instead of wrapping to 18446744073709551615.
inline bool parse_seed(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace ecnd::cli
