#pragma once
// The one JSON writer behind every observability export (metrics dump,
// trace, flight recorder, metric snapshots, run manifest).
//
// Deterministic and locale-free: doubles render as their shortest
// round-trip decimal (std::to_chars), so the same IEEE value always gives the
// same bytes, and a non-finite value renders as null, never as the invalid
// tokens nan/inf. The Chrome-trace exporters keep their two fixed formats
// (microseconds with six decimals, values with nine significant digits).
//
// Header-only: ecnd_core links ecnd_obs, so obs code may include this header
// but cannot link anything compiled into ecnd_core. report/json.cpp stays
// the only parser.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <string_view>

namespace ecnd::json {

/// `s` as a quoted JSON string: quote and backslash escaped, \n \t \r in
/// their short forms, every other control character as \u00XX.
inline std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

/// Shortest round-trip decimal; null when `v` is NaN or infinite.
inline std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

/// printf-style rendering for the Chrome-trace fixed formats below.
inline std::string fixed(const char* format, double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// Chrome-trace timestamp or duration: microseconds, six decimals (%.6f).
inline std::string trace_us(double us) { return fixed("%.6f", us); }

/// Chrome-trace argument value: nine significant digits (%.9g).
inline std::string trace_value(double v) { return fixed("%.9g", v); }

/// Create `path` and hand the stream to `writer`. When the file cannot be
/// opened, print "[obs] cannot open <knob> path <path>" to stderr and write
/// nothing; when writing or flushing it fails (a full disk), print
/// "[obs] cannot write <knob> path <path>". Returns true only when every
/// byte reached the file.
template <typename Writer>
bool write_file(const std::string& path, const char* knob, Writer&& writer) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[obs] cannot open %s path %s\n", knob, path.c_str());
    return false;
  }
  writer(static_cast<std::ostream&>(out));
  if (!out.flush()) {
    std::fprintf(stderr, "[obs] cannot write %s path %s\n", knob, path.c_str());
    return false;
  }
  return true;
}

}  // namespace ecnd::json
