#pragma once
// The ECND_* environment knobs: the list of names the tree reads, and checked
// parsing for the ones with a value format. A count (ECND_THREADS) must be
// decimal digits only and at least 1; ECND_RUN_DETAIL must name a level. On
// anything else one stderr line names the knob and the value, and the caller
// keeps its default. Parsing uses std::from_chars: strtoul would accept "-1"
// and wrap it to 2^64-1.
//
// Header-only, like core/json_writer.hpp: obs code includes it but cannot
// link anything compiled into ecnd_core.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <optional>
#include <string_view>

namespace ecnd::env {

/// Every ECND_* variable the tree reads. Any other one that is set is
/// reported at startup, so a misspelt or retired knob is not silently a no-op.
inline constexpr std::string_view kKnobs[] = {
    "ECND_RUN_DIR", "ECND_RUN_DETAIL", "ECND_THREADS",
    "ECND_QUICK",   "ECND_JOURNAL",    "ECND_GIT_SHA"};

inline void warn_ignored(const char* knob, const char* value,
                         const char* expected) {
  std::fprintf(stderr, "[env] ignoring %s=\"%s\": expected %s\n", knob, value,
               expected);
}

/// One "[env] ignoring unknown knob" line for each ECND_* entry of `envp`
/// (NAME=value strings ending in nullptr, like environ) not in kKnobs.
inline void warn_unknown_knobs(const char* const* envp) {
  for (; *envp != nullptr; ++envp) {
    const std::string_view entry(*envp);
    const std::string_view name = entry.substr(0, entry.find('='));
    if (name.starts_with("ECND_") &&
        std::find(std::begin(kKnobs), std::end(kKnobs), name) ==
            std::end(kKnobs)) {
      std::fprintf(stderr, "[env] ignoring unknown knob %.*s\n",
                   static_cast<int>(name.size()), name.data());
    }
  }
}

/// ECND_RUN_DETAIL: how much a run directory records. Each level records
/// everything the levels before it do.
enum class RunDetail { kBasic, kTrace, kFlight, kProf };

/// The level ECND_RUN_DETAIL=`value` (nullptr when unset) selects for the
/// run directory `dir` (ECND_RUN_DIR, nullptr when unset). A value that
/// names no level, or any value without a directory, is reported; kBasic is
/// kept then and when `value` is unset.
inline RunDetail parse_detail(const char* dir, const char* value) {
  if (value == nullptr) return RunDetail::kBasic;
  if (dir == nullptr) {
    warn_ignored("ECND_RUN_DETAIL", value, "ECND_RUN_DIR to be set too");
    return RunDetail::kBasic;
  }
  constexpr const char* kLevels[] = {"basic", "trace", "flight", "prof"};
  for (int i = 0; i < 4; ++i) {
    if (std::strcmp(value, kLevels[i]) == 0) return static_cast<RunDetail>(i);
  }
  warn_ignored("ECND_RUN_DETAIL", value, "basic|trace|flight|prof");
  return RunDetail::kBasic;
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

/// Knob `knob` read as a count; nullopt when unset or invalid.
inline std::optional<std::uint64_t> count(const char* knob) {
  const char* value = std::getenv(knob);
  return value != nullptr ? parse_count(knob, value) : std::nullopt;
}

}  // namespace ecnd::env
