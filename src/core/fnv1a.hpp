#pragma once
// FNV-1a 64-bit, the repo's one non-cryptographic digest: sweep-journal cell
// keys, the manifest's metrics fingerprint, ECMP path choice and flight
// recorder sampling. Header-only, like json_writer.hpp, because ecnd_obs
// uses it and cannot link ecnd_core.

#include <cstdint>
#include <string_view>

namespace ecnd {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;

/// One FNV-1a round: fold `byte` (0..255) into `h`.
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, std::uint64_t byte) {
  return (h ^ byte) * 0x100000001b3ULL;
}

/// FNV-1a over `bytes`, starting from `h`.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t h = kFnv1aOffset) {
  for (const char c : bytes) h = fnv1a_byte(h, static_cast<unsigned char>(c));
  return h;
}

/// FNV-1a over a flow identity, starting from `h`: src and dst host as 4
/// little-endian bytes each, then the flow id as 8. Shifts out of registers
/// rather than through a byte buffer: it runs per routed packet.
constexpr std::uint64_t fnv1a64_flow(int src_host, int dst_host,
                                     std::uint64_t flow_id,
                                     std::uint64_t h = kFnv1aOffset) {
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) h = fnv1a_byte(h, (v >> (8 * i)) & 0xffU);
  };
  mix(static_cast<std::uint32_t>(src_host), 4);
  mix(static_cast<std::uint32_t>(dst_host), 4);
  mix(flow_id, 8);
  return h;
}

}  // namespace ecnd
