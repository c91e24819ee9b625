#include "core/snapshot.hpp"

#include <bit>
#include <istream>
#include <ostream>

namespace ecnd {
namespace {

constexpr std::uint32_t kMagic = 0x444E4345u;  // "ECND" little-endian
// The header's kind field. The DDE solver is the only snapshot producer; the
// field is still written and checked so existing snapshots keep their bytes
// and a stream from any other producer is refused.
constexpr std::uint16_t kKindDdeSolver = 1;
constexpr std::size_t kHeaderBytes = 4 + 2 + 2 + 8 + 8;

// Sanity cap on the declared payload size (1 GiB): a corrupted or truncated
// header must not turn into a giant allocation before the digest check runs.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

void append_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

std::uint64_t read_le(std::span<const unsigned char> bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return v;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

void SnapshotWriter::u64(std::uint64_t v) { append_le(payload_, v, 8); }
void SnapshotWriter::f64(double v) {
  append_le(payload_, std::bit_cast<std::uint64_t>(v), 8);
}
void SnapshotWriter::f64_span(std::span<const double> v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void SnapshotWriter::finish(std::ostream& out) {
  std::string header;
  header.reserve(kHeaderBytes);
  append_le(header, kMagic, 4);
  append_le(header, kSnapshotVersion, 2);
  append_le(header, kKindDdeSolver, 2);
  append_le(header, payload_.size(), 8);
  append_le(header, fnv1a64(payload_), 8);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  if (!out) throw SnapshotError("write failed (stream error)");
  payload_.clear();
}

SnapshotReader::SnapshotReader(std::istream& in) {
  unsigned char header[kHeaderBytes];
  in.read(reinterpret_cast<char*>(header), kHeaderBytes);
  if (in.gcount() != static_cast<std::streamsize>(kHeaderBytes)) {
    throw SnapshotError("truncated header");
  }
  const auto field = [&](std::size_t off, std::size_t n) {
    return read_le({header + off, n});
  };
  if (field(0, 4) != kMagic) throw SnapshotError("bad magic (not a snapshot)");
  const std::uint64_t version = field(4, 2);
  if (version != kSnapshotVersion) {
    throw SnapshotError("format version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kSnapshotVersion) +
                        "; re-run instead of restoring)");
  }
  const std::uint64_t kind = field(6, 2);
  if (kind != kKindDdeSolver) {
    throw SnapshotError("kind " + std::to_string(kind) +
                        " is not a fluid-solver snapshot (expected " +
                        std::to_string(kKindDdeSolver) + ")");
  }
  const std::uint64_t size = field(8, 8);
  const std::uint64_t digest = field(16, 8);
  if (size > kMaxPayloadBytes) {
    throw SnapshotError("payload size " + std::to_string(size) +
                        " exceeds the 1 GiB sanity cap (corrupt header?)");
  }
  payload_.resize(static_cast<std::size_t>(size));
  in.read(payload_.data(), static_cast<std::streamsize>(size));
  if (in.gcount() != static_cast<std::streamsize>(size)) {
    throw SnapshotError("truncated payload (header promises " +
                        std::to_string(size) + " bytes)");
  }
  if (fnv1a64(payload_) != digest) {
    throw SnapshotError("payload digest mismatch (corrupted snapshot)");
  }
}

std::span<const unsigned char> SnapshotReader::take(std::size_t n) {
  if (payload_.size() - pos_ < n) {
    throw SnapshotError("payload field over-read (layout mismatch?)");
  }
  const auto* base = reinterpret_cast<const unsigned char*>(payload_.data());
  const std::span<const unsigned char> out{base + pos_, n};
  pos_ += n;
  return out;
}

std::uint64_t SnapshotReader::u64() { return read_le(take(8)); }
double SnapshotReader::f64() { return std::bit_cast<double>(read_le(take(8))); }

std::vector<double> SnapshotReader::f64_vec() {
  const std::uint64_t n = u64();
  if (n > payload_.size() / 8) {
    throw SnapshotError("vector length exceeds remaining payload");
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(f64());
  return out;
}

void SnapshotReader::finish() const {
  if (pos_ != payload_.size()) {
    throw SnapshotError("unconsumed payload bytes (layout mismatch?)");
  }
}

}  // namespace ecnd
