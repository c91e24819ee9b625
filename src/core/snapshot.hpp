#pragma once
// Versioned binary snapshots for the fluid DDE solver's checkpoint/restore.
//
// DdeSolver::save freezes the solver's complete integration state (clock,
// step counters, state vector and the delay history) into a byte stream, and
// DdeSolver::restore resumes from it bit-identically: the same observer rows
// and metric counts an uninterrupted run would have produced. The packet
// simulator has no checkpoint; its events are closures over live network
// objects, which no byte stream can carry.
//
// Wire format (little-endian, fixed-width):
//
//   header   magic u32 ("ECND"), format_version u16, kind u16 (always 1,
//            the DDE solver), payload_size u64, payload_digest u64 (FNV-1a
//            over the payload)
//   payload  solver field stream (see DdeSolver::save)
//
// The header digest makes truncation and bit-rot a loud SnapshotError instead
// of a silently-wrong continuation; the (version, kind) pair rejects
// snapshots from a different writer generation or an unknown producer. The
// format version bumps whenever the payload layout changes — old snapshots
// are rejected, never reinterpreted: a checkpoint is a cache of recomputable
// state, so "refuse and re-run" is always safe while "guess and continue"
// never is.
//
// Doubles are serialized as their IEEE-754 bit patterns (std::bit_cast to
// u64), so a restored state is the *identical* double, not a round-tripped
// decimal approximation.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecnd {

/// Thrown on any snapshot mismatch: bad magic/version/kind, truncated or
/// corrupted payload, or restore-time state validation failure.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error("snapshot: " + what) {}
};

/// Snapshot format generation. Bump when the payload layout changes.
/// v2: History payload gained the deep-retention side store.
inline constexpr std::uint16_t kSnapshotVersion = 2;

/// Accumulates a payload in memory, then emits header + payload in one go so
/// the digest and size are always consistent with the bytes that follow.
class SnapshotWriter {
 public:
  void u64(std::uint64_t v);
  void f64(double v);
  void f64_span(std::span<const double> v);  ///< count-prefixed

  /// Write header + payload. The writer may not be reused afterwards.
  void finish(std::ostream& out);

 private:
  std::string payload_;
};

/// Reads and validates a snapshot header, then hands out payload fields.
/// Every accessor throws SnapshotError on over-read; call finish() after the
/// last field to reject trailing garbage (a likely layout mismatch).
class SnapshotReader {
 public:
  /// Reads the full snapshot from `in`, validating magic, version, kind and
  /// the payload digest up front.
  explicit SnapshotReader(std::istream& in);

  std::uint64_t u64();
  double f64();
  std::vector<double> f64_vec();

  /// Throws unless the payload was consumed exactly.
  void finish() const;

 private:
  std::span<const unsigned char> take(std::size_t n);

  std::string payload_;
  std::size_t pos_ = 0;
};

/// FNV-1a 64-bit over arbitrary bytes — the same digest the run manifests
/// use for their metrics fingerprint and the sweep journal for cell keys.
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace ecnd
