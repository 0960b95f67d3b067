// Content hashing for cache keys and document fingerprints.
//
// The sweep engine addresses cached results by the hash of a canonical
// JSON document (sorted keys, round-trip number formatting), so the hash
// must be collision-resistant across millions of near-identical specs —
// a 64-bit mixing hash is not enough. This is a dependency-free SHA-256
// (FIPS 180-4) with two bodies for the block compression: the portable
// rounds, and on x86 the SHA instructions (SHA256RNDS2, SHA256MSG1/2),
// compiled for that target alone so the build needs no -march flag. The
// first hash a process takes asks CPUID once whether the CPU has them;
// the portable rounds run everywhere else. Every body gives the same
// digest, so keys, seeds and checksums do not depend on the host. On a
// 4-vCPU x86-64 KVM guest a 700-byte message (a compact cached result)
// takes 5 to 6.5 us with the portable rounds (110 to 140 MB/s) and 0.8 to
// 1 us with the SHA instructions (700 to 850 MB/s).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cpm {

/// Incremental SHA-256. Typical use:
///   Sha256 h; h.update(text); auto hex = h.hex_digest();
class Sha256 {
 public:
  Sha256();

  /// Absorbs `len` bytes; may be called repeatedly.
  void update(const void* data, std::size_t len);
  void update(const std::string& text) { update(text.data(), text.size()); }

  /// Finalises and returns the 32-byte digest. The object must not be
  /// updated afterwards (finalisation pads the message).
  [[nodiscard]] std::array<std::uint8_t, 32> digest();

  /// Finalises and returns the digest as 64 lowercase hex characters.
  [[nodiscard]] std::string hex_digest();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

/// One-shot convenience: lowercase-hex SHA-256 of `text`.
std::string sha256_hex(const std::string& text);

namespace detail {

/// The two compression bodies, so tests can check one against the other
/// whatever body Sha256 runs on this CPU. Each absorbs `count` 64-byte
/// blocks into `state` (the eight working words a..h).
void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* blocks, std::size_t count);
/// Returns false, leaving `state` alone, where the build or the CPU has no
/// SHA instructions.
bool sha256_compress_native(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks, std::size_t count);

}  // namespace detail

}  // namespace cpm
