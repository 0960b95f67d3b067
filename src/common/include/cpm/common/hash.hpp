// Content hashing for cache keys and document fingerprints.
//
// The sweep engine addresses cached results by the hash of a canonical
// JSON document (sorted keys, round-trip number formatting), so the hash
// must be collision-resistant across millions of near-identical specs —
// a 64-bit mixing hash is not enough. This is a dependency-free SHA-256
// (FIPS 180-4). Keying costs about as much as what it keys, and only
// because sweep::run_sweep hashes the constant prefix of its key documents
// (engine salt, model, pipeline) once per sweep and copies that state for
// each point. On a 4-vCPU x86-64 KVM guest a point's key and seed took
// about 6 us that way, against about 42 us when each point re-serialised
// and re-hashed its whole document, and about 5 us for a
// ClusterModel::evaluate. The one-shot sweep::point_key still dumps the
// model: about 26 us.
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
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

/// One-shot convenience: lowercase-hex SHA-256 of `text`.
std::string sha256_hex(const std::string& text);

}  // namespace cpm
