#include "cpm/common/hash.hpp"

#include <algorithm>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define CPM_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace cpm {

namespace {

constexpr std::size_t kBlockBytes = 64;

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#ifdef CPM_SHA256_X86

#define CPM_SHA256_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Whether this CPU has the SHA extensions (leaf 7 EBX bit 29) and the
/// SSSE3 and SSE4.1 shuffles around them (leaf 1 ECX bits 9 and 19). Asked
/// once per process: CPUID is slow, and in a virtual machine it traps.
bool cpu_has_sha_extensions() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
    const bool sse = (ecx & (1U << 9)) != 0 && (ecx & (1U << 19)) != 0;
    if (!sse || __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
      return false;
    return (ebx & (1U << 29)) != 0;
  }();
  return has;
}

/// Four rounds: message words `w` plus their round constants, which the
/// two SHA256RNDS2 steps take two at a time.
CPM_SHA256_TARGET inline void four_rounds(__m128i& abef, __m128i& cdgh,
                                          __m128i w, std::size_t round) {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(kRoundConstants.data() + round)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// The rounds on the x86 SHA instructions. They keep the state as the
/// word pairs ABEF and CDGH, and take message words in host order.
CPM_SHA256_TARGET void compress_sha_extensions(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
    std::size_t count) {
  // Big-endian message words to host order, within each 32-bit lane.
  const __m128i byte_swap =
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
  // Lanes are named from the highest: abef holds a, b, e, f in lanes 3..0.
  auto* words = reinterpret_cast<__m128i*>(state.data());
  const __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(words), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(words + 1), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += kBlockBytes) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), byte_swap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), byte_swap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), byte_swap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), byte_swap);
    four_rounds(abef, cdgh, m0, 0);
    four_rounds(abef, cdgh, m1, 4);
    four_rounds(abef, cdgh, m2, 8);
    four_rounds(abef, cdgh, m3, 12);
    // Rounds 16 to 63: each four message words from the sixteen before.
    for (std::size_t round = 16; round < 64; round += 4) {
      const __m128i next = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                        _mm_alignr_epi8(m3, m2, 4)),
          m3);
      m0 = m1;
      m1 = m2;
      m2 = m3;
      m3 = next;
      four_rounds(abef, cdgh, m3, round);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // CPM_SHA256_X86

/// Compresses whole blocks on the SHA instructions where the CPU has them,
/// otherwise with the portable rounds. Both give the same state.
void compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
              std::size_t count) {
  if (!detail::sha256_compress_native(state, blocks, count))
    detail::sha256_compress_portable(state, blocks, count);
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::array<std::uint32_t, 8>& state,
                              const std::uint8_t* blocks, std::size_t count) {
  for (; count > 0; --count, blocks += kBlockBytes) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[static_cast<std::size_t>(i)] =
          (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
          (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
          (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
          static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool sha256_compress_native(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks, std::size_t count) {
#ifdef CPM_SHA256_X86
  if (!cpu_has_sha_extensions()) return false;
  compress_sha_extensions(state, blocks, count);
  return true;
#else
  (void)state;
  (void)blocks;
  (void)count;
  return false;
#endif
}

}  // namespace detail

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const void* data, std::size_t len) {
  if (len == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, kBlockBytes - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    len -= take;
    if (buffered_ < kBlockBytes) return;
    compress(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks straight from the caller's bytes; only the tail waits.
  const std::size_t whole = len / kBlockBytes;
  if (whole > 0) compress(state_, bytes, whole);
  buffered_ = len - whole * kBlockBytes;
  if (buffered_ > 0)
    std::memcpy(buffer_.data(), bytes + whole * kBlockBytes, buffered_);
}

std::array<std::uint8_t, 32> Sha256::digest() {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Pad in one update: 0x80, zeros to 56 mod 64, then the 64-bit
  // big-endian bit count (9 to 72 bytes).
  std::array<std::uint8_t, 72> padding{};
  padding[0] = 0x80;
  const std::size_t zeros = (buffered_ < 56 ? 55 : 119) - buffered_;
  for (std::size_t i = 0; i < 8; ++i)
    padding[1 + zeros + i] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  update(padding.data(), 1 + zeros + 8);

  std::array<std::uint8_t, 32> out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha256::hex_digest() {
  static const char* hex = "0123456789abcdef";
  const auto bytes = digest();
  std::string out;
  out.reserve(64);
  for (const std::uint8_t b : bytes) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xf]);
  }
  return out;
}

std::string sha256_hex(const std::string& text) {
  Sha256 h;
  h.update(text);
  return h.hex_digest();
}

}  // namespace cpm
