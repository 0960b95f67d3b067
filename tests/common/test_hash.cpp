#include "cpm/common/hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "cpm/common/rng.hpp"

namespace cpm {
namespace {

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                       "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Messages straddling the 64-byte block and 56-byte padding boundaries
// are the classic implementation traps.
TEST(Sha256, PaddingBoundaries) {
  for (const std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
    const std::string msg(n, 'x');
    Sha256 one_shot;
    one_shot.update(msg);
    Sha256 byte_wise;
    for (char c : msg) byte_wise.update(&c, 1);
    EXPECT_EQ(one_shot.hex_digest(), byte_wise.hex_digest())
        << "length " << n;
  }
}

// Digests from Python's hashlib of the message 'a', 'b', ..., 'z', 'a', ...
// cut at each length, around the one-block and two-block padding limits.
TEST(Sha256, PaddingBoundaryDigests) {
  const std::vector<std::pair<std::size_t, const char*>> cases = {
      {55, "595615dbe4f0f407ae397d08b4c2cb870cb9b0e11937416f950c5160acf9c005"},
      {56, "784f623b787495078e93ff28a25b581df0584055a7e71d8cd90c454716b92f51"},
      {57, "808f0738aa4401bdee842e5a15a7baad5809f976d8eb6f9bd2683cebd2e8d671"},
      {63, "5ca3e1ef5207490eac01a795e5cc94d59582a5118bf9534665c8668d87aa647c"},
      {64, "2fcd5a0d60e4c941381fcc4e00a4bf8be422c3ddfafb93c809e8d1e2bfffae8e"},
      {65, "1b3cd1877ab2f2f19f7be001722554f336cb799df0329de0bb4c118dc6abc06d"},
      {119, "faef67da856d6fd9c8d12f9ed0a4fefd3cf0ce085ab43e2907418d457e3c354b"},
      {120, "c9512b08619c19fbb503c7da6b46ef20301e5f7a7a5f43989182398536f5c5c8"},
  };
  for (const auto& [length, digest] : cases) {
    std::string msg;
    for (std::size_t i = 0; i < length; ++i)
      msg.push_back(static_cast<char>('a' + i % 26));
    EXPECT_EQ(sha256_hex(msg), digest) << "length " << length;
  }
}

TEST(Sha256, SplitUpdatesMatchReferenceDigest) {
  // Byte i is (7i + 3) mod 256; digest from Python's hashlib.
  std::string msg;
  for (int i = 0; i < 1000; ++i)
    msg.push_back(static_cast<char>((7 * i + 3) % 256));
  const char* expected =
      "1e9bc38cbf860b9ec31918b065f9b52476c549a782e0e7990bed8ce3868d2371";
  ASSERT_EQ(sha256_hex(msg), expected);
  Rng rng(1009);
  for (int trial = 0; trial < 50; ++trial) {
    Sha256 h;
    std::size_t done = 0;
    while (done < msg.size()) {
      const std::size_t take =
          std::min<std::size_t>(msg.size() - done, rng.below(140));
      h.update(msg.data() + done, take);
      done += take;
    }
    EXPECT_EQ(h.hex_digest(), expected) << "trial " << trial;
  }
}

/// The FIPS 180-4 padding of `msg`: 0x80, zeros to 56 mod 64, then the
/// 64-bit big-endian bit count.
std::string padded(const std::string& msg) {
  std::string out = msg;
  out.push_back('\x80');
  while (out.size() % 64 != 56) out.push_back('\0');
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8)
    out.push_back(static_cast<char>((bits >> shift) & 0xff));
  return out;
}

using CompressBody = bool (*)(std::array<std::uint32_t, 8>&,
                              const std::uint8_t*, std::size_t);

/// Hex digest of `msg` through one compression body alone, or "" when the
/// body cannot run here.
std::string body_hex(CompressBody body, const std::string& msg) {
  std::array<std::uint32_t, 8> state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  const std::string blocks = padded(msg);
  if (!body(state, reinterpret_cast<const std::uint8_t*>(blocks.data()),
            blocks.size() / 64))
    return "";
  std::string hex;
  for (const std::uint32_t word : state) {
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", word);
    hex += buf;
  }
  return hex;
}

bool portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
              std::size_t count) {
  detail::sha256_compress_portable(state, blocks, count);
  return true;
}

// Both bodies against each other and against Sha256, whichever body Sha256
// runs here: every length from 0 to 1,100 bytes (0 to 17 whole blocks and
// every padding boundary), one-shot and in random split updates.
TEST(Sha256, PortableAndNativeCompressAgree) {
  const char* million_a =
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
  const std::string a_million(1'000'000, 'a');
  EXPECT_EQ(body_hex(portable, a_million), million_a);
  Rng rng(20250);
  std::vector<std::string> messages;
  for (std::size_t n = 0; n <= 1100; ++n) {
    std::string msg(n, '\0');
    for (char& c : msg) c = static_cast<char>(rng.below(256));
    const std::string expected = body_hex(portable, msg);
    EXPECT_EQ(sha256_hex(msg), expected) << "length " << n;
    Sha256 split;
    for (std::size_t done = 0; done < n;) {
      const std::size_t take = std::min<std::size_t>(n - done, rng.below(150));
      split.update(msg.data() + done, take);
      done += take;
    }
    EXPECT_EQ(split.hex_digest(), expected) << "length " << n;
    messages.push_back(std::move(msg));
  }

  if (body_hex(detail::sha256_compress_native, "").empty())
    GTEST_SKIP() << "no SHA instructions on this CPU: native body not run";
  EXPECT_EQ(body_hex(detail::sha256_compress_native, a_million), million_a);
  for (const std::string& msg : messages)
    EXPECT_EQ(body_hex(detail::sha256_compress_native, msg),
              body_hex(portable, msg))
        << "length " << msg.size();
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string text = "power and performance management";
  Sha256 h;
  h.update(text.substr(0, 7));
  h.update(text.substr(7));
  EXPECT_EQ(h.hex_digest(), sha256_hex(text));
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256_hex("a"), sha256_hex("b"));
  EXPECT_NE(sha256_hex("abc"), sha256_hex("abd"));
  EXPECT_EQ(sha256_hex("same"), sha256_hex("same"));
}

TEST(Sha256, HexDigestShape) {
  const std::string hex = sha256_hex("anything");
  ASSERT_EQ(hex.size(), 64u);
  for (char c : hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
}

}  // namespace
}  // namespace cpm
