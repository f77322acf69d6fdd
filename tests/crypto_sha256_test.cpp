// SHA-256 against FIPS 180-4 / NIST CAVP vectors plus incremental-update
// behaviour and a cross-check against OpenSSL.
#include <gtest/gtest.h>
#include <openssl/sha.h>

#include "crypto/sha256.h"
#include "util/hex.h"
#include "util/rng.h"

namespace enclaves::crypto {
namespace {

std::string hash_hex(BytesView data) {
  auto d = Sha256::hash(data);
  return to_hex({d.data(), d.size()});
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finish();
  EXPECT_EQ(to_hex({d.data(), d.size()}),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 55, 56, 63, 64, 65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes msg(len, 0xAB);
    unsigned char ref[SHA256_DIGEST_LENGTH];
    SHA256(msg.data(), msg.size(), ref);
    auto mine = Sha256::hash(msg);
    EXPECT_EQ(to_hex({mine.data(), mine.size()}),
              to_hex({ref, SHA256_DIGEST_LENGTH}))
        << "len=" << len;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  DeterministicRng rng(42);
  Bytes msg = rng.bytes(10000);
  for (std::size_t chunk : {1u, 3u, 17u, 64u, 100u, 1000u}) {
    Sha256 h;
    for (std::size_t off = 0; off < msg.size(); off += chunk) {
      std::size_t n = std::min(chunk, msg.size() - off);
      h.update({msg.data() + off, n});
    }
    EXPECT_EQ(h.finish(), Sha256::hash(msg)) << "chunk=" << chunk;
  }
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  auto d = h.finish();
  EXPECT_EQ(to_hex({d.data(), d.size()}),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

class Sha256RandomCross : public ::testing::TestWithParam<int> {};

TEST_P(Sha256RandomCross, MatchesOpenSsl) {
  DeterministicRng rng(static_cast<std::uint64_t>(GetParam()));
  std::size_t len = static_cast<std::size_t>(rng.below(4096));
  Bytes msg = rng.bytes(len);
  unsigned char ref[SHA256_DIGEST_LENGTH];
  SHA256(msg.data(), msg.size(), ref);
  auto mine = Sha256::hash(msg);
  EXPECT_TRUE(std::equal(mine.begin(), mine.end(), ref));
}

INSTANTIATE_TEST_SUITE_P(RandomLengths, Sha256RandomCross,
                         ::testing::Range(0, 24));

// finish() pads inside the block buffer, so every buffered length at the
// moment of finishing (0-63, including the 56-63 range that spills into a
// second padding block) must match OpenSSL, whatever the split before it.
TEST(Sha256, PaddingAtEveryBufferedLengthMatchesOpenSsl) {
  DeterministicRng rng(0x5A256);
  const Bytes msg = rng.bytes(129);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    unsigned char ref[SHA256_DIGEST_LENGTH];
    SHA256(msg.data(), len, ref);
    for (std::size_t split = 0; split <= len; ++split) {
      Sha256 h;
      h.update({msg.data(), split});
      h.update({msg.data() + split, len - split});
      auto mine = h.finish();
      ASSERT_TRUE(std::equal(mine.begin(), mine.end(), ref))
          << "len " << len << " split " << split;
    }
  }
}

}  // namespace
}  // namespace enclaves::crypto
