// ChaCha20 (RFC 8439 §2.3/2.4), Poly1305 (§2.5), the combined AEAD (§2.8),
// the OpenSSL AES-GCM provider, and cross-provider behavioural equivalence.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/chacha20_kernels.h"
#include "crypto/poly1305.h"
#include "util/hex.h"
#include "util/rng.h"

namespace enclaves::crypto {
namespace {

TEST(ChaCha20, Rfc8439BlockFunction) {
  Bytes key = must_from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = must_from_hex("000000090000004a00000000");
  auto block = ChaCha20::block(key, nonce, 1);
  EXPECT_EQ(to_hex({block.data(), block.size()}),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  Bytes key = must_from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = must_from_hex("000000000000004a00000000");
  Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  ChaCha20 cipher(key, nonce, 1);
  Bytes ct = cipher.transform(plaintext);
  EXPECT_EQ(to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  DeterministicRng rng(7);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), msg = rng.bytes(1000);
  ChaCha20 enc(key, nonce);
  Bytes ct = enc.transform(msg);
  ChaCha20 dec(key, nonce);
  EXPECT_EQ(dec.transform(ct), msg);
  EXPECT_NE(ct, msg);
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  DeterministicRng rng(8);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), msg = rng.bytes(300);
  ChaCha20 one(key, nonce);
  Bytes expect = one.transform(msg);
  ChaCha20 stream(key, nonce);
  Bytes got = msg;
  // Uneven chunks straddling the 64-byte block boundary.
  std::size_t cuts[] = {1, 62, 64, 65, 100, 8};
  std::size_t off = 0;
  for (std::size_t c : cuts) {
    stream.apply(got.data() + off, c);
    off += c;
  }
  ASSERT_EQ(off, msg.size());
  EXPECT_EQ(got, expect);
}

// `blocks` keystream blocks from the scalar oracle, counters wrapping.
Bytes scalar_keystream(std::array<std::uint32_t, 16> state,
                       std::size_t blocks) {
  Bytes out(64 * blocks);
  for (std::size_t i = 0; i < blocks; ++i, ++state[12])
    detail::chacha_block(state.data(), out.data() + 64 * i);
  return out;
}

// The multi-block kernels where the 32-bit block counter wraps inside one
// call. OpenSSL carries a wrapping counter into the next state word, so
// these are checked against the scalar oracle; the OpenSSL cross test
// covers the kernels at ordinary counters.
class ChaChaKernelWrap : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChaChaKernelWrap, FourLaneMatchesScalar) {
  DeterministicRng rng(GetParam() + 11);
  auto state = detail::chacha_state(rng.bytes(32), rng.bytes(12), GetParam());
  Bytes got(256);
  detail::chacha_blocks4(state.data(), got.data());
  EXPECT_EQ(got, scalar_keystream(state, 4));
}

TEST_P(ChaChaKernelWrap, EightLaneMatchesScalar) {
  const detail::ChaChaBlocksFn blocks8 = detail::chacha_blocks8();
  if (blocks8 == nullptr) GTEST_SKIP() << "no AVX2 on this CPU or target";
  DeterministicRng rng(GetParam() + 12);
  auto state = detail::chacha_state(rng.bytes(32), rng.bytes(12), GetParam());
  Bytes got(512);
  blocks8(state.data(), got.data());
  EXPECT_EQ(got, scalar_keystream(state, 8));
}

INSTANTIATE_TEST_SUITE_P(Counters, ChaChaKernelWrap,
                         ::testing::Values<std::uint32_t>(0xfffffffd,
                                                          0xffffffff));

TEST(Poly1305, Rfc8439Vector) {
  Bytes key = must_from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes msg = to_bytes("Cryptographic Forum Research Group");
  auto tag = Poly1305::mac(key, msg);
  EXPECT_EQ(to_hex({tag.data(), tag.size()}),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  DeterministicRng rng(9);
  Bytes key = rng.bytes(32), msg = rng.bytes(500);
  Poly1305 p(key);
  p.update({msg.data(), 33});
  p.update({msg.data() + 33, 100});
  p.update({msg.data() + 133, msg.size() - 133});
  EXPECT_EQ(p.finish(), Poly1305::mac(key, msg));
}

TEST(Poly1305, EmptyMessage) {
  Bytes key(32, 0x42);
  auto t1 = Poly1305::mac(key, {});
  auto t2 = Poly1305::mac(key, {});
  EXPECT_EQ(t1, t2);
}

TEST(ChaCha20Poly1305, Rfc8439AeadVector) {
  Bytes key = must_from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  Bytes nonce = must_from_hex("070000004041424344454647");
  Bytes aad = must_from_hex("50515253c0c1c2c3c4c5c6c7");
  Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes out = chacha20poly1305().seal(key, nonce, aad, plaintext);
  ASSERT_EQ(out.size(), plaintext.size() + 16);
  EXPECT_EQ(to_hex({out.data() + plaintext.size(), 16}),
            "1ae10b594f09e26a7e902ecbd0600691");
  EXPECT_EQ(to_hex({out.data(), 16}), "d31a8d34648e60db7b86afbc53ef7ec2");

  auto back = chacha20poly1305().open(key, nonce, aad, out);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, plaintext);
}

struct AeadCase {
  const Aead* aead;
  std::size_t len;
};

class AeadBehaviour
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  const Aead& aead() const {
    return std::get<0>(GetParam()) == 0 ? chacha20poly1305() : aes256gcm();
  }
  std::size_t len() const { return std::get<1>(GetParam()); }
};

TEST_P(AeadBehaviour, RoundTrip) {
  DeterministicRng rng(3);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), aad = rng.bytes(20);
  Bytes msg = rng.bytes(len());
  Bytes ct = aead().seal(key, nonce, aad, msg);
  EXPECT_EQ(ct.size(), msg.size() + Aead::kTagSize);
  auto back = aead().open(key, nonce, aad, ct);
  ASSERT_TRUE(back.ok()) << aead().name();
  EXPECT_EQ(*back, msg);
}

TEST_P(AeadBehaviour, TamperedCiphertextRejected) {
  DeterministicRng rng(4);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes msg = rng.bytes(len());
  Bytes ct = aead().seal(key, nonce, {}, msg);
  // The first, middle and last ciphertext bytes, then every tag byte.
  std::vector<std::size_t> positions{0, ct.size() / 2};
  if (!msg.empty()) positions.push_back(msg.size() - 1);
  for (std::size_t i = 0; i < Aead::kTagSize; ++i)
    positions.push_back(msg.size() + i);
  for (std::size_t pos : positions) {
    Bytes bad = ct;
    bad[pos] ^= 0x01;
    auto r = aead().open(key, nonce, {}, bad);
    EXPECT_FALSE(r.ok()) << "pos " << pos;
    EXPECT_EQ(r.code(), Errc::auth_failed);
  }
}

TEST_P(AeadBehaviour, WrongKeyRejected) {
  DeterministicRng rng(5);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes msg = rng.bytes(len());
  Bytes ct = aead().seal(key, nonce, {}, msg);
  Bytes other = key;
  other[31] ^= 0xFF;
  EXPECT_FALSE(aead().open(other, nonce, {}, ct).ok());
}

TEST_P(AeadBehaviour, AadBindingEnforced) {
  DeterministicRng rng(6);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes msg = rng.bytes(len());
  Bytes ct = aead().seal(key, nonce, to_bytes("context-a"), msg);
  EXPECT_FALSE(aead().open(key, nonce, to_bytes("context-b"), ct).ok());
  EXPECT_TRUE(aead().open(key, nonce, to_bytes("context-a"), ct).ok());
}

TEST_P(AeadBehaviour, TruncatedRejected) {
  DeterministicRng rng(7);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes ct = aead().seal(key, nonce, {}, rng.bytes(len()));
  auto r = aead().open(key, nonce, {}, {ct.data(), Aead::kTagSize - 1});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::truncated);
}

INSTANTIATE_TEST_SUITE_P(
    Providers, AeadBehaviour,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values<std::size_t>(0, 1, 15, 16, 17, 64,
                                                      255, 1024, 65536)));

TEST(AeadProviders, DistinctNames) {
  EXPECT_STREQ(chacha20poly1305().name(), "chacha20poly1305");
  EXPECT_STREQ(aes256gcm().name(), "aes256gcm");
  EXPECT_STREQ(default_aead().name(), "chacha20poly1305");
}

TEST(AeadProviders, CiphertextsDifferAcrossProviders) {
  DeterministicRng rng(10);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), msg = rng.bytes(100);
  EXPECT_NE(chacha20poly1305().seal(key, nonce, {}, msg),
            aes256gcm().seal(key, nonce, {}, msg));
}

}  // namespace
}  // namespace enclaves::crypto
