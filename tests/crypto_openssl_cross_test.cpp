// Differential testing of the from-scratch primitives against OpenSSL:
// ChaCha20 keystreams via EVP_chacha20 (the scalar, 4-lane and 8-lane
// kernels each on their own, and the streaming cipher), Poly1305 tags via
// EVP_MAC, and the combined AEAD via EVP_chacha20_poly1305, over randomized
// inputs and the block- and lane-boundary edge sizes.
#include <gtest/gtest.h>
#include <openssl/evp.h>

#include <algorithm>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/chacha20_kernels.h"
#include "crypto/poly1305.h"
#include "util/hex.h"
#include "util/rng.h"

namespace enclaves::crypto {
namespace {

Bytes openssl_chacha20(BytesView key, BytesView nonce12,
                       std::uint32_t counter, BytesView data) {
  // EVP_chacha20 takes a 16-byte IV: 4-byte little-endian counter || nonce.
  Bytes iv(16);
  for (int i = 0; i < 4; ++i)
    iv[static_cast<size_t>(i)] =
        static_cast<std::uint8_t>(counter >> (8 * i));
  std::copy(nonce12.begin(), nonce12.end(), iv.begin() + 4);

  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  EXPECT_EQ(1, EVP_EncryptInit_ex(ctx, EVP_chacha20(), nullptr, key.data(),
                                  iv.data()));
  Bytes out(data.size());
  int len = 0;
  if (!data.empty()) {
    EXPECT_EQ(1, EVP_EncryptUpdate(ctx, out.data(), &len, data.data(),
                                   static_cast<int>(data.size())));
  }
  int fin = 0;
  EXPECT_EQ(1, EVP_EncryptFinal_ex(ctx, out.data() + len, &fin));
  EVP_CIPHER_CTX_free(ctx);
  return out;
}

Bytes openssl_poly1305(BytesView key, BytesView data) {
  EVP_MAC* mac = EVP_MAC_fetch(nullptr, "POLY1305", nullptr);
  EXPECT_NE(mac, nullptr);
  EVP_MAC_CTX* ctx = EVP_MAC_CTX_new(mac);
  EXPECT_EQ(1, EVP_MAC_init(ctx, key.data(), key.size(), nullptr));
  if (!data.empty()) {
    EXPECT_EQ(1, EVP_MAC_update(ctx, data.data(), data.size()));
  }
  Bytes tag(16);
  std::size_t out_len = 0;
  EXPECT_EQ(1, EVP_MAC_final(ctx, tag.data(), &out_len, tag.size()));
  EXPECT_EQ(out_len, 16u);
  EVP_MAC_CTX_free(ctx);
  EVP_MAC_free(mac);
  return tag;
}

class ChaChaCross : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChaChaCross, KeystreamMatchesOpenSsl) {
  DeterministicRng rng(GetParam() * 31 + 7);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes msg = rng.bytes(GetParam());
  ChaCha20 mine(key, nonce, 1);  // counter 1, as in the AEAD construction
  EXPECT_EQ(mine.transform(msg), openssl_chacha20(key, nonce, 1, msg));
}

// Lane boundaries: 192 is what one 4-lane call leaves after the AEAD's
// block 0; 256 and 512 are whole 4- and 8-lane calls; 576 is 64 + 512.
constexpr std::size_t kLaneEdgeSizes[] = {191, 192, 193, 255, 256, 257,
                                          511, 512, 513, 575, 576, 16384,
                                          16384 + 13};

INSTANTIATE_TEST_SUITE_P(Sizes, ChaChaCross,
                         ::testing::Values<std::size_t>(0, 1, 63, 64, 65,
                                                        127, 128, 129, 1000,
                                                        65536));
INSTANTIATE_TEST_SUITE_P(LaneEdges, ChaChaCross,
                         ::testing::ValuesIn(kLaneEdgeSizes));

// Each kernel, called directly, against OpenSSL's keystream for the same
// counter run (keystream = encryption of zeros).
class ChaChaKernelCross : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  void check(std::size_t blocks, detail::ChaChaBlocksFn kernel) {
    DeterministicRng rng(GetParam() * 7 + blocks);
    Bytes key = rng.bytes(32), nonce = rng.bytes(12);
    auto state = detail::chacha_state(key, nonce, GetParam());
    Bytes got(64 * blocks);
    kernel(state.data(), got.data());
    EXPECT_EQ(got, openssl_chacha20(key, nonce, GetParam(), Bytes(got.size())));
  }
};

TEST_P(ChaChaKernelCross, ScalarBlock) { check(1, detail::chacha_block); }

TEST_P(ChaChaKernelCross, FourLane) { check(4, detail::chacha_blocks4); }

TEST_P(ChaChaKernelCross, EightLane) {
  if (detail::chacha_blocks8() == nullptr)
    GTEST_SKIP() << "no AVX2 on this CPU or target";
  check(8, detail::chacha_blocks8());
}

INSTANTIATE_TEST_SUITE_P(Counters, ChaChaKernelCross,
                         ::testing::Values<std::uint32_t>(0, 1, 2, 77));

TEST(ChaChaCross, RandomChunkStreamingMatchesOpenSsl) {
  // The first chunk leaves the stream mid-block; later chunks of up to 1100
  // bytes cross 4- and 8-lane runs and the carried buffer at every offset.
  DeterministicRng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    Bytes key = rng.bytes(32), nonce = rng.bytes(12);
    Bytes msg = rng.bytes(8192 + rng.below(64));
    Bytes expect = openssl_chacha20(key, nonce, 1, msg);
    ChaCha20 stream(key, nonce, 1);
    std::size_t off = 0;
    while (off < msg.size()) {
      std::size_t n = off == 0 ? 1 + rng.below(63) : rng.below(1101);
      n = std::min(n, msg.size() - off);
      stream.apply(msg.data() + off, n);
      off += n;
    }
    EXPECT_EQ(msg, expect) << "trial " << trial;
  }
}

TEST(ChaChaCross, CounterZeroAlsoMatches) {
  DeterministicRng rng(2);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), msg = rng.bytes(256);
  ChaCha20 mine(key, nonce, 0);
  EXPECT_EQ(mine.transform(msg), openssl_chacha20(key, nonce, 0, msg));
}

class PolyCross : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PolyCross, TagMatchesOpenSsl) {
  DeterministicRng rng(GetParam() * 17 + 3);
  Bytes key = rng.bytes(32);
  Bytes msg = rng.bytes(GetParam());
  auto mine = Poly1305::mac(key, msg);
  EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PolyCross,
                         ::testing::Values<std::size_t>(0, 1, 15, 16, 17, 31,
                                                        32, 33, 255, 1000,
                                                        10000));

TEST(PolyCross, AllOnesEdgeInputs) {
  // h accumulation near 2^130-5: all-0xFF blocks with extreme r values.
  for (std::uint8_t fill : {std::uint8_t{0xFF}, std::uint8_t{0x00}}) {
    Bytes key(32, fill);
    for (std::size_t len : {16u, 32u, 48u, 160u}) {
      Bytes msg(len, 0xFF);
      auto mine = Poly1305::mac(key, msg);
      EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
          << "fill=" << int(fill) << " len=" << len;
    }
  }
}

// Poly1305 key whose r is `r` (before clamping) and whose s is `s_fill`.
Bytes poly_key(std::uint64_t r_lo, std::uint64_t r_hi, std::uint8_t s_fill) {
  Bytes key(32, s_fill);
  for (int i = 0; i < 8; ++i) {
    key[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(r_lo >> (8 * i));
    key[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(r_hi >> (8 * i));
  }
  return key;
}

TEST(PolyCross, MaximallyClampedRWithAllOnesBlocks) {
  // r = 0x0ffffffc0ffffffc0ffffffc0fffffff after clamping: the largest limb
  // products and carries in every step.
  for (std::uint8_t s_fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    Bytes key = poly_key(~0ull, ~0ull, s_fill);
    for (std::size_t len : {1u, 15u, 16u, 17u, 64u, 1000u, 4096u, 16384u}) {
      Bytes msg(len, 0xFF);
      auto mine = Poly1305::mac(key, msg);
      EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
          << "s=" << int(s_fill) << " len=" << len;
    }
  }
}

TEST(PolyCross, AccumulatorAtOrAbovePBeforeFinalReduction) {
  // With r = 1, h after two full blocks is their sum, each 2^128 + m. Two
  // all-0xFF blocks give h = 2^130 - 2 >= p = 2^130 - 5; a second block
  // ending in 0xFC gives h = p exactly, 0xFB gives p - 1 (no reduction).
  const Bytes key = poly_key(1, 0, 0xFF);
  for (std::uint8_t low : {std::uint8_t{0xFF}, std::uint8_t{0xFE},
                           std::uint8_t{0xFC}, std::uint8_t{0xFB}}) {
    Bytes msg(32, 0xFF);
    msg[16] = low;
    auto mine = Poly1305::mac(key, msg);
    EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg))
        << "second block low byte " << int(low);
  }
  // Same near-p accumulator, then a partial block on top.
  Bytes msg(40, 0xFF);
  msg[16] = 0xFC;
  auto mine = Poly1305::mac(key, msg);
  EXPECT_EQ(Bytes(mine.begin(), mine.end()), openssl_poly1305(key, msg));
}

class AeadCross : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadCross, SealedOutputMatchesOpenSslChaChaPoly) {
  DeterministicRng rng(GetParam() * 13 + 5);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), aad = rng.bytes(24);
  Bytes msg = rng.bytes(GetParam());

  Bytes mine = chacha20poly1305().seal(key, nonce, aad, msg);

  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  ASSERT_EQ(1, EVP_EncryptInit_ex(ctx, EVP_chacha20_poly1305(), nullptr,
                                  key.data(), nonce.data()));
  int len = 0;
  ASSERT_EQ(1, EVP_EncryptUpdate(ctx, nullptr, &len, aad.data(),
                                 static_cast<int>(aad.size())));
  Bytes ref(msg.size() + 16);
  if (!msg.empty()) {
    ASSERT_EQ(1, EVP_EncryptUpdate(ctx, ref.data(), &len, msg.data(),
                                   static_cast<int>(msg.size())));
  }
  int fin = 0;
  ASSERT_EQ(1, EVP_EncryptFinal_ex(ctx, ref.data() + len, &fin));
  ASSERT_EQ(1, EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_GET_TAG, 16,
                                   ref.data() + msg.size()));
  EVP_CIPHER_CTX_free(ctx);

  EXPECT_EQ(mine, ref);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadCross,
                         ::testing::Values<std::size_t>(0, 1, 16, 64, 1000,
                                                        32768));
INSTANTIATE_TEST_SUITE_P(LaneEdges, AeadCross,
                         ::testing::ValuesIn(kLaneEdgeSizes));

TEST(AeadCross, OpenSslCanOpenOurSeals) {
  DeterministicRng rng(9);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12), aad = rng.bytes(8);
  Bytes msg = to_bytes("interop both ways");
  Bytes sealed = chacha20poly1305().seal(key, nonce, aad, msg);

  EVP_CIPHER_CTX* ctx = EVP_CIPHER_CTX_new();
  ASSERT_EQ(1, EVP_DecryptInit_ex(ctx, EVP_chacha20_poly1305(), nullptr,
                                  key.data(), nonce.data()));
  int len = 0;
  ASSERT_EQ(1, EVP_DecryptUpdate(ctx, nullptr, &len, aad.data(),
                                 static_cast<int>(aad.size())));
  Bytes plain(msg.size());
  ASSERT_EQ(1, EVP_DecryptUpdate(ctx, plain.data(), &len, sealed.data(),
                                 static_cast<int>(msg.size())));
  Bytes tag(sealed.end() - 16, sealed.end());
  ASSERT_EQ(1,
            EVP_CIPHER_CTX_ctrl(ctx, EVP_CTRL_AEAD_SET_TAG, 16, tag.data()));
  int fin = 0;
  EXPECT_EQ(1, EVP_DecryptFinal_ex(ctx, plain.data() + len, &fin));
  EVP_CIPHER_CTX_free(ctx);
  EXPECT_EQ(plain, msg);
}

}  // namespace
}  // namespace enclaves::crypto
