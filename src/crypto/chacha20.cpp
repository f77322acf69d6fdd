#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#include "crypto/chacha20_kernels.h"

namespace enclaves::crypto {

namespace {

std::uint32_t load_le32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

// The lane-generic kernel: word i of the state for N consecutive blocks
// lives in one N-lane vector, so each vector operation advances N blocks.
// Vectors travel only by reference, never by value: a 32-byte vector passed
// by value from code built without AVX changes the calling convention
// (-Wpsabi).
template <int N>
using U32xN [[gnu::vector_size(4 * N)]] = std::uint32_t;

// T is std::uint32_t in the scalar block and U32xN<N> in the kernels.
template <typename T>
[[gnu::always_inline]] inline void quarter_round(T& a, T& b, T& c, T& d) {
  a += b; d ^= a; d = (d << 16) | (d >> 16);
  c += d; b ^= c; b = (b << 12) | (b >> 20);
  a += b; d ^= a; d = (d << 8) | (d >> 24);
  c += d; b ^= c; b = (b << 7) | (b >> 25);
}

template <typename T>
[[gnu::always_inline]] inline void twenty_rounds(T* x) {
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

// Index i of an interleave of a (0..n-1) and b (n..2n-1) inside each 4-lane
// group: runs of `width` words alternate between a and b, starting from word
// `half` of the group (0 = low half, 2 = high half). width 1 is SSE2's
// unpack{lo,hi}_epi32, width 2 is unpack{lo,hi}_epi64.
constexpr int interleave_index(int i, int n, int width, int half) {
  const int group = i / 4, pos = i % 4;
  const int offset = (pos / (2 * width)) * width + pos % width;
  return 4 * group + half + offset + ((pos / width) % 2 ? n : 0);
}

template <int N, int Width, int Half, int... I>
[[gnu::always_inline]] inline void interleave(
    const U32xN<N>& a, const U32xN<N>& b, U32xN<N>& out,
    std::integer_sequence<int, I...>) {
  out = __builtin_shufflevector(a, b, interleave_index(I, N, Width, Half)...);
}

template <int N>
[[gnu::always_inline]] inline void chacha_blocks_n(const std::uint32_t* in,
                                                   std::uint8_t* out) {
  static_assert(N % 4 == 0, "lanes come in 128-bit groups of four");
  using V = U32xN<N>;
  V x[16];
  for (int i = 0; i < 16; ++i) x[i] = V{} + in[i];
  for (int lane = 0; lane < N; ++lane) x[12][lane] += lane;
  V orig[16];
  for (int i = 0; i < 16; ++i) orig[i] = x[i];
  twenty_rounds(x);
  for (int i = 0; i < 16; ++i) {
    x[i] += orig[i];
    if constexpr (std::endian::native == std::endian::big) {
      x[i] = (x[i] >> 24) | ((x[i] >> 8) & 0xff00) |
             ((x[i] << 8) & 0xff0000) | (x[i] << 24);
    }
  }

  // Transpose words 4k..4k+3 of every lane: after two interleave rounds,
  // y[j] holds, in its 4-lane group g, those words of block 4g + j.
  constexpr auto seq = std::make_integer_sequence<int, N>{};
  for (int k = 0; k < 4; ++k) {
    V t[4], y[4];
    interleave<N, 1, 0>(x[4 * k], x[4 * k + 1], t[0], seq);
    interleave<N, 1, 2>(x[4 * k], x[4 * k + 1], t[1], seq);
    interleave<N, 1, 0>(x[4 * k + 2], x[4 * k + 3], t[2], seq);
    interleave<N, 1, 2>(x[4 * k + 2], x[4 * k + 3], t[3], seq);
    interleave<N, 2, 0>(t[0], t[2], y[0], seq);
    interleave<N, 2, 2>(t[0], t[2], y[1], seq);
    interleave<N, 2, 0>(t[1], t[3], y[2], seq);
    interleave<N, 2, 2>(t[1], t[3], y[3], seq);
    for (int g = 0; g < N / 4; ++g) {
      for (int j = 0; j < 4; ++j) {
        std::memcpy(out + 64 * (4 * g + j) + 16 * k,
                    reinterpret_cast<const std::uint8_t*>(&y[j]) + 16 * g,
                    16);
      }
    }
  }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void chacha_blocks8_avx2(
    const std::uint32_t* in, std::uint8_t* out) {
  chacha_blocks_n<8>(in, out);
}
#endif

// XORs `n` keystream bytes into `data`, eight bytes at a time.
void xor_keystream(std::uint8_t* data, const std::uint8_t* ks,
                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d, k;
    std::memcpy(&d, data + i, 8);
    std::memcpy(&k, ks + i, 8);
    d ^= k;
    std::memcpy(data + i, &d, 8);
  }
  for (; i < n; ++i) data[i] ^= ks[i];
}

}  // namespace

namespace detail {

std::array<std::uint32_t, 16> chacha_state(BytesView key, BytesView nonce,
                                           std::uint32_t counter) {
  assert(key.size() == ChaCha20::kKeySize);
  assert(nonce.size() == ChaCha20::kNonceSize);
  std::array<std::uint32_t, 16> s{0x61707865, 0x3320646e, 0x79622d32,
                                  0x6b206574};
  for (int i = 0; i < 8; ++i) s[4 + i] = load_le32(key.data() + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = load_le32(nonce.data() + 4 * i);
  return s;
}

void chacha_block(const std::uint32_t in[16], std::uint8_t out[64]) {
  std::uint32_t x[16];
  std::memcpy(x, in, sizeof x);
  twenty_rounds(x);
  for (int i = 0; i < 16; ++i) store_le32(out + 4 * i, x[i] + in[i]);
}

void chacha_blocks4(const std::uint32_t in[16], std::uint8_t out[256]) {
  chacha_blocks_n<4>(in, out);
}

ChaChaBlocksFn chacha_blocks8() {
#if defined(__x86_64__)
  static const ChaChaBlocksFn kernel = [] {
    __builtin_cpu_init();  // in case this runs before static constructors
    return __builtin_cpu_supports("avx2") ? &chacha_blocks8_avx2 : nullptr;
  }();
  return kernel;
#else
  return nullptr;
#endif
}

}  // namespace detail

ChaCha20::ChaCha20(BytesView key, BytesView nonce,
                   std::uint32_t initial_counter)
    : state_(detail::chacha_state(key, nonce, initial_counter)) {}

void ChaCha20::apply(std::uint8_t* data, std::size_t len) {
  // Keystream left over from the previous call comes first.
  const std::size_t carried = std::min(len, kBuffered - keystream_pos_);
  xor_keystream(data, keystream_.data() + keystream_pos_, carried);
  keystream_pos_ += carried;
  data += carried;
  len -= carried;

  // Whole multi-block runs go through a stack buffer, eight blocks per call
  // where AVX2 is available and four otherwise.
  const detail::ChaChaBlocksFn blocks8 = detail::chacha_blocks8();
  alignas(32) std::uint8_t ks[8 * 64];
  while (len >= kBuffered) {
    std::size_t n = 4 * 64;
    if (blocks8 != nullptr && len >= 8 * 64) {
      blocks8(state_.data(), ks);
      n = 8 * 64;
    } else {
      detail::chacha_blocks4(state_.data(), ks);
    }
    state_[12] += static_cast<std::uint32_t>(n / 64);
    xor_keystream(data, ks, n);
    data += n;
    len -= n;
  }

  // The tail refills the carried buffer with one four-block call.
  if (len > 0) {
    detail::chacha_blocks4(state_.data(), keystream_.data());
    state_[12] += 4;
    xor_keystream(data, keystream_.data(), len);
    keystream_pos_ = len;
  }
}

Bytes ChaCha20::transform(BytesView data) {
  Bytes out(data.begin(), data.end());
  apply(out.data(), out.size());
  return out;
}

std::array<std::uint8_t, 64> ChaCha20::block(BytesView key, BytesView nonce,
                                             std::uint32_t counter) {
  std::array<std::uint8_t, 64> out;
  detail::chacha_block(detail::chacha_state(key, nonce, counter).data(),
                       out.data());
  return out;
}

}  // namespace enclaves::crypto
