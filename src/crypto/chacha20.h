// ChaCha20 stream cipher (RFC 8439 §2.4), implemented from scratch.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace enclaves::crypto {

class ChaCha20 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kNonceSize = 12;

  /// Precondition: key.size()==32, nonce.size()==12.
  ChaCha20(BytesView key, BytesView nonce, std::uint32_t initial_counter = 0);

  /// XORs the keystream into `data` in place (encrypt == decrypt). Calls
  /// continue one stream: a partial block carries over to the next call.
  void apply(std::uint8_t* data, std::size_t len);

  /// Convenience: returns the transformed copy.
  Bytes transform(BytesView data);

  /// Emits one 64-byte keystream block for the given counter (the RFC 8439
  /// §2.3 block function, computed by the scalar reference kernel).
  static std::array<std::uint8_t, 64> block(BytesView key, BytesView nonce,
                                            std::uint32_t counter);

 private:
  // Keystream is generated four blocks at a time; what a call leaves unused
  // waits here for the next one.
  static constexpr std::size_t kBuffered = 4 * 64;

  std::array<std::uint32_t, 16> state_;  // word 12: next block's counter
  std::array<std::uint8_t, kBuffered> keystream_;
  std::size_t keystream_pos_ = kBuffered;  // exhausted
};

}  // namespace enclaves::crypto
