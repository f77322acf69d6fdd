// ChaCha20 block kernels behind ChaCha20::apply. Private to src/crypto/;
// the tests include it to check each kernel against the scalar oracle and
// OpenSSL.
//
// Every kernel reads a 16-word ChaCha20 state (constants, key, counter in
// word 12, nonce) and writes the keystream of consecutive blocks starting at
// that counter, 64 bytes per block, in output byte order. Block i uses
// counter state[12] + i, wrapping mod 2^32 like the scalar path.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace enclaves::crypto::detail {

/// The state for block `counter` under `key` (32 B) and `nonce` (12 B).
std::array<std::uint32_t, 16> chacha_state(BytesView key, BytesView nonce,
                                           std::uint32_t counter);

/// One block, plain 32-bit scalar code (RFC 8439 §2.3). The oracle.
void chacha_block(const std::uint32_t state[16], std::uint8_t out[64]);

/// Four blocks with 4-lane vectors (baseline SSE2 on x86-64).
void chacha_blocks4(const std::uint32_t state[16], std::uint8_t out[256]);

using ChaChaBlocksFn = void (*)(const std::uint32_t state[16],
                                std::uint8_t* out);

/// The eight-block AVX2 kernel (512 bytes per call), or nullptr when the
/// target is not x86-64 or the CPU lacks AVX2. Decided once per process.
ChaChaBlocksFn chacha_blocks8();

}  // namespace enclaves::crypto::detail
