// ChaCha20-Poly1305 AEAD construction (RFC 8439 §2.8).
#include <array>
#include <cassert>
#include <cstring>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/ct.h"
#include "crypto/poly1305.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/security.h"

namespace enclaves::crypto {

namespace {

void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Draws keystream block 0 (counter 0), whose first 32 bytes are the
// one-time Poly1305 key, and leaves `cipher` at block 1, where the data
// starts. Key and data come from one stream, so a short message costs one
// multi-block keystream call rather than a separate block for the key.
std::array<std::uint8_t, 64> draw_block0(ChaCha20& cipher) {
  std::array<std::uint8_t, 64> block0{};
  cipher.apply(block0.data(), block0.size());
  return block0;
}

Poly1305::Tag compute_tag(const std::array<std::uint8_t, 64>& block0,
                          BytesView aad, BytesView ciphertext) {
  Poly1305 mac(BytesView{block0.data(), Poly1305::kKeySize});

  static constexpr std::uint8_t kZeros[15] = {};
  mac.update(aad);
  if (aad.size() % 16 != 0) mac.update({kZeros, 16 - aad.size() % 16});
  mac.update(ciphertext);
  if (ciphertext.size() % 16 != 0)
    mac.update({kZeros, 16 - ciphertext.size() % 16});

  std::uint8_t lengths[16];
  store_le64(lengths, aad.size());
  store_le64(lengths + 8, ciphertext.size());
  mac.update({lengths, 16});
  return mac.finish();
}

class ChaCha20Poly1305 final : public Aead {
 public:
  const char* name() const override { return "chacha20poly1305"; }

  Bytes seal(BytesView key, BytesView nonce, BytesView aad,
             BytesView plaintext) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/seal");
    obs::prof_bytes(plaintext.size());
    obs::count("crypto", name(), "seals_total");
    obs::count("crypto", name(), "sealed_bytes_total", plaintext.size());
    Bytes out(plaintext.size() + kTagSize);
    if (!plaintext.empty())
      std::memcpy(out.data(), plaintext.data(), plaintext.size());
    ChaCha20 cipher(key, nonce, 0);
    const auto block0 = draw_block0(cipher);
    cipher.apply(out.data(), plaintext.size());
    auto tag = compute_tag(block0, aad, {out.data(), plaintext.size()});
    std::memcpy(out.data() + plaintext.size(), tag.data(), kTagSize);
    return out;
  }

  Result<Bytes> open(BytesView key, BytesView nonce, BytesView aad,
                     BytesView ct) const override {
    assert(key.size() == kKeySize && nonce.size() == kNonceSize);
    PROF_SCOPE("crypto/open");
    obs::prof_bytes(ct.size());
    obs::count("crypto", name(), "opens_total");
    obs::count("crypto", name(), "opened_bytes_total", ct.size());
    if (ct.size() < kTagSize)
      return make_error(Errc::truncated, "aead ciphertext shorter than tag");
    BytesView body = ct.subspan(0, ct.size() - kTagSize);
    BytesView tag = ct.subspan(ct.size() - kTagSize);
    ChaCha20 cipher(key, nonce, 0);
    const auto block0 = draw_block0(cipher);
    auto expect = compute_tag(block0, aad, body);
    if (!ct_equal({expect.data(), expect.size()}, tag)) {
      obs::count("crypto", name(), "open_failures_total");
      obs::security_event(0, obs::EvidenceKind::aead_open_failure,
                          "crypto", name(), {}, "poly1305 tag mismatch");
      return make_error(Errc::auth_failed, "poly1305 tag mismatch");
    }
    return cipher.transform(body);
  }
};

}  // namespace

const Aead& chacha20poly1305() {
  static ChaCha20Poly1305 instance;
  return instance;
}

const Aead& default_aead() { return chacha20poly1305(); }

}  // namespace enclaves::crypto
