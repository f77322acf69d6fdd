// Plaintext payloads of the ORIGINAL Enclaves protocol (Section 2.2).
//
// This is the vulnerable baseline, reproduced faithfully so the attack
// harness can demonstrate the Section 2.3 weaknesses:
//   - pre-auth exchange in the clear (forgeable connection_denied),
//   - Kg delivered inside the auth reply,
//   - new_key messages with no freshness evidence (replayable),
//   - membership notices under the shared group key (insider-forgeable).
// Do NOT use this protocol for anything but experiments.
#pragma once

#include <string>
#include <vector>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/result.h"
#include "wire/fields.h"

namespace enclaves::wire {

/// {A, L, N1}_Pa — legacy auth message 1 content.
struct LegacyAuthInitPayload {
  std::string a;
  std::string l;
  crypto::ProtocolNonce n1;
  static constexpr std::uint8_t kWireType = 0xB1;
  static constexpr auto kWireFields = std::tuple{
      &LegacyAuthInitPayload::a, &LegacyAuthInitPayload::l,
      &LegacyAuthInitPayload::n1};
  friend bool operator==(const LegacyAuthInitPayload&,
                         const LegacyAuthInitPayload&) = default;
};

/// {L, A, N1, N2, Ka, IV, Kg}_Pa — legacy auth message 2 content.
struct LegacyAuthReplyPayload {
  std::string l;
  std::string a;
  crypto::ProtocolNonce n1;
  crypto::ProtocolNonce n2;
  crypto::SessionKey ka;
  Bytes iv;  // 16-byte initialization vector, faithful to the paper
  crypto::GroupKey kg;
  std::uint64_t epoch = 0;  // implementation detail: identifies Kg versions
  static constexpr std::uint8_t kWireType = 0xB2;
  static constexpr auto kWireFields = std::tuple{
      &LegacyAuthReplyPayload::l, &LegacyAuthReplyPayload::a,
      &LegacyAuthReplyPayload::n1, &LegacyAuthReplyPayload::n2,
      &LegacyAuthReplyPayload::ka, Exactly{&LegacyAuthReplyPayload::iv, 16},
      &LegacyAuthReplyPayload::kg, &LegacyAuthReplyPayload::epoch};
  friend bool operator==(const LegacyAuthReplyPayload&,
                         const LegacyAuthReplyPayload&) = default;
};

/// {N2}_Ka — legacy auth message 3 content.
struct LegacyAuthAckPayload {
  crypto::ProtocolNonce n2;
  static constexpr std::uint8_t kWireType = 0xB3;
  static constexpr auto kWireFields = std::tuple{&LegacyAuthAckPayload::n2};
  friend bool operator==(const LegacyAuthAckPayload&,
                         const LegacyAuthAckPayload&) = default;
};

/// {Kg', IV}_Ka — legacy rekey content. NO freshness field: this is the
/// replay vulnerability of Section 2.3.
struct LegacyNewKeyPayload {
  crypto::GroupKey kg;
  Bytes iv;
  std::uint64_t epoch = 0;
  static constexpr std::uint8_t kWireType = 0xB4;
  static constexpr auto kWireFields = std::tuple{
      &LegacyNewKeyPayload::kg, Exactly{&LegacyNewKeyPayload::iv, 16},
      &LegacyNewKeyPayload::epoch};
  friend bool operator==(const LegacyNewKeyPayload&,
                         const LegacyNewKeyPayload&) = default;
};

/// {Kg'}_Kg' — legacy rekey acknowledgment content.
struct LegacyNewKeyAckPayload {
  crypto::GroupKey kg;
  static constexpr std::uint8_t kWireType = 0xB5;
  static constexpr auto kWireFields = std::tuple{&LegacyNewKeyAckPayload::kg};
  friend bool operator==(const LegacyNewKeyAckPayload&,
                         const LegacyNewKeyAckPayload&) = default;
};

/// {A}_Kg — membership notice content (mem_removed / mem_added). Encrypted
/// under the SHARED group key: any member can forge it (Section 2.3).
struct LegacyMembershipPayload {
  std::string member;
  static constexpr std::uint8_t kWireType = 0xB6;
  static constexpr auto kWireFields = std::tuple{
      &LegacyMembershipPayload::member};
  friend bool operator==(const LegacyMembershipPayload&,
                         const LegacyMembershipPayload&) = default;
};

}  // namespace enclaves::wire
