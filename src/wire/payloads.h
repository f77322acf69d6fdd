// Plaintext payloads of the improved protocol (Section 3.2).
//
// These are the fields *inside* the encryptions:
//   1. AuthInitReq,  A, L, {A, L, N1}_Pa                 -> AuthInitPayload
//   2. AuthKeyDist,  L, A, {L, A, N1, N2, Ka}_Pa         -> AuthKeyDistPayload
//   3. AuthAckKey,   A, L, {N2, N3}_Ka                   -> AuthAckPayload
//      AdminMsg,     L, A, {L, A, N2i+1, N2i+2, X}_Ka    -> AdminPayload
//      Ack,          A, L, {A, L, N2i+2, N2i+3}_Ka       -> AckPayload
//      ReqClose,     A, L, {A, L}_Ka                     -> ReqClosePayload
// The embedded identities are what the verifier checks against its own view
// (the envelope's sender field proves nothing). Decoders reject any trailing
// bytes, and each payload begins with a type octet of its own within this
// family (0xA1-0xA7), so no payload here decodes as another. Families are
// kept apart by the AEAD-bound envelope label, not the octet (messages.h).
#pragma once

#include <string>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/result.h"
#include "wire/admin_body.h"
#include "wire/fields.h"

namespace enclaves::wire {

struct AuthInitPayload {
  std::string a;  // claimed member identity (encrypted copy)
  std::string l;  // leader identity
  crypto::ProtocolNonce n1;
  static constexpr std::uint8_t kWireType = 0xA1;
  static constexpr auto kWireFields = std::tuple{
      &AuthInitPayload::a, &AuthInitPayload::l, &AuthInitPayload::n1};
  friend bool operator==(const AuthInitPayload&,
                         const AuthInitPayload&) = default;
};

struct AuthKeyDistPayload {
  std::string l;
  std::string a;
  crypto::ProtocolNonce n1;  // echo of the member's nonce: freshness proof
  crypto::ProtocolNonce n2;  // leader's challenge
  crypto::SessionKey ka;     // fresh session key
  static constexpr std::uint8_t kWireType = 0xA2;
  static constexpr auto kWireFields = std::tuple{
      &AuthKeyDistPayload::l, &AuthKeyDistPayload::a, &AuthKeyDistPayload::n1,
      &AuthKeyDistPayload::n2, &AuthKeyDistPayload::ka};
  friend bool operator==(const AuthKeyDistPayload&,
                         const AuthKeyDistPayload&) = default;
};

struct AuthAckPayload {
  crypto::ProtocolNonce n2;  // echo of leader's challenge
  crypto::ProtocolNonce n3;  // seed of the admin-message nonce chain
  static constexpr std::uint8_t kWireType = 0xA3;
  static constexpr auto kWireFields = std::tuple{
      &AuthAckPayload::n2, &AuthAckPayload::n3};
  friend bool operator==(const AuthAckPayload&,
                         const AuthAckPayload&) = default;
};

struct AdminPayload {
  std::string l;
  std::string a;
  crypto::ProtocolNonce n_prev;  // N_{2i+1}: proves freshness to A
  crypto::ProtocolNonce n_next;  // N_{2i+2}: leader's new challenge
  AdminBody body;                // the X field
  static constexpr std::uint8_t kWireType = 0xA4;
  static constexpr auto kWireFields = std::tuple{
      &AdminPayload::l, &AdminPayload::a, &AdminPayload::n_prev,
      &AdminPayload::n_next, Embedded{&AdminPayload::body}};
  friend bool operator==(const AdminPayload&, const AdminPayload&) = default;
};

struct AckPayload {
  std::string a;
  std::string l;
  crypto::ProtocolNonce n_prev;  // N_{2i+2}: proves freshness to L
  crypto::ProtocolNonce n_next;  // N_{2i+3}: next chain nonce
  static constexpr std::uint8_t kWireType = 0xA5;
  static constexpr auto kWireFields = std::tuple{
      &AckPayload::a, &AckPayload::l, &AckPayload::n_prev, &AckPayload::n_next};
  friend bool operator==(const AckPayload&, const AckPayload&) = default;
};

struct ReqClosePayload {
  std::string a;
  std::string l;
  static constexpr std::uint8_t kWireType = 0xA6;
  static constexpr auto kWireFields = std::tuple{
      &ReqClosePayload::a, &ReqClosePayload::l};
  friend bool operator==(const ReqClosePayload&,
                         const ReqClosePayload&) = default;
};

/// Group data-plane plaintext, sealed under the group key Kg. `origin` is the
/// authoring member; `seq` is that member's per-epoch sequence number so
/// receivers can detect data-plane replays within an epoch.
struct GroupDataPayload {
  std::string origin;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  Bytes payload;
  static constexpr std::uint8_t kWireType = 0xA7;
  static constexpr auto kWireFields = std::tuple{
      &GroupDataPayload::origin, &GroupDataPayload::epoch,
      &GroupDataPayload::seq, &GroupDataPayload::payload};
  friend bool operator==(const GroupDataPayload&,
                         const GroupDataPayload&) = default;
};

}  // namespace enclaves::wire
