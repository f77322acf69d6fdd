// Reconciliation payload family (labels 112–114) — heal-time merge of a
// partitioned member's offline op-log back into the group (PROTOCOL.md §12,
// docs/PARTITIONS.md).
//
// A member that loses its leader to a partition keeps its group state and
// queues application sends into an HMAC-chained OpLog (core/oplog.h). On
// heal it offers the log head to the leader (RECONCILE_OFFER); the leader
// answers with a verdict (RECONCILE_VERDICT: admit / quarantine / intrusion)
// and, on admit, the member replays ops one at a time (OP_REPLAY),
// stop-and-wait on the verdict's cumulative `ack_seq` — the same discipline
// as the AdminMsg/Ack channel.
//
// All three payloads travel sealed (seal.h) under Kr, the pairwise session
// key the member held when the partition began, which the leader retains in
// its parole list. Freshness comes from the offer nonce (echoed in every
// verdict) and from the epoch fence carried in offer and ops; the chain MACs
// bind each replayed op to its predecessor so the leader can tell a faithful
// replay from a forged or reordered one.
//
// Like payloads.h, every payload starts with a type octet unique within the
// family (0xC1-0xC3, which the fed family reuses: messages.h) and decoders
// reject trailing bytes.
#pragma once

#include <cstdint>
#include <string>

#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/result.h"
#include "wire/fields.h"

namespace enclaves::wire {

/// Leader's ruling on a reconciliation offer or a replayed op.
enum class ReconcileVerdictKind : std::uint8_t {
  admit = 1,       // clean partition: replay accepted, fast-path rejoin
  quarantine = 2,  // stale epoch / expired parole: standard rejoin required
  intrusion = 3,   // chain or epoch forgery: evidence ledgered, parole revoked
};

/// Stable snake_case name for traces and logs.
const char* reconcile_verdict_kind_name(ReconcileVerdictKind kind);

/// Member -> leader: "I survived a partition under `fence_epoch` and hold
/// `oplog_len` queued ops whose chain head is `chain_head`." Rebuilt (with a
/// fresh nonce) whenever the log grows; byte-identical between rebuilds.
struct ReconcileOfferPayload {
  std::string a;                    // member id
  std::string l;                    // leader id
  crypto::ProtocolNonce nr;         // freshness nonce, echoed in verdicts
  std::uint64_t fence_epoch = 0;    // epoch held when the partition began
  std::uint64_t oplog_len = 0;      // queued ops awaiting replay
  crypto::HmacSha256::Tag chain_head = {};  // MAC of the last queued op
  static constexpr std::uint8_t kWireType = 0xC1;
  static constexpr auto kWireFields = std::tuple{
      &ReconcileOfferPayload::a, &ReconcileOfferPayload::l,
      &ReconcileOfferPayload::nr, &ReconcileOfferPayload::fence_epoch,
      &ReconcileOfferPayload::oplog_len, &ReconcileOfferPayload::chain_head};
  friend bool operator==(const ReconcileOfferPayload&,
                         const ReconcileOfferPayload&) = default;
};

/// Leader -> member: verdict on the offer, and on admit the cumulative
/// replay acknowledgement (`ack_seq` = highest contiguously accepted op).
struct ReconcileVerdictPayload {
  std::string l;                    // leader id
  std::string a;                    // member id
  crypto::ProtocolNonce nr;         // echo of the offer nonce
  ReconcileVerdictKind verdict = ReconcileVerdictKind::quarantine;
  std::uint64_t epoch = 0;          // leader's current epoch
  std::uint64_t ack_seq = 0;        // replay floor (0 = send op 1)
  static constexpr std::uint8_t kWireType = 0xC2;
  static constexpr auto kWireFields = std::tuple{
      &ReconcileVerdictPayload::l, &ReconcileVerdictPayload::a,
      &ReconcileVerdictPayload::nr,
      Named{&ReconcileVerdictPayload::verdict, reconcile_verdict_kind_name},
      &ReconcileVerdictPayload::epoch, &ReconcileVerdictPayload::ack_seq};
  friend bool operator==(const ReconcileVerdictPayload&,
                         const ReconcileVerdictPayload&) = default;
};

/// Member -> leader: one queued op, replayed in order. `mac` is the op's
/// HMAC chain link (core/oplog.h chain_next), verified by the leader against
/// its own running chain under Kr.
struct OpReplayPayload {
  std::string a;                    // member id (origin)
  std::uint64_t seq = 0;            // 1-based position in the op-log
  std::uint64_t epoch = 0;          // epoch the op was queued under
  crypto::HmacSha256::Tag mac = {}; // chain MAC over (prev, seq, epoch, payload)
  Bytes payload;                    // the application bytes
  static constexpr std::uint8_t kWireType = 0xC3;
  static constexpr auto kWireFields = std::tuple{
      &OpReplayPayload::a, &OpReplayPayload::seq, &OpReplayPayload::epoch,
      &OpReplayPayload::mac, &OpReplayPayload::payload};
  friend bool operator==(const OpReplayPayload&,
                         const OpReplayPayload&) = default;
};

}  // namespace enclaves::wire
