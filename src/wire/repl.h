// Replication payload family (labels 96–99) — the HA plane that streams the
// active leader's admin-state changes to a warm standby (src/ha/,
// PROTOCOL.md §11).
//
// The replicated state is exactly what `Leader::snapshot()` persists: the
// credential registry plus the epoch. Deltas are keyed by (epoch, seq) where
// seq is a strictly increasing replication-log index; the standby applies
// them in order, suppresses duplicates, and detects gaps. All four payloads
// travel sealed (seal.h) under the pairwise replication key, which must be
// fresh per active/standby pairing — the seal gives confidentiality for the
// long-term keys in credential deltas and authenticity for the stream.
//
// Like payloads.h, every payload starts with a type octet unique within the
// family (0xB1-0xB4, which the legacy family reuses: messages.h) and
// decoders reject trailing bytes.
#pragma once

#include <cstdint>
#include <string>

#include "crypto/keys.h"
#include "util/bytes.h"
#include "util/result.h"
#include "wire/fields.h"

namespace enclaves::wire {

/// One admin-state change at the active leader, in emission order.
enum class ReplDeltaKind : std::uint8_t {
  credential_add = 1,     // register_member: member_id + pa
  credential_update = 2,  // update_credential: member_id + pa
  member_joined = 3,      // membership view change (informational: sessions
  member_left = 4,        //   are never replicated; members re-authenticate
  member_expelled = 5,    //   with the promoted leader)
  rekey = 6,              // epoch advanced to `epoch`
};

/// Stable snake_case name for traces and logs.
const char* repl_delta_kind_name(ReplDeltaKind kind);
bool is_known_repl_delta_kind(std::uint8_t raw);

struct ReplDeltaPayload {
  std::uint64_t epoch = 0;  // active's epoch when the delta was produced
  std::uint64_t seq = 0;    // log index, 1-based, strictly increasing
  ReplDeltaKind kind = ReplDeltaKind::rekey;
  std::string member_id;    // empty for rekey
  crypto::LongTermKey pa;   // credential_* kinds only; all-zero otherwise
  static constexpr std::uint8_t kWireType = 0xB1;
  static constexpr auto kWireFields = std::tuple{
      &ReplDeltaPayload::epoch, &ReplDeltaPayload::seq,
      Named{&ReplDeltaPayload::kind, repl_delta_kind_name},
      &ReplDeltaPayload::member_id, &ReplDeltaPayload::pa};
  friend bool operator==(const ReplDeltaPayload&,
                         const ReplDeltaPayload&) = default;
};

/// Full baseline: a sealed LeaderSnapshot blob covering the log up to `seq`.
/// Sent at stream start, periodically for compaction, and on gap resync.
struct ReplSnapshotPayload {
  std::uint64_t epoch = 0;  // epoch inside the snapshot (redundant, checked)
  std::uint64_t seq = 0;    // log head this baseline covers
  Bytes snapshot;           // LeaderSnapshot::serialize(replication key)
  static constexpr std::uint8_t kWireType = 0xB2;
  static constexpr auto kWireFields = std::tuple{
      &ReplSnapshotPayload::epoch, &ReplSnapshotPayload::seq,
      &ReplSnapshotPayload::snapshot};
  friend bool operator==(const ReplSnapshotPayload&,
                         const ReplSnapshotPayload&) = default;
};

/// Standby -> active: cumulative acknowledgement and flow control. A
/// promoted standby answers any further replication traffic with
/// `fenced = true` and its (fenced) epoch — the old leader is deposed.
struct ReplAckPayload {
  std::uint64_t seq = 0;    // highest contiguously applied log index
  std::uint64_t epoch = 0;  // acker's epoch view
  bool gap = false;         // sender should resync with a fresh snapshot
  bool fenced = false;      // acker is an active leader at a higher epoch
  static constexpr std::uint8_t kWireType = 0xB3;
  static constexpr auto kWireFields = std::tuple{
      &ReplAckPayload::seq, &ReplAckPayload::epoch, &ReplAckPayload::gap,
      &ReplAckPayload::fenced};
  friend bool operator==(const ReplAckPayload&,
                         const ReplAckPayload&) = default;
};

/// Active -> standby: liveness probe carrying the current log head, so an
/// idle standby can detect gaps (and the failover controller can tell a
/// quiet leader from a dead one).
struct ReplHeartbeatPayload {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;  // current log head (0 = nothing emitted yet)
  static constexpr std::uint8_t kWireType = 0xB4;
  static constexpr auto kWireFields = std::tuple{
      &ReplHeartbeatPayload::epoch, &ReplHeartbeatPayload::seq};
  friend bool operator==(const ReplHeartbeatPayload&,
                         const ReplHeartbeatPayload&) = default;
};

}  // namespace enclaves::wire
