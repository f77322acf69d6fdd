// LeaderSession — the per-user leader state machine of Figure 3, as a pure
// FSM. The leader proper (leader.h) composes one of these per registered
// member, exactly as the paper models L ("the composition of separate
// transition systems, one for each user").
//
// States (paper names):
//   NotConnected
//   WaitingForKeyAck(Nl, Ka) — AuthKeyDist sent, awaiting AuthAckKey
//   Connected(Na, Ka)        — member in session; Na = most recent nonce
//                              received from the member, to embed in the
//                              next AdminMsg
//   WaitingForAck(Nl, Ka)    — AdminMsg outstanding, awaiting Ack
//
// Group-management messages submitted while an exchange is outstanding are
// queued and sent one at a time (stop-and-wait), which is what gives the
// in-order, no-duplicate delivery property.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/admin_history.h"
#include "crypto/aead.h"
#include "crypto/keys.h"
#include "util/result.h"
#include "wire/admin_body.h"
#include "wire/envelope.h"
#include "wire/payloads.h"

namespace enclaves::core {

class LeaderSession {
 public:
  enum class State : std::uint8_t {
    not_connected,
    waiting_for_key_ack,
    connected,
    waiting_for_ack,
  };

  struct RejectStats {
    std::uint64_t bad_label = 0;
    std::uint64_t undecryptable = 0;
    std::uint64_t identity = 0;
    std::uint64_t stale = 0;
    std::uint64_t total() const {
      return bad_label + undecryptable + identity + stale;
    }
  };

  LeaderSession(std::string leader_id, std::string member_id,
                crypto::LongTermKey pa, Rng& rng,
                const crypto::Aead& aead = crypto::default_aead());

  /// Replaces the long-term key (credential rotation, e.g. a password
  /// change). Takes effect at the NEXT authentication; an in-flight or
  /// established session keeps running on its session key.
  void set_long_term_key(crypto::LongTermKey pa) { pa_ = pa; }

  /// Current long-term credential (crash-recovery snapshots read it back).
  const crypto::LongTermKey& long_term_key() const { return pa_; }

  State state() const { return state_; }
  const std::string& member_id() const { return member_id_; }
  bool in_session() const { return state_ != State::not_connected; }

  struct HandleOutcome {
    std::optional<wire::Envelope> reply;  // AuthKeyDist or next AdminMsg
    bool authenticated = false;           // member just entered the group
    bool acked = false;                   // an AdminMsg was acknowledged
    bool closed = false;                  // session ended (ReqClose)
    bool superseded = false;              // fresh re-auth replaced a stale
                                          //   session (closed is also set)
    bool duplicate_retransmit = false;    // benign AuthAckKey replay answered
    // When `reply` is an AdminMsg drained from the queue, its body's
    // admin_kind_name (static storage); nullptr otherwise.
    const char* sent_admin_kind = nullptr;
  };

  /// Feeds one envelope addressed to this session. Errors reject the input
  /// and leave the state unchanged.
  Result<HandleOutcome> handle(const wire::Envelope& e);

  /// Queues a group-management message for the member. If the session is
  /// connected and idle, returns the AdminMsg envelope to send now.
  std::optional<wire::Envelope> submit_admin(wire::AdminBody body);

  /// The AdminMsg currently awaiting acknowledgment (retransmission handle
  /// for lossy transports). Empty unless waiting_for_ack.
  const std::optional<wire::Envelope>& outstanding() const {
    return outstanding_;
  }

  /// The envelope to retransmit if the member appears stalled: the
  /// AuthKeyDist while waiting_for_key_ack, the outstanding AdminMsg while
  /// waiting_for_ack, nothing otherwise. Byte-identical retransmission; the
  /// member answers duplicates idempotently.
  std::optional<wire::Envelope> pending_retransmit() const;

  /// Forcibly tears the session down (expulsion / shutdown). Returns the
  /// discarded session key so callers can model the paper's Oops event.
  std::optional<crypto::SessionKey> force_close();

  /// Session key; meaningful while in_session().
  const crypto::SessionKey& session_key() const { return ka_; }

  /// The last kAdminHistoryWindow admin bodies sent, in order: the
  /// retained tail of the paper's snd_A list (Section 5.4). Cleared when
  /// the session closes, as in the paper.
  const std::deque<wire::AdminBody>& snd_log() const {
    return snd_log_.bodies();
  }

  /// Admin bodies sent this session (the exact length of snd_A).
  std::uint64_t snd_count() const { return snd_log_.count(); }

  /// Number of admin messages acknowledged by the member this session.
  std::uint64_t acked_count() const { return acked_count_; }

  std::size_t queue_depth() const { return pending_.size(); }
  const RejectStats& reject_stats() const { return rejects_; }

  /// Invoked with the discarded Ka whenever the session closes — the hook by
  /// which experiments model the Oops(Ka) compromise of old session keys.
  std::function<void(const crypto::SessionKey&)> on_session_closed;

 private:
  Result<HandleOutcome> on_auth_init(const wire::Envelope& e);
  Result<HandleOutcome> on_auth_ack_key(const wire::Envelope& e);
  Result<HandleOutcome> on_ack(const wire::Envelope& e);
  Result<HandleOutcome> on_req_close(const wire::Envelope& e);
  wire::Envelope build_admin_msg(wire::AdminBody body);
  void close_session(bool fire_oops);
  Error reject(Errc code, const char* what, std::uint64_t RejectStats::*slot);

  std::string leader_id_;
  std::string member_id_;
  crypto::LongTermKey pa_;
  Rng& rng_;
  const crypto::Aead& aead_;

  State state_ = State::not_connected;
  crypto::ProtocolNonce nl_;  // nonce we expect echoed (N2 or N_{2i+2})
  crypto::ProtocolNonce na_;  // most recent nonce received from the member
  crypto::SessionKey ka_;

  std::deque<wire::AdminBody> pending_;
  std::optional<wire::Envelope> outstanding_;
  // Benign-retransmit caches: a member whose AuthKeyDist was lost re-sends
  // its byte-identical AuthInitReq and gets the cached reply; a member
  // whose AuthAckKey we already consumed is answered idempotently.
  std::optional<wire::Envelope> last_auth_init_seen_;
  std::optional<wire::Envelope> last_key_dist_sent_;
  std::optional<wire::Envelope> last_auth_ack_seen_;
  // ReqClose is fire-and-forget: the member re-sends it on a budgeted
  // policy because no ack exists to stop it. The byte-identical duplicate
  // of the close that ended THIS session is answered idempotently (it
  // survives close_session, and a fresh handshake clears it).
  std::optional<wire::Envelope> last_req_close_seen_;

  // Every N1 ever accepted in an AuthInitReq: the replay fence that makes
  // re-authentication supersession safe. Only the member can mint a fresh
  // N1 under Pa; a captured old handshake opener dies here as stale.
  std::set<crypto::ProtocolNonce> seen_init_n1_;

  AdminHistory snd_log_;
  std::uint64_t acked_count_ = 0;
  RejectStats rejects_;
};

const char* to_string(LeaderSession::State s);

}  // namespace enclaves::core
