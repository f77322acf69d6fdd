// MemberSession — the user state machine of Figure 2, as a pure FSM.
//
// States (paper names):
//   NotConnected                — out of the group
//   WaitingForKey(N1)           — AuthInitReq sent, awaiting AuthKeyDist
//   Connected(Na, Ka)           — in session; Na is the last nonce this
//                                 member generated (the one it expects to see
//                                 echoed in the next AdminMsg)
//
// The FSM consumes decoded envelopes and produces reply envelopes; it does no
// I/O. Every rejection is explicit (Result error) and leaves the state
// untouched — adversarial input can never move an honest member's state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/admin_history.h"
#include "crypto/aead.h"
#include "crypto/keys.h"
#include "util/result.h"
#include "wire/envelope.h"
#include "wire/payloads.h"

namespace enclaves::core {

class MemberSession {
 public:
  enum class State : std::uint8_t {
    not_connected,
    waiting_for_key,
    connected,
  };

  /// Counters of rejected inputs, by reason — the observable record of
  /// attempted intrusions.
  struct RejectStats {
    std::uint64_t bad_label = 0;       // label not accepted in current state
    std::uint64_t undecryptable = 0;   // AEAD open failed (forgery/garbage)
    std::uint64_t identity = 0;        // embedded ids disagree
    std::uint64_t stale = 0;           // nonce check failed (replay)
    std::uint64_t total() const {
      return bad_label + undecryptable + identity + stale;
    }
  };

  MemberSession(std::string id, std::string leader_id, crypto::LongTermKey pa,
                Rng& rng, const crypto::Aead& aead = crypto::default_aead());

  State state() const { return state_; }
  const std::string& id() const { return id_; }
  const std::string& leader_id() const { return leader_id_; }

  /// Starts the join handshake: emits AuthInitReq and moves to
  /// waiting_for_key. Errc::unexpected unless not_connected.
  Result<wire::Envelope> start_join();

  /// Outcome of feeding one envelope to the FSM.
  struct HandleOutcome {
    std::optional<wire::Envelope> reply;       // message to send back, if any
    std::optional<wire::AdminBody> admin;      // accepted group-mgmt message
    bool became_connected = false;
    bool duplicate_retransmit = false;  // benign: leader resent, Ack replayed
  };

  /// Feeds one envelope. Errors reject the input and leave the state
  /// unchanged; they are also tallied in reject_stats().
  Result<HandleOutcome> handle(const wire::Envelope& e);

  /// Emits ReqClose and returns to not_connected. Errc::unexpected unless
  /// connected.
  Result<wire::Envelope> request_close();

  /// Discards all session state WITHOUT emitting a message. Used when the
  /// leader has already closed the session on its side (an authenticated
  /// Expelled admin message arrived): there is nobody left to notify.
  void close_local();

  /// Repoints the FSM at a different leader (HA failover: the member's next
  /// join handshake targets the promoted standby, which holds the same
  /// replicated credential). Only legal while not_connected; all cached
  /// handshake/ack state from the previous leader is discarded.
  /// Errc::unexpected while a session or handshake is live.
  Status retarget(std::string leader_id);

  /// Session key; only meaningful while connected.
  const crypto::SessionKey& session_key() const { return ka_; }

  /// The envelope to retransmit if the peer appears stalled: the
  /// AuthInitReq while waiting_for_key (covers a lost request or a lost
  /// AuthKeyDist, which the leader re-answers idempotently), nothing
  /// otherwise. Retransmission is byte-identical, so it reveals nothing new.
  std::optional<wire::Envelope> pending_retransmit() const;

  /// The last kAdminHistoryWindow admin bodies accepted, in acceptance
  /// order: the retained tail of the paper's rcv_A list (Section 5.4),
  /// whose verification property is that it is always a prefix of the
  /// leader's snd_A list. Emptied when the session ends.
  const std::deque<wire::AdminBody>& rcv_log() const {
    return rcv_log_.bodies();
  }

  /// Admin bodies accepted this session (the exact length of rcv_A).
  std::uint64_t rcv_count() const { return rcv_log_.count(); }

  const RejectStats& reject_stats() const { return rejects_; }

 private:
  Result<HandleOutcome> on_auth_key_dist(const wire::Envelope& e);
  Result<HandleOutcome> on_admin_msg(const wire::Envelope& e);
  Error reject(Errc code, const char* what, std::uint64_t RejectStats::*slot);

  std::string id_;
  std::string leader_id_;
  crypto::LongTermKey pa_;
  Rng& rng_;
  const crypto::Aead& aead_;

  State state_ = State::not_connected;
  crypto::ProtocolNonce n1_;   // valid in waiting_for_key
  crypto::ProtocolNonce na_;   // valid in connected: last nonce we generated
  crypto::SessionKey ka_;      // valid in connected

  // Liveness extension (documented in README): if the leader retransmits the
  // byte-identical last AdminMsg (its Ack was lost), we re-send the cached
  // Ack instead of rejecting. Replaying our own previous ciphertext adds no
  // new information, so the paper's properties are unaffected. The same
  // idempotent-answer discipline applies to a retransmitted AuthKeyDist
  // (our AuthAckKey was lost).
  std::optional<wire::Envelope> last_admin_seen_;
  std::optional<wire::Envelope> last_ack_sent_;
  std::optional<wire::Envelope> last_keydist_seen_;
  std::optional<wire::Envelope> last_authack_sent_;
  std::optional<wire::Envelope> join_request_;  // for retransmission

  AdminHistory rcv_log_;
  RejectStats rejects_;
};

const char* to_string(MemberSession::State s);

}  // namespace enclaves::core
