#include "core/member_session.h"

#include "util/logging.h"
#include "wire/seal.h"

namespace enclaves::core {

const char* to_string(MemberSession::State s) {
  switch (s) {
    case MemberSession::State::not_connected: return "NotConnected";
    case MemberSession::State::waiting_for_key: return "WaitingForKey";
    case MemberSession::State::connected: return "Connected";
  }
  return "?";
}

MemberSession::MemberSession(std::string id, std::string leader_id,
                             crypto::LongTermKey pa, Rng& rng,
                             const crypto::Aead& aead)
    : id_(std::move(id)),
      leader_id_(std::move(leader_id)),
      pa_(pa),
      rng_(rng),
      aead_(aead) {}

Error MemberSession::reject(Errc code, const char* what,
                            std::uint64_t RejectStats::*slot) {
  ++(rejects_.*slot);
  ENCLAVES_LOG(debug) << id_ << " rejects input (" << what << ")";
  return make_error(code, what);
}

Result<wire::Envelope> MemberSession::start_join() {
  if (state_ != State::not_connected)
    return make_error(Errc::unexpected, "join while in session");

  n1_ = crypto::ProtocolNonce::random(rng_);
  wire::AuthInitPayload payload{id_, leader_id_, n1_};
  auto env = wire::make_sealed(aead_, pa_.view(), rng_,
                               wire::Label::AuthInitReq, id_, leader_id_,
                               wire::encode(payload));
  state_ = State::waiting_for_key;
  join_request_ = env;
  return env;
}

std::optional<wire::Envelope> MemberSession::pending_retransmit() const {
  if (state_ == State::waiting_for_key) return join_request_;
  return std::nullopt;
}

Result<MemberSession::HandleOutcome> MemberSession::handle(
    const wire::Envelope& e) {
  switch (e.label) {
    case wire::Label::AuthKeyDist:
      if (state_ != State::waiting_for_key) {
        // Liveness: the leader re-sent the byte-identical AuthKeyDist we
        // already answered (our AuthAckKey was lost) — re-send the cached
        // ack instead of rejecting.
        if (state_ == State::connected && last_keydist_seen_ &&
            e == *last_keydist_seen_) {
          HandleOutcome out;
          out.reply = *last_authack_sent_;
          out.duplicate_retransmit = true;
          return out;
        }
        return reject(Errc::unexpected, "AuthKeyDist out of state",
                      &RejectStats::bad_label);
      }
      return on_auth_key_dist(e);
    case wire::Label::AdminMsg:
      if (state_ != State::connected)
        return reject(Errc::unexpected, "AdminMsg while not connected",
                      &RejectStats::bad_label);
      return on_admin_msg(e);
    default:
      return reject(Errc::unexpected, "label not for members",
                    &RejectStats::bad_label);
  }
}

Result<MemberSession::HandleOutcome> MemberSession::on_auth_key_dist(
    const wire::Envelope& e) {
  auto plain = wire::open_sealed(aead_, pa_.view(), e);
  if (!plain)
    return reject(Errc::auth_failed, "AuthKeyDist does not open under Pa",
                  &RejectStats::undecryptable);
  auto payload = wire::decode<wire::AuthKeyDistPayload>(*plain);
  if (!payload)
    return reject(Errc::malformed, "AuthKeyDist payload malformed",
                  &RejectStats::undecryptable);

  // The encrypted identities are the authoritative ones (the envelope header
  // is attacker-writable): they must name our leader and ourselves.
  if (payload->l != leader_id_ || payload->a != id_)
    return reject(Errc::identity_mismatch, "AuthKeyDist identities",
                  &RejectStats::identity);
  // Echo of our fresh N1 proves this reply is for THIS join, not a replay of
  // an earlier session's AuthKeyDist.
  if (payload->n1 != n1_)
    return reject(Errc::stale, "AuthKeyDist nonce echo mismatch",
                  &RejectStats::stale);

  ka_ = payload->ka;
  // N3: the seed of the admin nonce chain (Section 3.2, message 3).
  crypto::ProtocolNonce n3 = crypto::ProtocolNonce::random(rng_);
  wire::AuthAckPayload ack{payload->n2, n3};
  auto reply = wire::make_sealed(aead_, ka_.view(), rng_,
                                 wire::Label::AuthAckKey, id_, leader_id_,
                                 wire::encode(ack));
  na_ = n3;
  state_ = State::connected;
  last_admin_seen_.reset();
  last_ack_sent_.reset();
  last_keydist_seen_ = e;
  last_authack_sent_ = reply;
  join_request_.reset();

  HandleOutcome out;
  out.reply = std::move(reply);
  out.became_connected = true;
  return out;
}

Result<MemberSession::HandleOutcome> MemberSession::on_admin_msg(
    const wire::Envelope& e) {
  // Liveness: byte-identical retransmit of the last accepted AdminMsg means
  // our Ack was lost — re-send it, do not re-deliver the admin body.
  if (last_admin_seen_ && e == *last_admin_seen_) {
    HandleOutcome out;
    out.reply = *last_ack_sent_;
    out.duplicate_retransmit = true;
    return out;
  }

  auto plain = wire::open_sealed(aead_, ka_.view(), e);
  if (!plain)
    return reject(Errc::auth_failed, "AdminMsg does not open under Ka",
                  &RejectStats::undecryptable);
  auto payload = wire::decode<wire::AdminPayload>(*plain);
  if (!payload)
    return reject(Errc::malformed, "AdminMsg payload malformed",
                  &RejectStats::undecryptable);

  if (payload->l != leader_id_ || payload->a != id_)
    return reject(Errc::identity_mismatch, "AdminMsg identities",
                  &RejectStats::identity);
  // N_{2i+1} must be the nonce we last generated: freshness + ordering.
  // A replayed or out-of-order AdminMsg carries a stale nonce and dies here
  // (the Section 2.3 rekey-replay attack, now impossible).
  if (payload->n_prev != na_)
    return reject(Errc::stale, "AdminMsg freshness nonce mismatch",
                  &RejectStats::stale);

  crypto::ProtocolNonce n_next = crypto::ProtocolNonce::random(rng_);
  wire::AckPayload ack{id_, leader_id_, payload->n_next, n_next};
  auto reply = wire::make_sealed(aead_, ka_.view(), rng_, wire::Label::Ack,
                                 id_, leader_id_, wire::encode(ack));
  na_ = n_next;
  rcv_log_.push(payload->body);
  last_admin_seen_ = e;
  last_ack_sent_ = reply;

  HandleOutcome out;
  out.reply = std::move(reply);
  out.admin = std::move(payload->body);
  return out;
}

Result<wire::Envelope> MemberSession::request_close() {
  if (state_ != State::connected)
    return make_error(Errc::unexpected, "close while not connected");

  wire::ReqClosePayload payload{id_, leader_id_};
  auto env = wire::make_sealed(aead_, ka_.view(), rng_, wire::Label::ReqClose,
                               id_, leader_id_, wire::encode(payload));
  state_ = State::not_connected;
  last_admin_seen_.reset();
  last_ack_sent_.reset();
  last_keydist_seen_.reset();
  last_authack_sent_.reset();
  // Section 5.4: "rcv_A(q) is emptied when A leaves a session".
  rcv_log_.clear();
  return env;
}

void MemberSession::close_local() {
  state_ = State::not_connected;
  ka_ = crypto::SessionKey{};
  last_admin_seen_.reset();
  last_ack_sent_.reset();
  last_keydist_seen_.reset();
  last_authack_sent_.reset();
  join_request_.reset();
  rcv_log_.clear();
}

Status MemberSession::retarget(std::string leader_id) {
  if (state_ != State::not_connected)
    return make_error(Errc::unexpected, "retarget while in session");
  leader_id_ = std::move(leader_id);
  // Cached envelopes from the previous leader would neither decrypt nor
  // address correctly under the new one; drop them all.
  close_local();
  return Status::success();
}

}  // namespace enclaves::core
