// LeaderSession (Figure 3) unit tests: per-state acceptance, queueing
// discipline (stop-and-wait), snd log semantics, Oops hook.
#include <gtest/gtest.h>

#include "core/leader_session.h"
#include "core/member_session.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

using LState = LeaderSession::State;

struct LeaderFsm : ::testing::Test {
  LeaderFsm()
      : rng(11),
        pa(crypto::LongTermKey::random(rng)),
        member("alice", "L", pa, rng),
        leader("L", "alice", pa, rng) {}

  void handshake() {
    auto init = member.start_join();
    auto dist = leader.handle(*init);
    ASSERT_TRUE(dist.ok());
    auto ack = member.handle(*dist->reply);
    ASSERT_TRUE(ack.ok());
    auto done = leader.handle(*ack->reply);
    ASSERT_TRUE(done.ok() && done->authenticated);
  }

  DeterministicRng rng;
  crypto::LongTermKey pa;
  MemberSession member;
  LeaderSession leader;
};

TEST_F(LeaderFsm, AuthInitProducesKeyDist) {
  auto init = member.start_join();
  auto out = leader.handle(*init);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->reply.has_value());
  EXPECT_EQ(out->reply->label, wire::Label::AuthKeyDist);
  EXPECT_EQ(leader.state(), LState::waiting_for_key_ack);
  EXPECT_FALSE(out->authenticated);
}

TEST_F(LeaderFsm, AuthInitForgedUnderWrongKeyRejected) {
  Bytes junk = rng.bytes(32);
  wire::AuthInitPayload lie{"alice", "L", crypto::ProtocolNonce{}};
  auto forged = wire::make_sealed(crypto::default_aead(), junk, rng,
                                  wire::Label::AuthInitReq, "alice", "L",
                                  wire::encode(lie));
  auto r = leader.handle(forged);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::auth_failed);
  EXPECT_EQ(leader.state(), LState::not_connected);
}

TEST_F(LeaderFsm, AuthInitWithWrongIdentitiesRejected) {
  wire::AuthInitPayload lie{"bob", "L", crypto::ProtocolNonce{}};
  auto forged = wire::make_sealed(crypto::default_aead(), pa.view(), rng,
                                  wire::Label::AuthInitReq, "alice", "L",
                                  wire::encode(lie));
  auto r = leader.handle(forged);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::identity_mismatch);
}

TEST_F(LeaderFsm, DuplicateAuthInitAnsweredIdempotently) {
  // Byte-identical re-send of the pending AuthInitReq (the member believes
  // its request or our reply was lost): re-answer with the CACHED key
  // distribution — same bytes, no new session, no new ciphertext.
  auto init = member.start_join();
  auto first = leader.handle(*init);
  ASSERT_TRUE(first.ok());
  auto replay = leader.handle(*init);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->duplicate_retransmit);
  ASSERT_TRUE(replay->reply.has_value());
  EXPECT_EQ(replay->reply->body, first->reply->body);
  EXPECT_EQ(leader.state(), LState::waiting_for_key_ack);
}

TEST_F(LeaderFsm, FreshAuthInitWhileInSessionSupersedes) {
  // A FRESH authentic AuthInitReq while a session (or handshake) is live
  // supersedes it: only the member can mint one under Pa, and a member
  // re-offering a handshake has by definition lost its session state
  // (crash, or its ReqClose never arrived). Refusing it would deadlock.
  auto init = member.start_join();
  ASSERT_TRUE(leader.handle(*init).ok());
  MemberSession other("alice", "L", pa, rng);
  auto other_init = other.start_join();
  auto r = leader.handle(*other_init);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->superseded);
  EXPECT_TRUE(r->closed);
  EXPECT_EQ(leader.state(), LState::waiting_for_key_ack);
  // ...and the superseded handshake's opener is now a dead replay.
  auto replay = leader.handle(*init);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.code(), Errc::stale);
}

TEST_F(LeaderFsm, ReplayedAuthInitAfterCloseIsRejectedStale) {
  // The paper's Q12 situation: a replayed AuthInitReq used to re-enter the
  // authentication protocol as a "ghost handshake" — safe but observable,
  // and it blocked the slot until operations cleared it. The per-member N1
  // replay fence closes that hole: every accepted handshake opener is
  // remembered, so the replay dies as stale and the slot stays free.
  auto init = member.start_join();
  auto dist = leader.handle(*init);
  auto ack = member.handle(*dist->reply);
  ASSERT_TRUE(leader.handle(*ack->reply).ok());
  auto close = member.request_close();
  ASSERT_TRUE(leader.handle(*close).ok());
  ASSERT_EQ(leader.state(), LState::not_connected);

  auto ghost = leader.handle(*init);  // replay of the original request
  ASSERT_FALSE(ghost.ok());
  EXPECT_EQ(ghost.code(), Errc::stale);
  EXPECT_EQ(leader.state(), LState::not_connected);
}

TEST_F(LeaderFsm, AuthAckWithWrongNonceRejected) {
  auto init = member.start_join();
  auto dist = leader.handle(*init);
  auto ack = member.handle(*dist->reply);
  ASSERT_TRUE(ack.ok());
  // Forge an ack under the correct session key but a zero nonce.
  wire::AuthAckPayload lie{crypto::ProtocolNonce{}, crypto::ProtocolNonce{}};
  auto forged = wire::make_sealed(crypto::default_aead(),
                                  member.session_key().view(), rng,
                                  wire::Label::AuthAckKey, "alice", "L",
                                  wire::encode(lie));
  auto r = leader.handle(forged);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::stale);
  EXPECT_EQ(leader.state(), LState::waiting_for_key_ack);
}

TEST_F(LeaderFsm, SubmitAdminWhenIdleSendsImmediately) {
  handshake();
  auto env = leader.submit_admin(wire::Notice{"now"});
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->label, wire::Label::AdminMsg);
  EXPECT_EQ(leader.state(), LState::waiting_for_ack);
  EXPECT_EQ(leader.snd_log().size(), 1u);
}

TEST_F(LeaderFsm, SubmitAdminWhileWaitingQueues) {
  handshake();
  ASSERT_TRUE(leader.submit_admin(wire::Notice{"1"}).has_value());
  EXPECT_FALSE(leader.submit_admin(wire::Notice{"2"}).has_value());
  EXPECT_FALSE(leader.submit_admin(wire::Notice{"3"}).has_value());
  EXPECT_EQ(leader.queue_depth(), 2u);
  EXPECT_EQ(leader.snd_log().size(), 1u) << "queued != sent";
}

TEST_F(LeaderFsm, AckReleasesNextQueuedAdmin) {
  handshake();
  auto first = leader.submit_admin(wire::Notice{"1"});
  leader.submit_admin(wire::Notice{"2"});
  auto out1 = member.handle(*first);
  auto done = leader.handle(*out1->reply);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->acked);
  ASSERT_TRUE(done->reply.has_value()) << "next admin goes out on ack";
  EXPECT_EQ(leader.snd_log().size(), 2u);
  EXPECT_EQ(leader.queue_depth(), 0u);

  auto out2 = member.handle(*done->reply);
  ASSERT_TRUE(out2.ok());
  ASSERT_TRUE(leader.handle(*out2->reply).ok());
  EXPECT_EQ(leader.state(), LState::connected);
  EXPECT_EQ(leader.acked_count(), 2u);
}

// snd_A is kept as a window plus an exact count (core/admin_history.h):
// far past the window, only the last kAdminHistoryWindow bodies stay, the
// count still covers every one, and closing empties both.
TEST_F(LeaderFsm, SndLogKeepsLastWindowAndExactCount) {
  handshake();
  const std::size_t total = 3 * kAdminHistoryWindow + 7;
  for (std::size_t i = 0; i < total; ++i) {
    auto admin = leader.submit_admin(wire::Notice{std::to_string(i)});
    ASSERT_TRUE(admin.has_value());
    auto out = member.handle(*admin);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(leader.handle(*out->reply).ok());
  }
  EXPECT_EQ(leader.snd_count(), total);
  EXPECT_EQ(leader.acked_count(), total);
  ASSERT_EQ(leader.snd_log().size(), kAdminHistoryWindow);
  const std::size_t first = total - kAdminHistoryWindow;
  for (std::size_t j = 0; j < kAdminHistoryWindow; ++j)
    EXPECT_EQ(std::get<wire::Notice>(leader.snd_log()[j]).text,
              std::to_string(first + j));
  // The member's retained rcv_A tail is the same window, position by
  // position.
  EXPECT_EQ(member.rcv_count(), leader.snd_count());
  ASSERT_EQ(member.rcv_log().size(), leader.snd_log().size());
  for (std::size_t j = 0; j < kAdminHistoryWindow; ++j)
    EXPECT_EQ(wire::encode(member.rcv_log()[j]),
              wire::encode(leader.snd_log()[j]));

  ASSERT_TRUE(leader.handle(*member.request_close()).ok());
  EXPECT_TRUE(leader.snd_log().empty());
  EXPECT_EQ(leader.snd_count(), 0u);
}

TEST_F(LeaderFsm, AdminQueuedDuringHandshakeFlushesOnAuth) {
  auto init = member.start_join();
  auto dist = leader.handle(*init);
  // Submit before the handshake completes: must queue.
  EXPECT_FALSE(leader.submit_admin(wire::Notice{"early"}).has_value());
  auto ack = member.handle(*dist->reply);
  auto done = leader.handle(*ack->reply);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->authenticated);
  ASSERT_TRUE(done->reply.has_value()) << "queued admin sent on auth";
  EXPECT_EQ(done->reply->label, wire::Label::AdminMsg);
}

TEST_F(LeaderFsm, ReplayedAckRejected) {
  handshake();
  auto admin = leader.submit_admin(wire::Notice{"x"});
  auto out = member.handle(*admin);
  ASSERT_TRUE(leader.handle(*out->reply).ok());
  auto replay = leader.handle(*out->reply);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.code(), Errc::unexpected);  // no longer waiting
}

TEST_F(LeaderFsm, StaleAckWhileWaitingRejected) {
  handshake();
  auto admin1 = leader.submit_admin(wire::Notice{"a"});
  auto out1 = member.handle(*admin1);
  ASSERT_TRUE(leader.handle(*out1->reply).ok());
  auto admin2 = leader.submit_admin(wire::Notice{"b"});
  ASSERT_TRUE(admin2.has_value());
  // Replay the FIRST ack while waiting for the second.
  auto r = leader.handle(*out1->reply);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::stale);
  EXPECT_EQ(leader.state(), LState::waiting_for_ack);
}

TEST_F(LeaderFsm, ReqCloseFromConnectedFiresOops) {
  handshake();
  bool oops_fired = false;
  Bytes leaked;
  leader.on_session_closed = [&](const crypto::SessionKey& k) {
    oops_fired = true;
    leaked = k.to_bytes();
  };
  auto close = member.request_close();
  auto done = leader.handle(*close);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->closed);
  EXPECT_TRUE(oops_fired);
  EXPECT_EQ(leaked.size(), crypto::kKeyBytes);
  EXPECT_TRUE(leader.snd_log().empty()) << "snd_A emptied on close";
}

TEST_F(LeaderFsm, ReqCloseWhileWaitingForAckAccepted) {
  handshake();
  ASSERT_TRUE(leader.submit_admin(wire::Notice{"pending"}).has_value());
  auto close = member.request_close();
  auto done = leader.handle(*close);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->closed);
  EXPECT_EQ(leader.state(), LState::not_connected);
}

TEST_F(LeaderFsm, ForceCloseReturnsKeyWithoutOops) {
  handshake();
  bool oops_fired = false;
  leader.on_session_closed = [&](const crypto::SessionKey&) {
    oops_fired = true;
  };
  auto key = leader.force_close();
  ASSERT_TRUE(key.has_value());
  EXPECT_FALSE(oops_fired) << "administrative close must not publish Ka";
  EXPECT_EQ(leader.state(), LState::not_connected);
  EXPECT_FALSE(leader.force_close().has_value()) << "idempotent";
}

TEST_F(LeaderFsm, OutstandingExposedForRetransmission) {
  handshake();
  EXPECT_FALSE(leader.outstanding().has_value());
  auto admin = leader.submit_admin(wire::Notice{"r"});
  ASSERT_TRUE(leader.outstanding().has_value());
  EXPECT_EQ(leader.outstanding()->body, admin->body);
}

TEST(LeaderSessionStates, ToStringCoversAll) {
  EXPECT_STREQ(to_string(LState::not_connected), "NotConnected");
  EXPECT_STREQ(to_string(LState::waiting_for_key_ack), "WaitingForKeyAck");
  EXPECT_STREQ(to_string(LState::connected), "Connected");
  EXPECT_STREQ(to_string(LState::waiting_for_ack), "WaitingForAck");
}

}  // namespace
}  // namespace enclaves::core
