// MemberSession (Figure 2) unit tests: every transition, every rejection
// class, nonce-chain discipline. The leader side is played by a genuine
// LeaderSession so the messages are exactly what the protocol produces.
#include <gtest/gtest.h>

#include "core/leader_session.h"
#include "core/member_session.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

using State = MemberSession::State;

struct MemberFsm : ::testing::Test {
  MemberFsm()
      : rng(7),
        pa(crypto::LongTermKey::random(rng)),
        member("alice", "L", pa, rng),
        leader("L", "alice", pa, rng) {}

  // Runs the full 3-message handshake; returns the final AuthAckKey.
  void handshake() {
    auto init = member.start_join();
    ASSERT_TRUE(init.ok());
    auto dist = leader.handle(*init);
    ASSERT_TRUE(dist.ok());
    ASSERT_TRUE(dist->reply.has_value());
    auto ack = member.handle(*dist->reply);
    ASSERT_TRUE(ack.ok());
    ASSERT_TRUE(ack->became_connected);
    ASSERT_TRUE(ack->reply.has_value());
    auto done = leader.handle(*ack->reply);
    ASSERT_TRUE(done.ok());
    ASSERT_TRUE(done->authenticated);
  }

  DeterministicRng rng;
  crypto::LongTermKey pa;
  MemberSession member;
  LeaderSession leader;
};

TEST_F(MemberFsm, InitialStateNotConnected) {
  EXPECT_EQ(member.state(), State::not_connected);
  EXPECT_EQ(member.reject_stats().total(), 0u);
}

TEST_F(MemberFsm, StartJoinEmitsAuthInitReq) {
  auto env = member.start_join();
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env->label, wire::Label::AuthInitReq);
  EXPECT_EQ(env->sender, "alice");
  EXPECT_EQ(env->recipient, "L");
  EXPECT_EQ(member.state(), State::waiting_for_key);
}

TEST_F(MemberFsm, DoubleJoinRejected) {
  ASSERT_TRUE(member.start_join().ok());
  auto again = member.start_join();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), Errc::unexpected);
  EXPECT_EQ(member.state(), State::waiting_for_key);
}

TEST_F(MemberFsm, FullHandshakeConnects) {
  handshake();
  EXPECT_EQ(member.state(), State::connected);
  EXPECT_EQ(leader.state(), LeaderSession::State::connected);
  // Both ends derive the same session key.
  EXPECT_TRUE(
      equal(member.session_key().view(), leader.session_key().view()));
}

TEST_F(MemberFsm, KeyDistWithWrongNonceEchoRejected) {
  ASSERT_TRUE(member.start_join().ok());
  // Leader answers a DIFFERENT (older) AuthInitReq: build one via a second
  // member instance sharing the key.
  MemberSession other("alice", "L", pa, rng);
  auto stale_init = other.start_join();
  ASSERT_TRUE(stale_init.ok());
  auto stale_dist = leader.handle(*stale_init);
  ASSERT_TRUE(stale_dist.ok());
  auto r = member.handle(*stale_dist->reply);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::stale);
  EXPECT_EQ(member.state(), State::waiting_for_key);
  EXPECT_EQ(member.reject_stats().stale, 1u);
}

TEST_F(MemberFsm, KeyDistUnderWrongKeyRejected) {
  ASSERT_TRUE(member.start_join().ok());
  Bytes junk = rng.bytes(32);
  auto forged = wire::make_sealed(crypto::default_aead(), junk, rng,
                                  wire::Label::AuthKeyDist, "L", "alice",
                                  to_bytes("junk"));
  auto r = member.handle(forged);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::auth_failed);
  EXPECT_EQ(member.reject_stats().undecryptable, 1u);
}

TEST_F(MemberFsm, KeyDistOutOfStateRejected) {
  handshake();
  // A second AuthKeyDist replayed while connected is out of state.
  MemberSession other("alice", "L", pa, rng);
  LeaderSession other_leader("L", "alice", pa, rng);
  auto init = other.start_join();
  auto dist = other_leader.handle(*init);
  auto r = member.handle(*dist->reply);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::unexpected);
  EXPECT_EQ(member.reject_stats().bad_label, 1u);
}

TEST_F(MemberFsm, AdminMessageAcceptedAndAcked) {
  handshake();
  auto admin = leader.submit_admin(wire::Notice{"hello"});
  ASSERT_TRUE(admin.has_value());
  auto out = member.handle(*admin);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->admin.has_value());
  EXPECT_EQ(std::get<wire::Notice>(*out->admin).text, "hello");
  ASSERT_TRUE(out->reply.has_value());
  EXPECT_EQ(out->reply->label, wire::Label::Ack);
  // Leader accepts the ack.
  auto done = leader.handle(*out->reply);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->acked);
}

TEST_F(MemberFsm, AdminChainProcessesManyMessagesInOrder) {
  handshake();
  for (int i = 0; i < 20; ++i) {
    auto admin = leader.submit_admin(wire::Notice{std::to_string(i)});
    ASSERT_TRUE(admin.has_value());
    auto out = member.handle(*admin);
    ASSERT_TRUE(out.ok());
    auto done = leader.handle(*out->reply);
    ASSERT_TRUE(done.ok());
  }
  ASSERT_EQ(member.rcv_log().size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(std::get<wire::Notice>(member.rcv_log()[i]).text,
              std::to_string(i));
  }
}

// rcv_A is kept as a window plus an exact count (core/admin_history.h):
// far past the window, only the last kAdminHistoryWindow bodies stay, the
// count still covers every one, and leaving empties both.
TEST_F(MemberFsm, RcvLogKeepsLastWindowAndExactCount) {
  handshake();
  const std::size_t total = 3 * kAdminHistoryWindow + 7;
  for (std::size_t i = 0; i < total; ++i) {
    auto admin = leader.submit_admin(wire::Notice{std::to_string(i)});
    ASSERT_TRUE(admin.has_value());
    auto out = member.handle(*admin);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(leader.handle(*out->reply).ok());
  }
  EXPECT_EQ(member.rcv_count(), total);
  ASSERT_EQ(member.rcv_log().size(), kAdminHistoryWindow);
  const std::size_t first = total - kAdminHistoryWindow;
  for (std::size_t j = 0; j < kAdminHistoryWindow; ++j)
    EXPECT_EQ(std::get<wire::Notice>(member.rcv_log()[j]).text,
              std::to_string(first + j));

  ASSERT_TRUE(member.request_close().ok());
  EXPECT_TRUE(member.rcv_log().empty());
  EXPECT_EQ(member.rcv_count(), 0u);
}

TEST_F(MemberFsm, ReplayedAdminMessageRejected) {
  handshake();
  auto admin = leader.submit_admin(wire::Notice{"once"});
  auto out = member.handle(*admin);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(leader.handle(*out->reply).ok());
  // Push the chain forward so the replay is not the most recent message.
  auto admin2 = leader.submit_admin(wire::Notice{"twice"});
  auto out2 = member.handle(*admin2);
  ASSERT_TRUE(leader.handle(*out2->reply).ok());

  auto replay = member.handle(*admin);  // stale nonce now
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.code(), Errc::stale);
  EXPECT_EQ(member.rcv_log().size(), 2u);
}

TEST_F(MemberFsm, ImmediateDuplicateAnsweredIdempotently) {
  handshake();
  auto admin = leader.submit_admin(wire::Notice{"dup"});
  auto out1 = member.handle(*admin);
  ASSERT_TRUE(out1.ok());
  // The leader's retransmission of the identical envelope (lost Ack case):
  auto out2 = member.handle(*admin);
  ASSERT_TRUE(out2.ok());
  EXPECT_TRUE(out2->duplicate_retransmit);
  EXPECT_FALSE(out2->admin.has_value()) << "no duplicate delivery";
  ASSERT_TRUE(out2->reply.has_value());
  EXPECT_EQ(out2->reply->body, out1->reply->body) << "cached Ack re-sent";
  EXPECT_EQ(member.rcv_log().size(), 1u);
}

TEST_F(MemberFsm, AdminForgedUnderGroupKeyRejected) {
  handshake();
  Bytes kg = rng.bytes(32);  // any key that is not Ka
  wire::AdminPayload lie{"L", "alice", crypto::ProtocolNonce{},
                         crypto::ProtocolNonce{},
                         wire::AdminBody(wire::MemberLeft{"bob"})};
  auto forged = wire::make_sealed(crypto::default_aead(), kg, rng,
                                  wire::Label::AdminMsg, "L", "alice",
                                  wire::encode(lie));
  auto r = member.handle(forged);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::auth_failed);
}

TEST_F(MemberFsm, AdminWithWrongIdentitiesRejected) {
  handshake();
  // Correct key, wrong embedded identities.
  wire::AdminPayload lie{"L", "bob", crypto::ProtocolNonce{},
                         crypto::ProtocolNonce{},
                         wire::AdminBody(wire::Notice{"x"})};
  auto forged = wire::make_sealed(crypto::default_aead(),
                                  member.session_key().view(), rng,
                                  wire::Label::AdminMsg, "L", "alice",
                                  wire::encode(lie));
  auto r = member.handle(forged);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::identity_mismatch);
}

TEST_F(MemberFsm, RequestCloseEmitsReqCloseAndResets) {
  handshake();
  auto close = member.request_close();
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(close->label, wire::Label::ReqClose);
  EXPECT_EQ(member.state(), State::not_connected);
  EXPECT_TRUE(member.rcv_log().empty()) << "rcv_A emptied on leave";
  // Leader accepts the close.
  auto done = leader.handle(*close);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->closed);
  EXPECT_EQ(leader.state(), LeaderSession::State::not_connected);
}

TEST_F(MemberFsm, CloseWhileNotConnectedRejected) {
  auto r = member.request_close();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::unexpected);
}

TEST_F(MemberFsm, RejoinAfterLeaveGetsFreshKey) {
  handshake();
  Bytes first_key = Bytes(member.session_key().view().begin(),
                          member.session_key().view().end());
  auto close = member.request_close();
  ASSERT_TRUE(leader.handle(*close).ok());
  handshake();
  EXPECT_FALSE(equal(member.session_key().view(), first_key));
}

TEST_F(MemberFsm, GarbageInputNeverChangesState) {
  handshake();
  DeterministicRng garbage_rng(1234);
  for (int i = 0; i < 50; ++i) {
    wire::Envelope junk;
    junk.label = static_cast<wire::Label>(
        i % 2 == 0 ? 4 : 2);  // AdminMsg / AuthKeyDist
    junk.sender = "L";
    junk.recipient = "alice";
    junk.body = garbage_rng.bytes(garbage_rng.below(200));
    auto r = member.handle(junk);
    EXPECT_FALSE(r.ok());
  }
  EXPECT_EQ(member.state(), State::connected);
  EXPECT_EQ(member.rcv_log().size(), 0u);
  EXPECT_EQ(member.reject_stats().total(), 50u);
}

TEST(MemberSessionStates, ToStringCoversAll) {
  EXPECT_STREQ(to_string(State::not_connected), "NotConnected");
  EXPECT_STREQ(to_string(State::waiting_for_key), "WaitingForKey");
  EXPECT_STREQ(to_string(State::connected), "Connected");
}

}  // namespace
}  // namespace enclaves::core
