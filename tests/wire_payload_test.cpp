// Envelope, admin-body, improved-protocol and legacy payload encoders:
// round trips, type confusion resistance, malformed-input rejection; and a
// characterisation of every wire message (pinned bytes, error codes).
#include <gtest/gtest.h>

#include <functional>

#include "app/file_drop.h"
#include "app/group_chat.h"
#include "app/shared_state.h"
#include "util/hex.h"
#include "util/rng.h"
#include "wire/admin_body.h"
#include "wire/codec.h"
#include "wire/envelope.h"
#include "wire/fed.h"
#include "wire/keytree.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"
#include "wire/reconcile.h"
#include "wire/repl.h"

namespace enclaves::wire {
namespace {

DeterministicRng& rng() {
  static DeterministicRng r(1234);
  return r;
}

crypto::ProtocolNonce nonce() { return crypto::ProtocolNonce::random(rng()); }
crypto::SessionKey skey() { return crypto::SessionKey::random(rng()); }
crypto::GroupKey gkey() { return crypto::GroupKey::random(rng()); }

TEST(Envelope, RoundTrip) {
  Envelope e{Label::AdminMsg, "L", "alice", to_bytes("payload")};
  auto back = decode_envelope(encode(e));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, e);
}

TEST(Envelope, EmptyFieldsRoundTrip) {
  Envelope e{Label::ReqClose, "", "", {}};
  auto back = decode_envelope(encode(e));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, e);
}

TEST(Envelope, UnknownLabelRejected) {
  Envelope e{Label::AuthInitReq, "a", "b", {}};
  Bytes raw = encode(e);
  raw[0] = 0xEE;  // not a defined label
  auto back = decode_envelope(raw);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.code(), Errc::malformed);
}

TEST(Envelope, TrailingGarbageRejected) {
  Bytes raw = encode(Envelope{Label::Ack, "a", "b", to_bytes("x")});
  raw.push_back(0x00);
  EXPECT_FALSE(decode_envelope(raw).ok());
}

TEST(Envelope, TruncationAnywhereRejectedCleanly) {
  Bytes raw = encode(Envelope{Label::AuthKeyDist, "leader", "member",
                              to_bytes("some body bytes")});
  for (std::size_t len = 0; len < raw.size(); ++len) {
    auto r = decode_envelope({raw.data(), len});
    EXPECT_FALSE(r.ok()) << "len=" << len;
  }
}

TEST(Envelope, DescribeMentionsParties) {
  std::string d = describe(Envelope{Label::AdminMsg, "L", "bob", {1, 2, 3}});
  EXPECT_NE(d.find("AdminMsg"), std::string::npos);
  EXPECT_NE(d.find("L->bob"), std::string::npos);
}

TEST(Envelope, AllLabelsHaveNames) {
  for (std::uint8_t raw = 0; raw < 255; ++raw) {
    if (!is_known_label(raw)) continue;
    EXPECT_STRNE(label_name(static_cast<Label>(raw)), "?");
  }
}

TEST(AdminBody, AllVariantsRoundTrip) {
  std::vector<AdminBody> bodies = {
      NewGroupKey{gkey(), 42},
      MemberJoined{"alice"},
      MemberLeft{"bob"},
      MemberList{{"a", "b", "c"}},
      Notice{"hello group"},
      Expelled{"policy violation"},
  };
  for (const auto& b : bodies) {
    auto back = decode<AdminBody>(encode(b));
    ASSERT_TRUE(back.ok()) << describe(b);
    EXPECT_EQ(*back, b) << describe(b);
  }
}

TEST(AdminBody, EmptyMemberListRoundTrip) {
  AdminBody b = MemberList{{}};
  auto back = decode<AdminBody>(encode(b));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, b);
}

TEST(AdminBody, UnknownTagRejected) {
  Bytes raw = {0x77};
  EXPECT_FALSE(decode<AdminBody>(raw).ok());
}

TEST(AdminBody, HugeMemberCountRejected) {
  Bytes raw = {0x04, 0xFF, 0xFF, 0xFF, 0xFF};  // member_list, count=2^32-1
  auto r = decode<AdminBody>(raw);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::oversized);
}

TEST(AdminBody, DescribeIsInformative) {
  EXPECT_EQ(describe(AdminBody(MemberJoined{"zoe"})), "MemberJoined(zoe)");
  EXPECT_EQ(describe(AdminBody(NewGroupKey{gkey(), 7})),
            "NewGroupKey(epoch=7)");
  EXPECT_EQ(describe(AdminBody(Expelled{"spam"})), "Expelled(spam)");
}

TEST(Payloads, AuthInitRoundTrip) {
  AuthInitPayload p{"alice", "L", nonce()};
  auto back = decode<AuthInitPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, AuthKeyDistRoundTrip) {
  AuthKeyDistPayload p{"L", "alice", nonce(), nonce(), skey()};
  auto back = decode<AuthKeyDistPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, AuthAckRoundTrip) {
  AuthAckPayload p{nonce(), nonce()};
  auto back = decode<AuthAckPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, AdminRoundTripAllBodies) {
  std::vector<AdminBody> bodies = {NewGroupKey{gkey(), 1},
                                   MemberJoined{"x"}, Notice{"n"}};
  for (const auto& b : bodies) {
    AdminPayload p{"L", "alice", nonce(), nonce(), b};
    auto back = decode<AdminPayload>(encode(p));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, p);
  }
}

TEST(Payloads, AckRoundTrip) {
  AckPayload p{"alice", "L", nonce(), nonce()};
  auto back = decode<AckPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, ReqCloseRoundTrip) {
  ReqClosePayload p{"alice", "L"};
  auto back = decode<ReqClosePayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(Payloads, GroupDataRoundTrip) {
  GroupDataPayload p{"alice", 3, 17, to_bytes("chat line")};
  auto back = decode<GroupDataPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

// Cross-decoding: a payload of one type must never decode as another, even
// though both could be sealed under the same key.
TEST(Payloads, CrossTypeDecodingRejected) {
  Bytes init = encode(AuthInitPayload{"a", "l", nonce()});
  EXPECT_FALSE(decode<AuthKeyDistPayload>(init).ok());
  EXPECT_FALSE(decode<AuthAckPayload>(init).ok());
  EXPECT_FALSE(decode<AdminPayload>(init).ok());
  EXPECT_FALSE(decode<AckPayload>(init).ok());
  EXPECT_FALSE(decode<ReqClosePayload>(init).ok());
  EXPECT_FALSE(decode<GroupDataPayload>(init).ok());

  Bytes ack = encode(AckPayload{"a", "l", nonce(), nonce()});
  EXPECT_FALSE(decode<AuthAckPayload>(ack).ok());
  EXPECT_FALSE(decode<ReqClosePayload>(ack).ok());
}

TEST(Payloads, TruncationRejected) {
  Bytes raw = encode(AuthKeyDistPayload{"L", "alice", nonce(), nonce(),
                                        skey()});
  for (std::size_t len = 0; len < raw.size(); ++len) {
    EXPECT_FALSE(decode<AuthKeyDistPayload>({raw.data(), len}).ok())
        << "len=" << len;
  }
}

TEST(LegacyPayloads, AuthInitRoundTrip) {
  LegacyAuthInitPayload p{"alice", "L", nonce()};
  auto back = decode<LegacyAuthInitPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, AuthReplyRoundTrip) {
  LegacyAuthReplyPayload p{"L",    "alice",         nonce(), nonce(),
                           skey(), rng().bytes(16), gkey(),  5};
  auto back = decode<LegacyAuthReplyPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, AuthReplyBadIvLengthRejected) {
  LegacyAuthReplyPayload p{"L",    "alice",        nonce(), nonce(),
                           skey(), rng().bytes(8), gkey(),  5};
  EXPECT_FALSE(decode<LegacyAuthReplyPayload>(encode(p)).ok());
}

TEST(LegacyPayloads, NewKeyRoundTrip) {
  LegacyNewKeyPayload p{gkey(), rng().bytes(16), 9};
  auto back = decode<LegacyNewKeyPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, NewKeyAckRoundTrip) {
  LegacyNewKeyAckPayload p{gkey()};
  auto back = decode<LegacyNewKeyAckPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, MembershipRoundTrip) {
  LegacyMembershipPayload p{"mallory"};
  auto back = decode<LegacyMembershipPayload>(encode(p));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
}

TEST(LegacyPayloads, CrossTypeDecodingRejected) {
  Bytes nk = encode(LegacyNewKeyPayload{gkey(), rng().bytes(16), 1});
  EXPECT_FALSE(decode<LegacyMembershipPayload>(nk).ok());
  EXPECT_FALSE(decode<LegacyAuthAckPayload>(nk).ok());
  // And improved-protocol decoders reject legacy payloads outright.
  EXPECT_FALSE(decode<AdminPayload>(nk).ok());
}


// --- Characterisation: one fixed sample of every wire message --------------
//
// Each sample's encoding is pinned byte for byte, and each decoder's answer
// to the standard corruptions is pinned by error code: every proper prefix
// is `truncated`, one appended byte and a wrong leading octet are
// `malformed`, an out-of-range enum or bool octet is `malformed`.

template <class K>
K filled(std::uint8_t b) {
  return K::from_bytes(Bytes(K().view().size(), b));
}
crypto::ProtocolNonce n(std::uint8_t b) {
  return filled<crypto::ProtocolNonce>(b);
}
crypto::HmacSha256::Tag tag(std::uint8_t b) {
  crypto::HmacSha256::Tag t;
  t.fill(b);
  return t;
}

struct Sample {
  std::string name;
  Bytes encoded;
  std::string hex;                   // pinned encoding
  std::vector<std::size_t> octets;   // offsets of enum/bool octets
  std::function<Errc(BytesView)> code;
  std::function<bool(BytesView)> round_trips;
};

template <class P>
Sample sample(std::string name, P value, std::string hex,
              std::vector<std::size_t> octets = {}) {
  Bytes encoded = wire::encode(value);
  return Sample{
      std::move(name), std::move(encoded), std::move(hex), std::move(octets),
      [](BytesView raw) { return wire::decode<P>(raw).code(); },
      [value](BytesView raw) {
        auto back = wire::decode<P>(raw);
        return back.ok() && *back == value;
      }};
}

std::vector<Sample> all_samples() {
  using app::FileMessage;
  using app::StateMessage;
  const Bytes iv(16, 0x99);
  return {
      sample("AuthInit", AuthInitPayload{"A", "L", n(0x11)},
             "a10000000141000000014c11111111111111111111111111111111"),
      sample("AuthKeyDist",
             AuthKeyDistPayload{"L", "A", n(0x11), n(0x22),
                                filled<crypto::SessionKey>(0x33)},
             "a2000000014c000000014111111111111111111111111111111111222222"
             "222222222222222222222222223333333333333333333333333333333333"
             "333333333333333333333333333333"),
      sample("AuthAck", AuthAckPayload{n(0x22), n(0x44)},
             "a32222222222222222222222222222222244444444444444444444444444"
             "444444"),
      sample("Admin",
             AdminPayload{"L", "A", n(0x44), n(0x55),
                          AdminBody(MemberJoined{"B"})},
             "a4000000014c000000014144444444444444444444444444444444555555"
             "5555555555555555555555555500000006020000000142"),
      sample("Ack", AckPayload{"A", "L", n(0x55), n(0x66)},
             "a50000000141000000014c55555555555555555555555555555555666666"
             "66666666666666666666666666"),
      sample("ReqClose", ReqClosePayload{"A", "L"},
             "a60000000141000000014c"),
      sample("GroupData", GroupDataPayload{"A", 7, 9, to_bytes("hi")},
             "a7000000014100000000000000070000000000000009000000026869"),

      sample("NewGroupKey",
             AdminBody(NewGroupKey{filled<crypto::GroupKey>(0x77), 5}),
             "017777777777777777777777777777777777777777777777777777777777"
             "7777770000000000000005"),
      sample("MemberJoined", AdminBody(MemberJoined{"B"}),
             "020000000142"),
      sample("MemberLeft", AdminBody(MemberLeft{"B"}),
             "030000000142"),
      sample("MemberList", AdminBody(MemberList{{"A", "B"}}),
             "040000000200000001410000000142"),
      sample("Notice", AdminBody(Notice{"n"}),
             "05000000016e"),
      sample("Expelled", AdminBody(Expelled{"x"}),
             "060000000178"),
      sample("KeyTreeAssign", AdminBody(KeyTreeAssign{9, 3}),
             "070000000900000003"),

      sample("LegacyAuthInit", LegacyAuthInitPayload{"A", "L", n(0x11)},
             "b10000000141000000014c11111111111111111111111111111111"),
      sample("LegacyAuthReply",
             LegacyAuthReplyPayload{"L", "A", n(0x11), n(0x22),
                                    filled<crypto::SessionKey>(0x33), iv,
                                    filled<crypto::GroupKey>(0x77), 5},
             "b2000000014c000000014111111111111111111111111111111111222222"
             "222222222222222222222222223333333333333333333333333333333333"
             "333333333333333333333333333333000000109999999999999999999999"
             "999999999977777777777777777777777777777777777777777777777777"
             "777777777777770000000000000005"),
      sample("LegacyAuthAck", LegacyAuthAckPayload{n(0x22)},
             "b322222222222222222222222222222222"),
      sample("LegacyNewKey",
             LegacyNewKeyPayload{filled<crypto::GroupKey>(0x77), iv, 6},
             "b47777777777777777777777777777777777777777777777777777777777"
             "777777000000109999999999999999999999999999999900000000000000"
             "06"),
      sample("LegacyNewKeyAck",
             LegacyNewKeyAckPayload{filled<crypto::GroupKey>(0x77)},
             "b57777777777777777777777777777777777777777777777777777777777"
             "777777"),
      sample("LegacyMembership", LegacyMembershipPayload{"B"},
             "b60000000142"),

      sample("ReplDelta",
             ReplDeltaPayload{3, 4, ReplDeltaKind::credential_add, "B",
                              filled<crypto::LongTermKey>(0x88)},
             "b10000000000000003000000000000000401000000014288888888888888"
             "88888888888888888888888888888888888888888888888888", {17}),
      sample("ReplSnapshot", ReplSnapshotPayload{3, 4, to_bytes("snap")},
             "b20000000000000003000000000000000400000004736e6170"),
      sample("ReplAck", ReplAckPayload{4, 3, true, false},
             "b3000000000000000400000000000000030100", {17, 18}),
      sample("ReplHeartbeat", ReplHeartbeatPayload{3, 4},
             "b400000000000000030000000000000004"),

      sample("ReconcileOffer",
             ReconcileOfferPayload{"A", "L", n(0x11), 3, 2, tag(0xAA)},
             "c10000000141000000014c11111111111111111111111111111111000000"
             "00000000030000000000000002aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
             "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
      sample("ReconcileVerdict",
             ReconcileVerdictPayload{"L", "A", n(0x11),
                                     ReconcileVerdictKind::admit, 4, 1},
             "c2000000014c000000014111111111111111111111111111111111010000"
             "0000000000040000000000000001", {27}),
      sample("OpReplay",
             OpReplayPayload{"A", 1, 3, tag(0xBB), to_bytes("op")},
             "c3000000014100000000000000010000000000000003bbbbbbbbbbbbbbbb"
             "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb000000026f70"),

      sample("KeyTreeNodeKek",
             KeyTreeNodeKek{2, 5, filled<crypto::GroupKey>(0x77)},
             "600000000200000000000000057777777777777777777777777777777777"
             "777777777777777777777777777777"),
      sample("KeyTreeUpdate",
             KeyTreeUpdatePayload{"L", 5, KeyTreeReason::join, 2,
                                  {{2, 4, to_bytes("e1")},
                                   {1, 2, to_bytes("e2")}},
                                  tag(0xCC)},
             "61000000014c000000000000000501000000020000000200000002000000"
             "040000000265310000000100000002000000026532cccccccccccccccccc"
             "cccccccccccccccccccccccccccccccccccccccccccccc", {14}),
      sample("KeyTreeRecover", KeyTreeRecoverPayload{"A", "L", n(0x11), 4},
             "620000000141000000014c11111111111111111111111111111111000000"
             "0000000004"),
      sample("KeyTreePath",
             KeyTreePathPayload{"L", "A", n(0x11), 5, 4,
                                {{2, 5, filled<crypto::GroupKey>(0x21)},
                                 {1, 5, filled<crypto::GroupKey>(0x31)}},
                                tag(0xDD)},
             "63000000014c000000014111111111111111111111111111111111000000"
             "000000000500000004000000020000000200000000000000052121212121"
             "212121212121212121212121212121212121212121212121212121000000"
             "010000000000000005313131313131313131313131313131313131313131"
             "3131313131313131313131dddddddddddddddddddddddddddddddddddddd"
             "dddddddddddddddddddddddddd"),

      sample("FedRedirect", FedRedirectPayload{"g", "s0", "s1/g", 2},
             "c100000001670000000273300000000473312f670000000000000002"),
      sample("FedMigrateOffer",
             FedMigrateOfferPayload{"g", "s0", "s1", 7, 3, 2,
                                    to_bytes("snap")},
             "c20000000167000000027330000000027331000000000000000700000000"
             "00000003000000000000000200000004736e6170"),
      sample("FedMigrateAck",
             FedMigrateAckPayload{"g", 7, FedMigrateVerdict::accept, 1003},
             "c3000000016700000000000000070100000000000003eb", {14}),
      sample("FedMigrateCommit", FedMigrateCommitPayload{"g", 7, 3},
             "c4000000016700000000000000070000000000000003"),
      sample("FedDirSync", FedDirSyncPayload{"g", "s1", 3},
             "c500000001670000000273310000000000000003"),

      sample("Envelope",
             Envelope{Label::AdminMsg, "L", "A", to_bytes("body")},
             "04000000014c000000014100000004626f6479"),

      sample("Chat", app::ChatMessage{app::ChatKind::text, "A", "hi", 1},
             "c40100000001410000000000000001000000026869",
             {1}),
      sample("StateUpdate",
             StateMessage(app::StateUpdate{
                 "k", app::Entry{"v", app::Version{2, "A"}, false}}),
             "d1000000016b00000001760000000000000002000000014100", {24}),
      sample("SnapshotRequest", StateMessage(app::SnapshotRequest{}),
             "d2"),
      sample("SnapshotReply",
             StateMessage(app::SnapshotReply{{app::StateUpdate{
                 "k", app::Entry{"v", app::Version{2, "A"}, true}}}}),
             "d300000001000000016b00000001760000000000000002000000014101", {28}),
      sample("FileOffer",
             FileMessage(app::FileOffer{1, "f", 3, 1, tag(0xEE)}),
             "e100000000000000010000000166000000000000000300000001eeeeeeee"
             "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"),
      sample("FileChunk", FileMessage(app::FileChunk{1, 0, to_bytes("abc")}),
             "e200000000000000010000000000000003616263"),
  };
}

TEST(WireCharacterisation, EncodingsArePinned) {
  for (const auto& s : all_samples())
    EXPECT_EQ(to_hex(s.encoded), s.hex) << s.name;
}

TEST(WireCharacterisation, SamplesRoundTrip) {
  for (const auto& s : all_samples())
    EXPECT_TRUE(s.round_trips(s.encoded)) << s.name;
}

TEST(WireCharacterisation, EveryProperPrefixIsTruncated) {
  for (const auto& s : all_samples()) {
    for (std::size_t len = 0; len < s.encoded.size(); ++len)
      EXPECT_EQ(s.code({s.encoded.data(), len}), Errc::truncated)
          << s.name << " len=" << len;
  }
}

TEST(WireCharacterisation, AppendedByteIsMalformed) {
  for (const auto& s : all_samples()) {
    for (std::uint8_t extra : {0x00, 0x01, 0xFF}) {
      Bytes raw = s.encoded;
      raw.push_back(extra);
      EXPECT_EQ(s.code(raw), Errc::malformed) << s.name;
    }
  }
}

TEST(WireCharacterisation, WrongLeadingOctetIsMalformed) {
  for (const auto& s : all_samples()) {
    for (std::uint8_t lead : {0x00, 0xFF}) {
      Bytes raw = s.encoded;
      raw[0] = lead;
      EXPECT_EQ(s.code(raw), Errc::malformed) << s.name;
    }
  }
}

TEST(WireCharacterisation, OutOfRangeEnumOrBoolIsMalformed) {
  int checked = 0;
  for (const auto& s : all_samples()) {
    for (std::size_t at : s.octets) {
      ASSERT_LT(at, s.encoded.size()) << s.name;
      ASSERT_LE(s.encoded[at], 1u) << s.name << " @" << at;
      for (std::uint8_t bad : {0x00, 0x02, 0x07, 0x7F, 0xFF}) {
        Bytes raw = s.encoded;
        raw[at] = bad;
        const Errc code = s.code(raw);
        // 0 is a valid bool; 2 is a valid value of most enums.
        if (code == Errc::ok) continue;
        EXPECT_EQ(code, Errc::malformed) << s.name << " @" << at;
        ++checked;
      }
      Bytes raw = s.encoded;
      raw[at] = 0xFF;
      EXPECT_EQ(s.code(raw), Errc::malformed) << s.name << " @" << at;
    }
  }
  EXPECT_GT(checked, 30);
}

// The caps a forged count or length runs into, each with the parent's code.
Bytes member_list(std::uint32_t count) {
  Writer w;
  w.u8(4);  // MemberList tag
  w.u32(count);
  return std::move(w).take();
}

Bytes keytree_update(std::uint32_t depth, std::uint32_t count) {
  Writer w;
  w.u8(0x61);
  w.str("L");
  w.u64(5);
  w.u8(1);  // KeyTreeReason::join
  w.u32(depth);
  w.u32(count);
  return std::move(w).take();
}

Bytes keytree_path(std::uint32_t count) {
  Writer w;
  w.u8(0x63);
  w.str("L");
  w.str("A");
  w.raw(n(0x11).view());
  w.u64(5);
  w.u32(4);
  w.u32(count);
  return std::move(w).take();
}

TEST(WireCharacterisation, CapsKeepTheirCodes) {
  EXPECT_EQ(decode<AdminBody>(member_list((1u << 16) + 1)).code(),
            Errc::oversized);
  EXPECT_EQ(decode<AdminBody>(member_list(1u << 16)).code(),
            Errc::truncated);

  EXPECT_EQ(decode<KeyTreeUpdatePayload>(keytree_update(20, (1u << 21) + 1))
                .code(),
            Errc::oversized);
  EXPECT_EQ(decode<KeyTreeUpdatePayload>(keytree_update(20, 1u << 21)).code(),
            Errc::truncated);
  EXPECT_EQ(decode<KeyTreeUpdatePayload>(keytree_update(21, 0)).code(),
            Errc::oversized);
  EXPECT_EQ(decode<KeyTreePathPayload>(keytree_path(22)).code(),
            Errc::oversized);
  EXPECT_EQ(decode<KeyTreePathPayload>(keytree_path(21)).code(),
            Errc::truncated);

  for (std::size_t len : {0u, 15u, 17u}) {
    const Bytes iv(len, 0x99);
    LegacyAuthReplyPayload reply{"L", "A", n(1), n(2),
                                 filled<crypto::SessionKey>(3), iv,
                                 filled<crypto::GroupKey>(4), 5};
    EXPECT_EQ(decode<LegacyAuthReplyPayload>(wire::encode(reply)).code(),
              Errc::malformed);
    LegacyNewKeyPayload key{filled<crypto::GroupKey>(4), iv, 6};
    EXPECT_EQ(decode<LegacyNewKeyPayload>(wire::encode(key)).code(),
              Errc::malformed);
  }

  Writer reply;
  reply.u8(0xD3);  // SnapshotReply tag
  reply.u32((1u << 16) + 1);
  EXPECT_EQ(decode<app::StateMessage>(reply.bytes()).code(), Errc::oversized);

  Bytes offer = wire::encode(app::FileMessage(
      app::FileOffer{1, "f", 3, (1u << 20) + 1, tag(0xEE)}));
  EXPECT_EQ(decode<app::FileMessage>(offer).code(), Errc::oversized);

  Writer huge;
  huge.u8(0xA7);  // GroupData
  huge.u32(kMaxFieldLen + 1);
  EXPECT_EQ(decode<GroupDataPayload>(huge.bytes()).code(), Errc::oversized);
}

TEST(WireCharacterisation, AdminChecksOuterEndBeforeTheBody) {
  // The body is a truncated MemberJoined; the outer payload also carries a
  // trailing byte. The outer end check comes first.
  Writer w;
  w.u8(0xA4);
  w.str("L");
  w.str("A");
  w.raw(n(1).view());
  w.raw(n(2).view());
  w.var_bytes(Bytes{2});
  EXPECT_EQ(decode<AdminPayload>(w.bytes()).code(), Errc::truncated);
  Bytes trailing = w.bytes();
  trailing.push_back(0);
  EXPECT_EQ(decode<AdminPayload>(trailing).code(), Errc::malformed);

  Writer unknown;
  unknown.u8(0xA4);
  unknown.str("L");
  unknown.str("A");
  unknown.raw(n(1).view());
  unknown.raw(n(2).view());
  unknown.var_bytes(Bytes{0x77});
  EXPECT_EQ(decode<AdminPayload>(unknown.bytes()).code(), Errc::malformed);
}

}  // namespace
}  // namespace enclaves::wire
