// GroupChat application layer: typed messages, presence, history bounds,
// hostile-payload tolerance, roster tracking.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "app/group_chat.h"
#include "core/leader.h"
#include "net/sim_network.h"
#include "util/rng.h"
#include "wire/seal.h"

namespace enclaves::app {
namespace {

TEST(ChatCodec, RoundTripText) {
  ChatMessage m{ChatKind::text, "alice", "hello there", 7};
  auto back = wire::decode<ChatMessage>(wire::encode(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

TEST(ChatCodec, RoundTripPresence) {
  ChatMessage m{ChatKind::presence, "bob", "away", 0};
  auto back = wire::decode<ChatMessage>(wire::encode(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, m);
}

TEST(ChatCodec, RejectsGarbage) {
  EXPECT_FALSE(wire::decode<ChatMessage>(to_bytes("not a chat message")).ok());
  EXPECT_FALSE(wire::decode<ChatMessage>({}).ok());
  Bytes bad_kind = wire::encode(ChatMessage{ChatKind::text, "a", "b", 0});
  bad_kind[1] = 0x7F;
  EXPECT_FALSE(wire::decode<ChatMessage>(bad_kind).ok());
}

struct ChatWorld {
  explicit ChatWorld(std::uint64_t seed)
      : rng(seed),
        leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()}, rng) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  GroupChat& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader.register_member(id, pa).ok());
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    auto chat = std::make_unique<GroupChat>(*raw);
    auto* chat_raw = chat.get();
    members[id] = std::move(m);
    chats[id] = std::move(chat);
    EXPECT_TRUE(raw->join().ok());
    net.run();
    return *chat_raw;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  core::Leader leader;
  std::map<std::string, std::unique_ptr<core::Member>> members;
  std::map<std::string, std::unique_ptr<GroupChat>> chats;
};

TEST(GroupChat, PostReachesEveryoneInOrder) {
  ChatWorld w(1);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  auto& carol = w.add("carol");

  ASSERT_TRUE(alice.post("one").ok());
  w.net.run();
  ASSERT_TRUE(bob.post("two").ok());
  w.net.run();
  ASSERT_TRUE(alice.post("three").ok());
  w.net.run();

  // Everyone (author included, via local echo) sees the same history.
  for (auto* chat : {&alice, &bob, &carol}) {
    ASSERT_EQ(chat->history().size(), 3u);
    EXPECT_EQ(chat->history()[0].content, "one");
    EXPECT_EQ(chat->history()[1].content, "two");
    EXPECT_EQ(chat->history()[2].content, "three");
    EXPECT_EQ(chat->history()[0].author, "alice");
    EXPECT_EQ(chat->history()[1].author, "bob");
  }
}

TEST(GroupChat, PresencePropagatesAndFollowsRoster) {
  ChatWorld w(2);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");

  ASSERT_TRUE(alice.set_presence("reviewing the paper").ok());
  w.net.run();
  ASSERT_EQ(bob.presence().count("alice"), 1u);
  EXPECT_EQ(bob.presence().at("alice"), "reviewing the paper");

  // Alice leaves; her presence entry disappears from bob's map when the
  // authenticated roster update arrives.
  ASSERT_TRUE(w.members["alice"]->leave().ok());
  w.net.run();
  EXPECT_EQ(bob.presence().count("alice"), 0u);
  EXPECT_EQ(bob.roster(), std::vector<std::string>{"bob"});
}

TEST(GroupChat, RosterTracksMembershipNotClaims) {
  ChatWorld w(3);
  auto& alice = w.add("alice");
  w.add("bob");
  EXPECT_EQ(alice.roster(), (std::vector<std::string>{"alice", "bob"}));
}

TEST(GroupChat, HistoryIsBounded) {
  ChatWorld w(4);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  (void)bob;
  // Default capacity 256; overflow it.
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(alice.post("line " + std::to_string(i)).ok());
    w.net.run();
  }
  EXPECT_EQ(alice.history().size(), 256u);
  EXPECT_EQ(alice.history().front().content, "line 44");
  EXPECT_EQ(alice.history().back().content, "line 299");
}

TEST(GroupChat, PostWhileDisconnectedFails) {
  net::SimNetwork net;
  DeterministicRng rng(5);
  auto pa = crypto::LongTermKey::random(rng);
  core::Member loner("loner", "L", pa, rng);
  GroupChat chat(loner);
  auto s = chat.post("anyone?");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::unexpected);
}

TEST(GroupChat, HostilePayloadsCountedNotCrashing) {
  ChatWorld w(6);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  (void)alice;

  // A member (insider) ships raw non-chat bytes through the data plane.
  ASSERT_TRUE(w.members["alice"]->send_data(to_bytes("RAW GARBAGE")).ok());
  w.net.run();
  EXPECT_EQ(bob.decode_failures(), 1u);
  EXPECT_TRUE(bob.history().empty());

  // An insider forging the AUTHOR field inside the payload: the data-plane
  // origin check flags the mismatch.
  ChatMessage forged{ChatKind::text, "bob", "I never said this", 0};
  ASSERT_TRUE(w.members["alice"]->send_data(wire::encode(forged)).ok());
  w.net.run();
  EXPECT_EQ(bob.decode_failures(), 2u);
  EXPECT_TRUE(bob.history().empty());
}

TEST(GroupChat, OnMessageHookFires) {
  ChatWorld w(7);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  std::vector<std::string> seen;
  bob.on_message = [&seen](const ChatMessage& m) {
    seen.push_back(m.author + ":" + m.content);
  };
  ASSERT_TRUE(alice.post("ping").ok());
  ASSERT_TRUE(alice.set_presence("busy").ok());
  w.net.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "alice:ping");
  EXPECT_EQ(seen[1], "alice:busy");
}

TEST(GroupChat, PassthroughForwardsCoreEvents) {
  ChatWorld w(8);
  auto& alice = w.add("alice");
  int views = 0;
  alice.set_event_passthrough([&views](const core::GroupEvent& ev) {
    if (std::holds_alternative<core::ViewChanged>(ev)) ++views;
  });
  w.add("bob");
  EXPECT_GT(views, 0);
}

TEST(GroupChat, SurvivesRekeyMidConversation) {
  ChatWorld w(9);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.post("before").ok());
  w.net.run();
  w.leader.rekey();
  w.net.run();
  ASSERT_TRUE(alice.post("after").ok());
  w.net.run();
  ASSERT_EQ(bob.history().size(), 2u);
  EXPECT_EQ(bob.history()[1].content, "after");
}

}  // namespace
}  // namespace enclaves::app
