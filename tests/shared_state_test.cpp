// SharedState: codec, LWW convergence, tombstones, snapshots for late
// joiners, hostile-payload tolerance.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "app/shared_state.h"
#include "core/leader.h"
#include "net/sim_network.h"
#include "util/rng.h"

namespace enclaves::app {
namespace {

TEST(StateCodec, UpdateRoundTrip) {
  StateUpdate u{"color", Entry{"blue", Version{7, "alice"}, false}};
  auto back = wire::decode<StateMessage>(wire::encode(u));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<StateUpdate>(*back), u);
}

TEST(StateCodec, TombstoneRoundTrip) {
  StateUpdate u{"gone", Entry{{}, Version{3, "bob"}, true}};
  auto back = wire::decode<StateMessage>(wire::encode(u));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(std::get<StateUpdate>(*back).entry.tombstone);
}

TEST(StateCodec, SnapshotRoundTrip) {
  SnapshotReply reply{{
      {"a", Entry{"1", Version{1, "x"}, false}},
      {"b", Entry{"", Version{2, "y"}, true}},
  }};
  auto back = wire::decode<StateMessage>(wire::encode(reply));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::get<SnapshotReply>(*back), reply);
  auto req = wire::decode<StateMessage>(wire::encode(SnapshotRequest{}));
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE(std::holds_alternative<SnapshotRequest>(*req));
}

TEST(StateCodec, GarbageRejected) {
  EXPECT_FALSE(wire::decode<StateMessage>(to_bytes("nope")).ok());
  EXPECT_FALSE(wire::decode<StateMessage>({}).ok());
}

TEST(VersionOrder, LamportWithAuthorTieBreak) {
  EXPECT_TRUE((Version{1, "z"} < Version{2, "a"}));
  EXPECT_TRUE((Version{2, "a"} < Version{2, "b"}));
  EXPECT_FALSE((Version{2, "b"} < Version{2, "b"}));
}

struct StateWorld {
  explicit StateWorld(std::uint64_t seed)
      : rng(seed),
        leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()}, rng) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  SharedState& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader.register_member(id, pa).ok());
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    auto state = std::make_unique<SharedState>(*raw);
    auto* state_raw = state.get();
    members[id] = std::move(m);
    states[id] = std::move(state);
    EXPECT_TRUE(raw->join().ok());
    net.run();
    return *state_raw;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  core::Leader leader;
  std::map<std::string, std::unique_ptr<core::Member>> members;
  std::map<std::string, std::unique_ptr<SharedState>> states;
};

TEST(SharedState, WritesReplicateToEveryone) {
  StateWorld w(1);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  auto& carol = w.add("carol");
  ASSERT_TRUE(alice.set("topic", "design review").ok());
  w.net.run();
  for (auto* s : {&alice, &bob, &carol}) {
    EXPECT_EQ(s->get("topic"), "design review");
    EXPECT_EQ(s->keys(), std::vector<std::string>{"topic"});
  }
}

TEST(SharedState, LastWriterWinsConverges) {
  StateWorld w(2);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.set("k", "from-alice").ok());
  w.net.run();
  ASSERT_TRUE(bob.set("k", "from-bob").ok());
  w.net.run();
  EXPECT_EQ(alice.get("k"), "from-bob");
  EXPECT_EQ(bob.get("k"), "from-bob");
}

TEST(SharedState, ConcurrentWritesConvergeDeterministically) {
  StateWorld w(3);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  // Both write before either delivery: same clock, author tie-break.
  ASSERT_TRUE(alice.set("k", "A").ok());
  ASSERT_TRUE(bob.set("k", "B").ok());
  w.net.run();
  ASSERT_EQ(alice.get("k"), bob.get("k")) << "must converge";
  EXPECT_EQ(*alice.get("k"), "B") << "higher author id wins the tie";
}

TEST(SharedState, EraseTombstonesEverywhere) {
  StateWorld w(4);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.set("tmp", "x").ok());
  w.net.run();
  ASSERT_TRUE(bob.erase("tmp").ok());
  w.net.run();
  EXPECT_FALSE(alice.contains("tmp"));
  EXPECT_FALSE(bob.contains("tmp"));
  EXPECT_EQ(alice.size(), 0u);
  // A STALE re-write with an older clock must not resurrect the key on
  // arrival order alone: alice writes with a fresh clock, so it returns.
  ASSERT_TRUE(alice.set("tmp", "back").ok());
  w.net.run();
  EXPECT_EQ(bob.get("tmp"), "back");
}

TEST(SharedState, LateJoinerCatchesUpViaSnapshot) {
  StateWorld w(5);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.set("a", "1").ok());
  ASSERT_TRUE(alice.set("b", "2").ok());
  ASSERT_TRUE(alice.erase("a").ok());
  w.net.run();

  auto& dave = w.add("dave");  // joins after the writes
  EXPECT_TRUE(dave.keys().empty()) << "missed the history";
  ASSERT_TRUE(dave.request_snapshot().ok());
  w.net.run();
  EXPECT_EQ(dave.get("b"), "2");
  EXPECT_FALSE(dave.contains("a")) << "tombstones propagate in snapshots";
}

TEST(SharedState, OnChangeFiresForRemoteUpdatesOnly) {
  StateWorld w(6);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  std::vector<std::string> changed;
  bob.on_change = [&changed](const std::string& key) {
    changed.push_back(key);
  };
  ASSERT_TRUE(alice.set("x", "1").ok());
  w.net.run();
  ASSERT_TRUE(bob.set("y", "2").ok());  // own write: no on_change
  w.net.run();
  EXPECT_EQ(changed, std::vector<std::string>{"x"});
}

TEST(SharedState, DuplicateDeliveryIsIdempotent) {
  StateWorld w(7);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  int changes = 0;
  bob.on_change = [&changes](const std::string&) { ++changes; };
  ASSERT_TRUE(alice.set("k", "v").ok());
  w.net.run();
  // Simulate an app-level duplicate: apply the same snapshot twice.
  ASSERT_TRUE(alice.request_snapshot().ok());
  w.net.run();
  ASSERT_TRUE(alice.request_snapshot().ok());
  w.net.run();
  EXPECT_EQ(changes, 1) << "LWW absorbs replays/duplicates";
  EXPECT_EQ(bob.get("k"), "v");
}

TEST(SharedState, HostilePayloadsCounted) {
  StateWorld w(8);
  w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(w.members["alice"]->send_data(to_bytes("junk bytes")).ok());
  w.net.run();
  EXPECT_EQ(bob.decode_failures(), 1u);
  EXPECT_TRUE(bob.keys().empty());
}

TEST(SharedState, ManyKeysManyWritersConverge) {
  StateWorld w(9);
  std::vector<SharedState*> all;
  for (const char* id : {"m0", "m1", "m2", "m3"}) all.push_back(&w.add(id));
  DeterministicRng script(99);
  for (int step = 0; step < 120; ++step) {
    auto* s = all[script.below(all.size())];
    std::string key = "k" + std::to_string(script.below(8));
    if (script.below(5) == 0) {
      (void)s->erase(key);
    } else {
      (void)s->set(key, "v" + std::to_string(step));
    }
    if (script.below(3) == 0) w.net.run();
  }
  w.net.run();
  for (std::size_t i = 1; i < all.size(); ++i) {
    ASSERT_EQ(all[i]->keys(), all[0]->keys()) << "key sets diverged";
    for (const auto& k : all[0]->keys())
      EXPECT_EQ(all[i]->get(k), all[0]->get(k)) << k;
  }
}

}  // namespace
}  // namespace enclaves::app
