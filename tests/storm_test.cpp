// Randomized-adversary property tests: under storms of replays, redirects,
// mutations, and fabrications, the intrusion-tolerant protocol's observable
// state must remain exactly what the honest run produces — the §3.1
// requirements as a fuzz-style property.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "adversary/storm.h"
#include "core/leader.h"
#include "core/member.h"
#include "net/sim_network.h"
#include "util/rng.h"

namespace enclaves::adversary {
namespace {

struct World {
  explicit World(std::uint64_t seed)
      : rng(seed),
        leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()}, rng) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  core::Member& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader.register_member(id, pa).ok());
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
    return *raw;
  }

  net::SimNetwork net;
  DeterministicRng rng;
  core::Leader leader;
  std::map<std::string, std::unique_ptr<core::Member>> members;
};

class Storm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Storm, EstablishedGroupSurvivesStormUnchanged) {
  World w(GetParam());
  for (const char* id : {"alice", "bob", "carol"}) {
    auto& m = w.add(id);
    ASSERT_TRUE(m.join().ok());
    w.net.run();
    ASSERT_TRUE(m.connected());
  }

  // Snapshot of the honest state.
  const auto members_before = w.leader.members();
  const auto epoch_before = w.leader.epoch();
  std::map<std::string, std::uint64_t> rcv_before;
  for (const auto& [id, m] : w.members) rcv_before[id] = m->rcv_count();

  DeterministicRng attacker_rng(GetParam() ^ 0x570);
  StormAttacker storm(w.net, attacker_rng,
                      {"L", "alice", "bob", "carol"});
  storm.storm(2000);
  w.net.run(1u << 20);

  // NOTHING observable moved.
  EXPECT_EQ(w.leader.members(), members_before);
  EXPECT_EQ(w.leader.epoch(), epoch_before);
  for (const auto& [id, m] : w.members) {
    EXPECT_TRUE(m->connected()) << id;
    EXPECT_EQ(m->epoch(), epoch_before) << id;
    EXPECT_EQ(m->view(), members_before) << id;
    EXPECT_EQ(m->rcv_count(), rcv_before[id]) << id;
  }
  EXPECT_EQ(storm.stats().total(), 2000u);
}

TEST_P(Storm, GroupStaysFunctionalDuringInterleavedStorm) {
  World w(GetParam() ^ 1);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(bob.join().ok());
  w.net.run();

  std::vector<std::string> bob_inbox;
  bob.set_event_handler([&bob_inbox](const core::GroupEvent& ev) {
    if (const auto* d = std::get_if<core::DataReceived>(&ev))
      bob_inbox.push_back(enclaves::to_string(d->payload));
  });

  DeterministicRng attacker_rng(GetParam() ^ 0x571);
  StormAttacker storm(w.net, attacker_rng, {"L", "alice", "bob"});

  // Alternate: hostile burst, then honest traffic — which must go through
  // exactly once, in order.
  for (int i = 0; i < 10; ++i) {
    storm.storm(100);
    ASSERT_TRUE(alice.send_data(to_bytes("msg " + std::to_string(i))).ok());
    w.net.run(1u << 20);
  }
  storm.storm(200);
  w.net.run(1u << 20);
  w.leader.rekey();  // management must still work mid-storm
  w.net.run(1u << 20);

  ASSERT_EQ(bob_inbox.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(bob_inbox[static_cast<size_t>(i)],
              "msg " + std::to_string(i));
  EXPECT_EQ(bob.epoch(), w.leader.epoch());
  EXPECT_TRUE(alice.connected() && bob.connected());
}

TEST_P(Storm, JoinSucceedsThroughStorm) {
  // A storm raging during the handshake must not stop a legitimate join
  // (the attacker cannot forge a denial — only delay packets it does not
  // control here).
  World w(GetParam() ^ 2);
  auto& alice = w.add("alice");
  DeterministicRng attacker_rng(GetParam() ^ 0x572);
  StormAttacker storm(w.net, attacker_rng, {"L", "alice"});

  storm.storm(50);  // pre-seed hostile noise
  ASSERT_TRUE(alice.join().ok());
  storm.storm(200);
  w.net.run(1u << 20);
  storm.storm(200);
  w.net.run(1u << 20);

  EXPECT_TRUE(alice.connected());
  EXPECT_TRUE(w.leader.is_member("alice"));
  EXPECT_EQ(alice.epoch(), w.leader.epoch());
}

TEST_P(Storm, GroupSurvivesStormOverReorderingTransport) {
  // Hostile storm AND an unreliable transport at the same time: the tap
  // duplicates and delays (= reorders) honest traffic while the attacker
  // replays and fabricates. Ticks drive the retransmission layer; the group
  // must still converge with nothing delivered twice or out of order.
  World w(GetParam() ^ 3);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(bob.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected() && bob.connected());

  std::vector<std::uint64_t> bob_data;
  bob.set_event_handler([&bob_data](const core::GroupEvent& ev) {
    if (const auto* d = std::get_if<core::DataReceived>(&ev))
      bob_data.push_back(std::stoull(enclaves::to_string(d->payload)));
  });

  DeterministicRng fault_rng(GetParam() ^ 0x574);
  w.net.set_tap([&fault_rng](const net::Packet&) {
    const auto roll = fault_rng.below(100);
    if (roll < 15) return net::TapDecision{net::TapVerdict::duplicate};
    if (roll < 30)
      return net::TapDecision{
          net::TapVerdict::delay,
          1 + static_cast<std::uint32_t>(fault_rng.below(4))};
    return net::TapDecision{net::TapVerdict::deliver};
  });

  DeterministicRng attacker_rng(GetParam() ^ 0x575);
  StormAttacker storm(w.net, attacker_rng, {"L", "alice", "bob"});
  auto step = [&w] {
    w.net.run(1u << 20);
    w.leader.tick();
    for (auto& [id, m] : w.members) m->tick();
    w.net.run(1u << 20);
  };

  for (std::uint64_t i = 0; i < 8; ++i) {
    storm.storm(100);
    ASSERT_TRUE(alice.send_data(to_bytes(std::to_string(i))).ok());
    w.leader.broadcast_notice("s" + std::to_string(i));
    step();
  }
  w.leader.rekey();
  auto settled = [&w] {
    for (const auto& [id, m] : w.members) {
      const core::LeaderSession* s = w.leader.session(id);
      if (!s || s->state() != core::LeaderSession::State::connected ||
          s->queue_depth() != 0)
        return false;
      if (!m->connected() || m->epoch() != w.leader.epoch()) return false;
    }
    return true;
  };
  for (int t = 0; t < 400 && !settled(); ++t) step();
  EXPECT_TRUE(settled());

  // Reordering may force data rejections (per-origin sequence floor), but
  // whatever got through is strictly increasing — no duplicate, no reorder.
  EXPECT_FALSE(bob_data.empty());
  for (std::size_t i = 1; i < bob_data.size(); ++i)
    EXPECT_LT(bob_data[i - 1], bob_data[i]) << "at " << i;

  // And the admin channel delivered every notice exactly once, in order.
  std::vector<std::string> notices;
  for (const auto& body : bob.rcv_log()) {
    if (const auto* n = std::get_if<wire::Notice>(&body))
      notices.push_back(n->text);
  }
  std::vector<std::string> expect;
  for (std::uint64_t i = 0; i < 8; ++i)
    expect.push_back("s" + std::to_string(i));
  EXPECT_EQ(notices, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Storm,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

}  // namespace
}  // namespace enclaves::adversary
