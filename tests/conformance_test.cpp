// Model-based conformance testing: the CONCRETE MemberSession/LeaderSession
// pair is driven through thousands of randomized schedules — out-of-order
// delivery, replays of every message ever sent, spontaneous joins, admin
// pushes, and closes — and after every single step the abstraction
// invariants verified on the SYMBOLIC model are checked on the concrete
// state:
//
//   - the joint (member, leader) state stays within the 11 reachable
//     structural shapes of Figure 4 (never Connected/NotConnected);
//   - when both sides are Connected they hold the SAME session key
//     (the paper's agreement property);
//   - the member's accepted-admin list is a prefix of the leader's sent
//     list (in-order, no-duplicate delivery, §5.4);
//   - the leader never acknowledges more sessions than the member opened
//     (proper authentication, counting form).
//
// This closes the loop between the verified model and the shipped code.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "core/leader_session.h"
#include "core/member_session.h"
#include "util/rng.h"
#include "wire/admin_body.h"

namespace enclaves::core {
namespace {

struct Driver {
  explicit Driver(std::uint64_t seed)
      : rng(seed),
        schedule(seed ^ 0xC0),
        pa(crypto::LongTermKey::random(rng)),
        member("alice", "L", pa, rng),
        leader("L", "alice", pa, rng) {}

  void out_to_leader(wire::Envelope e) {
    history.push_back(e);
    to_leader.push_back(std::move(e));
  }
  void out_to_member(wire::Envelope e) {
    history.push_back(e);
    to_member.push_back(std::move(e));
  }

  // Picks and removes a random in-flight envelope (out-of-order network).
  template <typename Q>
  wire::Envelope take_random(Q& queue) {
    std::size_t i = schedule.below(queue.size());
    wire::Envelope e = std::move(queue[i]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
    return e;
  }

  void deliver_to_leader() {
    if (to_leader.empty()) return;
    auto outcome = leader.handle(take_random(to_leader));
    if (outcome && outcome->reply) out_to_member(*std::move(outcome->reply));
  }

  void deliver_to_member() {
    if (to_member.empty()) return;
    auto outcome = member.handle(take_random(to_member));
    if (outcome && outcome->reply) out_to_leader(*std::move(outcome->reply));
  }

  void replay_random() {
    if (history.empty()) return;
    const wire::Envelope& e = history[schedule.below(history.size())];
    // Replays go wherever the schedule feels like.
    if (schedule.below(2) == 0) {
      auto outcome = leader.handle(e);
      if (outcome && outcome->reply) out_to_member(*std::move(outcome->reply));
    } else {
      auto outcome = member.handle(e);
      if (outcome && outcome->reply) out_to_leader(*std::move(outcome->reply));
    }
  }

  void step() {
    switch (schedule.below(10)) {
      case 0: {  // member tries to join
        auto env = member.start_join();
        if (env) {
          ++joins;
          out_to_leader(*std::move(env));
        }
        break;
      }
      case 1: {  // member tries to leave
        auto env = member.request_close();
        if (env) out_to_leader(*std::move(env));
        break;
      }
      case 2: {  // leader pushes an admin message
        if (auto env = leader.submit_admin(
                wire::Notice{"n" + std::to_string(admin_counter++)}))
          out_to_member(*std::move(env));
        break;
      }
      case 3:
      case 4:
      case 5:
        deliver_to_leader();
        break;
      case 6:
      case 7:
      case 8:
        deliver_to_member();
        break;
      default:
        replay_random();
        break;
    }
    shapes.insert({static_cast<int>(member.state()),
                   static_cast<int>(leader.state())});
  }

  void check(std::uint64_t step_no) {
    using MS = MemberSession::State;
    using LS = LeaderSession::State;
    const MS ms = member.state();
    const LS ls = leader.state();

    // Figure 4: C/NC must be unreachable.
    ASSERT_FALSE(ms == MS::connected && ls == LS::not_connected)
        << "forbidden C/NC shape at step " << step_no;

    // Agreement + A-holds-key-implies-InUse.
    if (ms == MS::connected) {
      ASSERT_NE(ls, LS::not_connected) << "step " << step_no;
      ASSERT_TRUE(equal(member.session_key().view(),
                        leader.session_key().view()))
          << "session keys disagree at step " << step_no;
    }

    // rcv prefix of snd (compare encoded bodies). Both sides retain only a
    // window, so compare by absolute position over the retained overlap.
    const auto& rcv = member.rcv_log();
    const auto& snd = leader.snd_log();
    ASSERT_LE(member.rcv_count(), leader.snd_count()) << "step " << step_no;
    const std::uint64_t rcv_first = member.rcv_count() - rcv.size();
    const std::uint64_t snd_first = leader.snd_count() - snd.size();
    for (std::uint64_t i = std::max(rcv_first, snd_first);
         i < member.rcv_count(); ++i) {
      ASSERT_EQ(wire::encode(rcv[i - rcv_first]),
                wire::encode(snd[i - snd_first]))
          << "admin order/duplication broken at step " << step_no;
    }

    // Proper authentication (counting form).
    ASSERT_LE(leader.acked_count(), admin_counter) << "step " << step_no;
  }

  DeterministicRng rng;       // protocol randomness
  DeterministicRng schedule;  // adversarial scheduler
  crypto::LongTermKey pa;
  MemberSession member;
  LeaderSession leader;
  std::deque<wire::Envelope> to_member, to_leader;
  std::vector<wire::Envelope> history;
  std::uint64_t joins = 0;
  std::uint64_t admin_counter = 0;
  std::set<std::pair<int, int>> shapes;
};

class Conformance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Conformance, RandomScheduleUpholdsModelInvariants) {
  Driver d(GetParam());
  for (std::uint64_t i = 0; i < 3000; ++i) {
    d.step();
    d.check(i);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The schedule must actually exercise the protocol, not just no-op.
  EXPECT_GT(d.joins, 0u);
  EXPECT_GT(d.history.size(), 10u);
  EXPECT_GE(d.shapes.size(), 4u) << "schedule too tame";
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conformance,
                         ::testing::Range<std::uint64_t>(1, 17));

TEST(ConformanceShapes, AggregateShapesMatchModelReachability) {
  // Union over many seeds: every joint shape seen concretely must be one of
  // the shapes the symbolic exploration reached (the 11 structural combos;
  // C/NC excluded by construction of the check above).
  std::set<std::pair<int, int>> shapes;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Driver d(seed * 7919);
    for (int i = 0; i < 1500; ++i) {
      d.step();
    }
    for (auto s : d.shapes) shapes.insert(s);
  }
  using MS = MemberSession::State;
  using LS = LeaderSession::State;
  auto shape = [](MS m, LS l) {
    return std::pair<int, int>(static_cast<int>(m), static_cast<int>(l));
  };
  const std::set<std::pair<int, int>> allowed = {
      shape(MS::not_connected, LS::not_connected),
      shape(MS::waiting_for_key, LS::not_connected),
      shape(MS::waiting_for_key, LS::waiting_for_key_ack),
      shape(MS::connected, LS::waiting_for_key_ack),
      shape(MS::connected, LS::connected),
      shape(MS::connected, LS::waiting_for_ack),
      shape(MS::not_connected, LS::connected),
      shape(MS::not_connected, LS::waiting_for_ack),
      shape(MS::waiting_for_key, LS::connected),
      shape(MS::waiting_for_key, LS::waiting_for_ack),
      shape(MS::not_connected, LS::waiting_for_key_ack),
  };
  for (auto s : shapes) {
    EXPECT_TRUE(allowed.count(s))
        << "concrete run reached shape (" << s.first << "," << s.second
        << ") outside the model's reachable set";
  }
  // And the spine shapes must all be witnessed.
  for (auto s : allowed) {
    if (s == shape(MS::waiting_for_key, LS::waiting_for_ack)) continue;
    if (s == shape(MS::waiting_for_key, LS::connected)) continue;
    EXPECT_TRUE(shapes.count(s))
        << "shape (" << s.first << "," << s.second << ") never reached";
  }
}

}  // namespace
}  // namespace enclaves::core
