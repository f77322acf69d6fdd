// ChaosPartitionHeal: seeded partition/heal schedules against the
// reconciliation layer (PROTOCOL.md §12). Every run cuts one or more
// members away under a random loss/duplicate/delay plan, waits for leader
// suspicion + parole-expulsion and member disconnection, queues offline ops
// into the signed OpLog, heals, and asserts the merge: every queued op is
// delivered to every survivor exactly once and in order, the member
// fast-rejoins without a rekey storm, and the verdict/evidence stream
// reconciles with the injector's own statistics. A failing seed replays
// deterministically from (plan, seed).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/leader.h"
#include "core/member.h"
#include "net/fault.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/security.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace enclaves::core {
namespace {

struct PartitionChaosWorld {
  static constexpr int kMembers = 4;

  PartitionChaosWorld(std::uint64_t seed, net::FaultPlan plan)
      : rng(seed), injector(std::move(plan), seed ^ 0x9EA1) {
    net.set_tap(injector.tap());
    LeaderConfig config;
    config.id = "L";
    config.rekey = RekeyPolicy::strict();
    config.retry = RetryPolicy::exponential(1, 8, /*jitter=*/2);
    config.auto_expel_attempts = 8;
    config.parole_epochs = 6;
    leader = std::make_unique<Leader>(config, rng);
    leader->set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader->handle(e); });

    for (int i = 0; i < kMembers; ++i) {
      const std::string id = member_id(i);
      auto pa = crypto::LongTermKey::random(rng);
      EXPECT_TRUE(leader->register_member(id, pa).ok());
      auto m = std::make_unique<Member>(id, "L", pa, rng);
      m->set_send([this](const std::string& to, wire::Envelope e) {
        net.send(to, std::move(e));
      });
      m->set_retry_policy(RetryPolicy::exponential(1, 8, /*jitter=*/2));
      m->set_suspect_after(20);
      m->enable_auto_rejoin(RetryPolicy::exponential(2, 16, 3));
      m->enable_reconciliation(RetryPolicy::exponential(1, 8, /*jitter=*/2));
      auto* seqs = &delivered[id];
      auto* fold = &folded[id];
      auto* raw = m.get();
      m->set_event_handler([this, seqs, fold, raw](const GroupEvent& ev) {
        if (const auto* d = std::get_if<DataReceived>(&ev)) {
          const std::string s = enclaves::to_string(d->payload);
          auto at = s.find('#');
          if (at != std::string::npos)
            (*seqs)[d->origin].push_back(std::stoull(s.substr(at + 1)));
        } else if (const auto* v = std::get_if<ViewChanged>(&ev)) {
          // Fold the delta; a whole-view replacement re-anchors the fold
          // on the materialised view, as an application would.
          switch (v->kind) {
            case ViewChanged::Kind::joined: fold->insert(v->member); break;
            case ViewChanged::Kind::left: fold->erase(v->member); break;
            case ViewChanged::Kind::replaced: {
              const auto now = raw->view();
              fold->clear();
              fold->insert(now.begin(), now.end());
              break;
            }
          }
          if (fold->size() != v->size) ++fold_size_mismatches;
        }
      });
      net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
      members[id] = std::move(m);
    }
  }

  static std::string member_id(int i) { return "m" + std::to_string(i); }

  // One time step: heartbeat every 8 steps, drain, fire all timers, drain.
  void step() {
    if (step_count % 8 == 0) leader->probe_liveness();
    net.run(1u << 16);
    leader->tick();
    for (auto& [id, m] : members) m->tick();
    net.run(1u << 16);
    ++step_count;
  }

  bool converged() const {
    if (leader->member_count() != static_cast<std::size_t>(kMembers))
      return false;
    const auto expect = leader->members();
    for (const auto& [id, m] : members) {
      if (!m->connected() || m->disconnected()) return false;
      if (m->epoch() != leader->epoch() || m->view() != expect) return false;
    }
    return true;
  }

  bool settle(int max_steps = 4000) {
    for (int t = 0; t < max_steps; ++t) {
      if (converged() && net.queue_size() == 0 && net.held_size() == 0)
        return true;
      step();
    }
    return converged();
  }

  // End-state snapshot for failure messages.
  std::string debug_state() const {
    std::string out = "leader epoch=" + std::to_string(leader->epoch()) +
                      " members=" + std::to_string(leader->member_count()) +
                      " parole=" + std::to_string(leader->parole_count());
    for (const auto& [id, m] : members) {
      out += "\n  " + id + (m->connected() ? " connected" : " down") +
             (m->disconnected() ? " disconnected-mode" : "") +
             " epoch=" + std::to_string(m->epoch()) +
             " oplog=" + std::to_string(m->oplog_depth());
    }
    for (const char* name :
         {"reconcile_offers_total", "reconcile_admits_total",
          "reconcile_ops_replayed_total", "reconcile_quarantines_total",
          "reconcile_intrusions_total", "reconcile_abandons_total",
          "reconcile_fast_rejoins_total", "auth_rejects_total"})
      out += "\n  " + std::string(name) + "=" +
             std::to_string(metrics.counter_total(name));
    return out;
  }

  // Next payload number for `origin`, embedded as "origin#N" so trackers
  // can assert per-origin exactly-once in-order delivery end to end.
  Status publish(const std::string& origin) {
    auto& m = *members[origin];
    return m.send_data(
        to_bytes(origin + "#" + std::to_string(next_num[origin]++)));
  }

  // Sinks declared before the network so they attach first, detach last.
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  obs::SecurityLedger ledger;
  obs::ScopedMetricsSink metrics_sink{metrics};
  obs::ScopedTraceSink trace_sink{trace};
  obs::ScopedSecurityLedger ledger_sink{ledger};

  net::SimNetwork net;
  DeterministicRng rng;
  net::FaultInjector injector;
  std::unique_ptr<Leader> leader;
  std::map<std::string, std::unique_ptr<Member>> members;
  // delivered[receiver][origin] = payload numbers in arrival order
  std::map<std::string, std::map<std::string, std::vector<std::uint64_t>>>
      delivered;
  std::map<std::string, std::uint64_t> next_num;
  // folded[member] = the member's ViewChanged deltas folded into a view.
  std::map<std::string, std::set<std::string>> folded;
  std::uint64_t fold_size_mismatches = 0;
  std::uint64_t step_count = 0;
};

net::FaultPlan plan_for_seed(std::uint64_t seed) {
  net::FaultPlan plan;
  plan.faults.drop_pct = static_cast<std::uint32_t>((seed * 7) % 21);  // <=20%
  plan.faults.duplicate_pct = static_cast<std::uint32_t>((seed * 3) % 11);
  plan.faults.delay_pct = static_cast<std::uint32_t>((seed * 5) % 16);
  plan.faults.max_delay_steps = 1 + static_cast<std::uint32_t>(seed % 5);
  return plan;
}

constexpr int kWarmupRounds = 2;

// The payload numbers `receiver` saw from `origin` (empty if none).
std::vector<std::uint64_t> seen(const PartitionChaosWorld& w,
                                const std::string& receiver,
                                const std::string& origin) {
  auto it = w.delivered.find(receiver);
  if (it == w.delivered.end()) return {};
  auto ot = it->second.find(origin);
  return ot == it->second.end() ? std::vector<std::uint64_t>{} : ot->second;
}

// At-most-once, in-order: the numbers strictly increase. The data plane is
// fire-and-forget, so under a lossy plan gaps are legitimate — duplicates
// and reordering never are, replayed ops included.
void assert_no_dup_in_order(const PartitionChaosWorld& w,
                            const std::string& receiver,
                            const std::string& origin) {
  const auto seqs = seen(w, receiver, origin);
  for (std::size_t i = 1; i < seqs.size(); ++i) {
    ASSERT_LT(seqs[i - 1], seqs[i])
        << receiver << " got " << origin
        << " payloads duplicated or out of order at index " << i;
  }
}

// A plan that neither drops nor delays loses nothing (duplicates are
// absorbed by the per-origin sequence floor), so full delivery counts hold.
bool plan_is_lossless(const net::FaultPlan& plan) {
  return plan.faults.drop_pct == 0 && plan.faults.delay_pct == 0;
}

// Drives one member through the full partition/heal lifecycle and returns
// once the leader has expelled it onto parole and the member itself has
// entered disconnected mode.
void run_until_cut(PartitionChaosWorld& w, const std::set<std::string>& island,
                   int budget = 600) {
  w.injector.partition(std::set<net::AgentId>(island.begin(), island.end()));
  auto cut = [&] {
    for (const auto& id : island) {
      if (w.leader->is_member(id) || !w.leader->on_parole(id)) return false;
      if (!w.members.at(id)->disconnected()) return false;
    }
    return true;
  };
  for (int t = 0; t < budget && !cut(); ++t) w.step();
  ASSERT_TRUE(cut()) << "partitioned members were never expelled onto parole";
}

class ChaosPartitionHeal : public ::testing::TestWithParam<std::uint64_t> {};

// The flagship sweep: one member cut away, queues ops offline, heals, and
// the merge holds every delivery/rekey/evidence invariant.
TEST_P(ChaosPartitionHeal, SingleMemberHealReplaysExactlyOnce) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const net::FaultPlan plan = plan_for_seed(seed);
  PartitionChaosWorld w(seed, plan);

  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle()) << "join phase did not converge, seed=" << seed;

  // Connected warm-up traffic from everyone.
  for (int i = 0; i < kWarmupRounds; ++i) {
    for (int j = 0; j < PartitionChaosWorld::kMembers; ++j)
      ASSERT_TRUE(w.publish(PartitionChaosWorld::member_id(j)).ok());
    w.step();
  }
  ASSERT_TRUE(w.settle()) << "warm-up did not converge, seed=" << seed;

  // Cut m2 away; wait for suspicion + parole expulsion, then queue offline.
  const std::string victim = "m2";
  run_until_cut(w, {victim});
  const std::uint64_t queued = 3 + seed % 4;  // 3..6 offline ops
  for (std::uint64_t i = 0; i < queued; ++i)
    ASSERT_TRUE(w.publish(victim).ok());
  EXPECT_EQ(w.members[victim]->oplog_depth(), queued);
  // The partition keeps faulting the mainland while the island is dark.
  for (int t = 0; t < 20; ++t) w.step();
  const auto rekeys_before_heal = w.leader->stats().rekeys;

  w.injector.heal();
  ASSERT_TRUE(w.settle()) << "post-heal convergence failed, seed=" << seed << "\n" << w.debug_state();

  // The heal went through reconciliation, not a fresh handshake storm:
  // admitted offer, fully drained log, fast rejoin with zero extra rekeys.
  EXPECT_GE(w.metrics.counter("L", "L", "reconcile_admits_total"), 1u);
  EXPECT_GE(w.metrics.counter("L", "L", "reconcile_fast_rejoins_total"), 1u);
  EXPECT_EQ(w.leader->stats().rekeys, rekeys_before_heal)
      << "heal must not rekey (that is what fast rejoin means)";
  EXPECT_EQ(w.members[victim]->oplog_depth(), 0u);
  EXPECT_EQ(w.leader->parole_count(), 0u);

  // Honest runs produce no reconcile-plane accusations, ever.
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_intrusions_total"), 0u);
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_quarantines_total"), 0u);
  for (const auto& e : w.ledger.entries())
    EXPECT_NE(e.kind, obs::EvidenceKind::forged_oplog)
        << "honest replay accused of forgery, seed=" << seed;

  // The leader accepted the whole queue exactly once: replay is stop-and-
  // wait under the retained Kr, so its count is exact even under loss.
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_ops_replayed_total"),
            queued);

  // Post-heal round proves the sequence space survived the replay.
  for (int j = 0; j < PartitionChaosWorld::kMembers; ++j)
    ASSERT_TRUE(w.publish(PartitionChaosWorld::member_id(j)).ok());
  ASSERT_TRUE(w.settle()) << "post-heal publish failed, seed=" << seed;

  // No survivor ever saw a victim payload twice or out of order — warm-up,
  // the replayed queue, and the post-heal round fold into one monotone
  // stream. On a lossless plan the fold is also complete.
  for (int j = 0; j < PartitionChaosWorld::kMembers; ++j) {
    const std::string receiver = PartitionChaosWorld::member_id(j);
    if (receiver == victim) continue;
    assert_no_dup_in_order(w, receiver, victim);
    if (plan_is_lossless(plan)) {
      EXPECT_EQ(seen(w, receiver, victim).size(), w.next_num[victim])
          << receiver << " lost victim payloads on a lossless plan";
    }
  }

  // The injector's own account of the run matches the story told above.
  EXPECT_EQ(w.injector.stats().partitions_cut, 1u);
  EXPECT_EQ(w.injector.stats().partitions_healed, 1u);
  EXPECT_GT(w.injector.stats().partition_dropped, 0u)
      << "a partition that dropped nothing cannot have caused the expulsion";

  // And the span graph contains one completed reconcile span for the victim.
  auto spans = obs::SpanTracker::build(w.trace.events());
  std::uint64_t complete_reconciles = 0;
  for (const auto& s : spans)
    if (s.kind == obs::SpanKind::reconcile && s.agent == victim && s.complete)
      ++complete_reconciles;
  EXPECT_GE(complete_reconciles, 1u)
      << "no completed reconcile span for the healed member, seed=" << seed;
}

// Split-brain: two members islanded together. Both queue offline ops, both
// reconcile on heal, and both op streams merge exactly once everywhere on
// the mainland.
TEST_P(ChaosPartitionHeal, SplitBrainBothHalvesQueueAndMerge) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  const net::FaultPlan plan = plan_for_seed(seed);
  PartitionChaosWorld w(seed, plan);

  for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
  ASSERT_TRUE(w.settle()) << "join phase did not converge, seed=" << seed;

  const std::set<std::string> island = {"m2", "m3"};
  run_until_cut(w, island);

  // Both islanders queue; the mainland keeps publishing too.
  const std::uint64_t queued = 2 + seed % 3;  // 2..4 ops per islander
  for (std::uint64_t i = 0; i < queued; ++i) {
    for (const auto& id : island) ASSERT_TRUE(w.publish(id).ok());
    ASSERT_TRUE(w.publish("m0").ok());
    w.step();
  }
  for (const auto& id : island)
    EXPECT_EQ(w.members[id]->oplog_depth(), queued);

  w.injector.heal();
  ASSERT_TRUE(w.settle()) << "post-heal convergence failed, seed=" << seed << "\n" << w.debug_state();

  EXPECT_GE(w.metrics.counter("L", "L", "reconcile_fast_rejoins_total"), 2u);
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_intrusions_total"), 0u);
  EXPECT_EQ(w.leader->parole_count(), 0u);
  for (const auto& id : island)
    EXPECT_EQ(w.members[id]->oplog_depth(), 0u) << id;

  // The leader merged both queues in full, each op exactly once.
  EXPECT_EQ(w.metrics.counter("L", "L", "reconcile_ops_replayed_total"),
            2 * queued);

  // No mainland member ever saw an islander payload twice or out of order;
  // on a lossless plan every payload also arrived. (The islanders' own
  // receipt of each other's replay depends on rejoin order, so only
  // mainland receivers are asserted.)
  for (const std::string receiver : {"m0", "m1"}) {
    for (const auto& origin : island) {
      assert_no_dup_in_order(w, receiver, origin);
      if (plan_is_lossless(plan)) {
        EXPECT_EQ(seen(w, receiver, origin).size(), w.next_num[origin])
            << receiver << " lost " << origin
            << " payloads on a lossless plan";
      }
    }
  }

  EXPECT_EQ(w.injector.stats().partitions_cut, 1u);
  EXPECT_EQ(w.injector.stats().partitions_healed, 1u);
}

// ViewChanged carries only the change. Folding each member's deltas must
// reproduce Member::view() at every quiescent point, through joins, a
// voluntary leave, an expulsion with auto-rejoin, a rejoin and a partition
// heal. Members out of session hold no view and are skipped; a member in
// disconnected mode keeps its view, and so does its fold.
TEST(PartitionViewFold, DeltasFoldToTheMaterialisedView) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    PartitionChaosWorld w(seed, net::FaultPlan{});
    auto quiet = [&] {
      return w.net.queue_size() == 0 && w.net.held_size() == 0;
    };
    auto run_until = [&](auto done) {
      for (int t = 0; t < 600 && !(done() && quiet()); ++t) w.step();
      return done() && quiet();
    };
    auto expect_fold_matches = [&](const char* phase) {
      EXPECT_EQ(w.fold_size_mismatches, 0u) << phase;
      for (const auto& [id, m] : w.members) {
        if (!m->connected() && !m->disconnected()) continue;
        const auto& fold = w.folded.at(id);
        EXPECT_EQ(std::vector<std::string>(fold.begin(), fold.end()),
                  m->view())
            << id << " after " << phase;
      }
    };

    for (auto& [id, m] : w.members) ASSERT_TRUE(m->join().ok());
    ASSERT_TRUE(w.settle());
    expect_fold_matches("joins");

    ASSERT_TRUE(w.members.at("m3")->leave().ok());
    ASSERT_TRUE(run_until([&] { return !w.leader->is_member("m3"); }));
    expect_fold_matches("leave");

    auto& expelled = *w.members.at("m1");
    const std::uint64_t rejoins_before = expelled.rejoins();
    ASSERT_TRUE(w.leader->expel("m1", "view fold").ok());
    ASSERT_TRUE(run_until([&] {
      return expelled.rejoins() > rejoins_before && expelled.connected() &&
             w.leader->is_member("m1");
    }));
    expect_fold_matches("expel + auto-rejoin");

    ASSERT_TRUE(w.members.at("m3")->join().ok());
    ASSERT_TRUE(w.settle());
    expect_fold_matches("rejoin");

    run_until_cut(w, {"m2"});
    expect_fold_matches("partition");
    w.injector.heal();
    ASSERT_TRUE(w.settle());
    expect_fold_matches("heal");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosPartitionHeal,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace enclaves::core
