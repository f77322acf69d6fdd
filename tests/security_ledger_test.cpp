// Security-ledger attribution: every authentication/freshness refusal in
// the protocol yields exactly one ledger entry naming the observer, the
// evidence kind, and the (untrusted) accused origin — and benign
// retransmissions yield none.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adversary/attacks.h"
#include "core/leader.h"
#include "core/member.h"
#include "crypto/aead.h"
#include "net/sim_network.h"
#include "obs/metrics.h"
#include "obs/security.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "wire/payloads.h"
#include "wire/reconcile.h"
#include "wire/seal.h"

namespace enclaves::core {
namespace {

using obs::EvidenceKind;
using obs::SecurityEvidence;

// A two-plane view of the ledger: the clockless crypto plane files its own
// tag-mismatch evidence, so protocol-level assertions filter to the group.
std::vector<SecurityEvidence> core_entries(const obs::SecurityLedger& ledger) {
  std::vector<SecurityEvidence> out;
  for (const auto& e : ledger.entries())
    if (e.group != "crypto") out.push_back(e);
  return out;
}

struct LedgeredWorld {
  explicit LedgeredWorld(std::uint64_t seed,
                         LeaderConfig config = {"L", RekeyPolicy::strict()})
      : rng(seed),
        leader(std::move(config), rng),
        metrics_sink(metrics),
        ledger_sink(ledger) {
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    net.attach("L", [this](const wire::Envelope& e) { leader.handle(e); });
  }

  Member& add(const std::string& id) {
    auto pa = crypto::LongTermKey::random(rng);
    EXPECT_TRUE(leader.register_member(id, pa).ok());
    auto m = std::make_unique<Member>(id, "L", pa, rng);
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
  Leader leader;
  obs::MetricsRegistry metrics;
  obs::SecurityLedger ledger;
  obs::ScopedMetricsSink metrics_sink;
  obs::ScopedSecurityLedger ledger_sink;
  std::map<std::string, std::unique_ptr<Member>> members;
};

TEST(SecurityLedger, ForgedAdminMsgYieldsExactlyOneCoreEntry) {
  LedgeredWorld w(1);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  w.ledger.clear();

  // Well-formed sealed AdminMsg under a key alice does not hold: the session
  // refuses it as an authentication failure and accuses the claimed sender.
  DeterministicRng forge_rng(99);
  auto wrong_key = crypto::SessionKey::random(forge_rng);
  w.net.inject("alice",
               wire::make_sealed(crypto::default_aead(), wrong_key.view(),
                                 forge_rng, wire::Label::AdminMsg, "L",
                                 "alice", to_bytes("forged")));
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::aead_open_failure);
  EXPECT_EQ(core[0].group, "L");
  EXPECT_EQ(core[0].observer, "alice");
  EXPECT_EQ(core[0].accused, "L");
  // The crypto plane independently filed the tag mismatch.
  EXPECT_GE(w.ledger.size(), 2u);
  EXPECT_EQ(w.ledger.suspicion("L"), 1u);
}

TEST(SecurityLedger, UnknownSenderAttributedAtLeader) {
  LedgeredWorld w(2);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  w.ledger.clear();

  w.net.inject("L", wire::Envelope{wire::Label::AuthInitReq, "mallory", "L",
                                   to_bytes("hello")});
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::unknown_sender);
  EXPECT_EQ(core[0].observer, "L");
  EXPECT_EQ(core[0].accused, "mallory");
  EXPECT_EQ(core[0].detail, "AuthInitReq");
  EXPECT_EQ(w.ledger.suspicion("mallory"), 1u);
}

TEST(SecurityLedger, NonMemberGroupDataRelayRejected) {
  LedgeredWorld w(3);
  auto& alice = w.add("alice");
  w.add("eve");  // registered credential, but eve never joins
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  w.ledger.clear();

  DeterministicRng forge_rng(7);
  wire::GroupDataPayload p{"eve", w.leader.epoch(), 1, to_bytes("smuggled")};
  w.net.inject("L", wire::make_sealed(crypto::default_aead(),
                                      w.leader.group_key().view(), forge_rng,
                                      wire::Label::GroupData, "eve",
                                      wire::kGroupRecipient,
                                      wire::encode(p)));
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::relay_reject);
  EXPECT_EQ(core[0].observer, "L");
  EXPECT_EQ(core[0].accused, "eve");
  EXPECT_EQ(core[0].detail, "not a member");
}

TEST(SecurityLedger, ReplayedSequenceAccusesTheClaimedOrigin) {
  LedgeredWorld w(4);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  ASSERT_TRUE(bob.join().ok());
  w.net.run();
  ASSERT_TRUE(bob.connected());
  w.ledger.clear();

  // A valid delivery for (alice, current epoch, seq 5), then its replay.
  DeterministicRng seal_rng(11);
  wire::GroupDataPayload p{"alice", w.leader.epoch(), 5, to_bytes("d5")};
  auto env = wire::make_sealed(crypto::default_aead(),
                               w.leader.group_key().view(), seal_rng,
                               wire::Label::GroupData, "alice",
                               wire::kGroupRecipient, wire::encode(p));
  w.net.inject("bob", env);
  w.net.run();
  EXPECT_TRUE(core_entries(w.ledger).empty()) << "first delivery is genuine";

  w.net.inject("bob", env);
  w.net.run();
  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::replayed_seq);
  EXPECT_EQ(core[0].observer, "bob");
  EXPECT_EQ(core[0].accused, "alice");
  EXPECT_EQ(w.ledger.suspicion("alice"), 1u);
}

TEST(SecurityLedger, WrongEpochNumberIsStaleEpochEvidence) {
  LedgeredWorld w(5);
  auto& alice = w.add("alice");
  auto& bob = w.add("bob");
  ASSERT_TRUE(alice.join().ok());
  ASSERT_TRUE(bob.join().ok());
  w.net.run();
  w.ledger.clear();

  // Sealed under the CURRENT key but stamped with a past epoch: opens fine,
  // fails the freshness check.
  DeterministicRng seal_rng(13);
  wire::GroupDataPayload p{"alice", w.leader.epoch() - 1, 9, to_bytes("old")};
  w.net.inject("bob", wire::make_sealed(crypto::default_aead(),
                                        w.leader.group_key().view(), seal_rng,
                                        wire::Label::GroupData, "alice",
                                        wire::kGroupRecipient,
                                        wire::encode(p)));
  w.net.run();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::stale_epoch);
  EXPECT_EQ(core[0].observer, "bob");
  EXPECT_EQ(core[0].accused, "alice");
}

// The stop-and-wait channel absorbs a byte-identical retransmission of the
// LATEST exchange with a cached re-answer — a benign duplicate is not
// intrusion evidence. Replaying an OLDER admin message, however, fails the
// freshness chain and is ledgered as a stale nonce.
TEST(SecurityLedger, DuplicateOfLatestAbsorbedOlderReplayLedgered) {
  LedgeredWorld w(6);
  std::vector<net::Packet> captured;
  w.net.set_tap([&captured](const net::Packet& p) {
    captured.push_back(p);
    return net::TapVerdict::deliver;
  });
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  w.ledger.clear();

  std::vector<wire::Envelope> admin_to_alice;
  for (const auto& p : captured)
    if (p.to == "alice" && p.envelope.label == wire::Label::AdminMsg)
      admin_to_alice.push_back(p.envelope);
  ASSERT_GE(admin_to_alice.size(), 2u) << "join ships Kg then the view";

  // Detach the leader: the member's cached re-answer Ack would otherwise
  // arrive at a leader with no exchange pending, which is itself ledgered
  // (as replayed traffic) and would muddy the member-side assertion.
  w.net.detach("L");

  const std::uint64_t reanswers_before =
      w.metrics.counter_total("reanswers_total");
  w.net.inject("alice", admin_to_alice.back());
  w.net.run();
  EXPECT_TRUE(core_entries(w.ledger).empty())
      << "benign retransmission must not be evidence";
  EXPECT_GT(w.metrics.counter_total("reanswers_total"), reanswers_before);

  w.net.inject("alice", admin_to_alice.front());
  w.net.run();
  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), 1u);
  EXPECT_EQ(core[0].kind, EvidenceKind::stale_nonce);
  EXPECT_EQ(core[0].observer, "alice");
  EXPECT_EQ(core[0].accused, "L");
}

// Every ledger entry bumps the security.* metrics through the same sink
// gate: total refusals and per-accused suspicion must agree exactly.
TEST(SecurityLedger, MetricsAgreeWithLedger) {
  LedgeredWorld w(8);
  auto& alice = w.add("alice");
  ASSERT_TRUE(alice.join().ok());
  w.net.run();

  w.net.inject("L", wire::Envelope{wire::Label::AuthInitReq, "mallory", "L",
                                   to_bytes("x")});
  w.net.inject("L", wire::Envelope{wire::Label::GroupData, "mallory", "L",
                                   to_bytes("y")});
  w.net.run();

  EXPECT_EQ(w.metrics.counter_total("refusals_total"), w.ledger.size());
  std::uint64_t suspicion_metric = 0;
  for (const auto& [key, value] : w.metrics.snapshot().counters)
    if (key.group == "security" && key.name == "suspicion_total")
      suspicion_metric += value;
  std::uint64_t suspicion_ledger = 0;
  for (const auto& [accused, n] : w.ledger.suspicion_counts())
    suspicion_ledger += n;
  EXPECT_EQ(suspicion_metric, suspicion_ledger);
}

TEST(SecurityLedger, JsonlExportNamesEveryField) {
  obs::SecurityLedger ledger;
  ledger.record({7, EvidenceKind::relay_reject, "L", "L", "e\"ve",
                 "not a member", 0});
  const std::string jsonl = ledger.to_jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"relay_reject\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"accused\":\"e\\\"ve\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"observer\":\"L\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"detail\":\"not a member\""), std::string::npos);
}

// The whole Section 2.3 attack catalogue, run with the ledger attached: the
// improved protocol's refusals all land as attributed evidence.
TEST(SecurityLedger, AttackMatrixProducesAttributedEvidence) {
  obs::MetricsRegistry metrics;
  obs::SecurityLedger ledger;
  obs::ScopedMetricsSink metrics_sink(metrics);
  obs::ScopedSecurityLedger ledger_sink(ledger);

  auto reports = adversary::run_all_attacks(7);
  ASSERT_EQ(reports.size(), 12u);
  for (const auto& r : reports) {
    if (r.protocol == "intrusion-tolerant") {
      EXPECT_FALSE(r.attacker_succeeded) << r.attack << ": " << r.detail;
    }
  }

  EXPECT_GT(ledger.size(), 0u) << "blocked attacks must leave evidence";
  EXPECT_EQ(metrics.counter_total("refusals_total"), ledger.size());
  for (const auto& e : ledger.entries()) {
    EXPECT_FALSE(e.group.empty());
    EXPECT_FALSE(e.observer.empty());
    EXPECT_NE(std::string_view(obs::evidence_kind_name(e.kind)), "");
  }
  EXPECT_FALSE(ledger.suspicion_counts().empty());
}

// --- One refusal, every channel ---------------------------------------------
//
// Each refusal in Leader/Member shows up on up to four channels: the node's
// per-plane counter under (group, observer), exactly one ledger entry, the
// `security/<observer>/refusals_total` counter the ledger sink derives, and
// — for relay/data refusals only — one `data_reject` trace line. One trigger
// per refusal group pins all four, plus the Leader's local reject tally.

struct Refused {
  EvidenceKind kind;
  std::string group;
  std::string observer;
  std::string accused;
  std::string detail;
  std::uint64_t value = 0;
  std::string counter;  // per-node counter under (group, observer)
  bool data_reject_trace = false;
  std::uint64_t leader_rejected_inputs = 0;  // Leader::rejected_inputs() delta
};

void expect_one_refusal(LedgeredWorld& w, const std::function<void()>& trigger,
                        const Refused& want) {
  obs::TraceLog trace;
  obs::ScopedTraceSink trace_sink(trace);
  const std::size_t entries_before = core_entries(w.ledger).size();
  const std::uint64_t counter_before =
      w.metrics.counter(want.group, want.observer, want.counter);
  const std::uint64_t refusals_before =
      w.metrics.counter("security", want.observer, "refusals_total");
  const std::uint64_t rejected_before = w.leader.rejected_inputs();

  trigger();

  auto core = core_entries(w.ledger);
  ASSERT_EQ(core.size(), entries_before + 1);
  const SecurityEvidence& got = core.back();
  EXPECT_EQ(obs::evidence_kind_name(got.kind),
            obs::evidence_kind_name(want.kind));
  EXPECT_EQ(got.group, want.group);
  EXPECT_EQ(got.observer, want.observer);
  EXPECT_EQ(got.accused, want.accused);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(w.metrics.counter(want.group, want.observer, want.counter),
            counter_before + 1)
      << want.counter;
  EXPECT_EQ(w.metrics.counter("security", want.observer, "refusals_total"),
            refusals_before + 1);
  EXPECT_EQ(w.leader.rejected_inputs(),
            rejected_before + want.leader_rejected_inputs);

  std::vector<obs::TraceEvent> lines;
  for (const auto& e : trace.events())
    if (e.kind == obs::TraceKind::data_reject) lines.push_back(e);
  ASSERT_EQ(lines.size(), want.data_reject_trace ? 1u : 0u);
  if (want.data_reject_trace) {
    EXPECT_EQ(lines[0].group, want.group);
    EXPECT_EQ(lines[0].agent, want.observer);
    EXPECT_EQ(lines[0].peer, want.accused);
    EXPECT_EQ(lines[0].detail, want.detail);
  }
}

Member& joined(LedgeredWorld& w, const std::string& id) {
  Member& m = w.add(id);
  EXPECT_TRUE(m.join().ok());
  w.net.run();
  EXPECT_TRUE(m.connected()) << id;
  return m;
}

TEST(RefusalChannels, LeaderJoinDenied) {
  LedgeredWorld w(21);
  joined(w, "alice");
  w.leader.set_access_policy(
      std::make_shared<DenylistPolicy>(std::set<std::string>{"eve"}));
  Member& eve = w.add("eve");
  const auto denials = w.leader.stats().join_denials;
  expect_one_refusal(
      w,
      [&] {
        ASSERT_TRUE(eve.join().ok());
        w.net.run();
      },
      {EvidenceKind::join_denied, "L", "L", "eve", "banned", 0,
       "join_denials_total"});
  EXPECT_EQ(w.leader.stats().join_denials, denials + 1);
}

TEST(RefusalChannels, LeaderUnknownSender) {
  LedgeredWorld w(22);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("L", wire::Envelope{wire::Label::AuthInitReq, "mallory",
                                         "L", to_bytes("hello")});
        w.net.run();
      },
      {EvidenceKind::unknown_sender, "L", "L", "mallory", "AuthInitReq", 0,
       "auth_rejects_total", false, 1});
}

TEST(RefusalChannels, LeaderSessionReject) {
  LedgeredWorld w(23);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("L", wire::Envelope{wire::Label::AuthAckKey, "alice",
                                         "L", to_bytes("late")});
        w.net.run();
      },
      {EvidenceKind::bad_label, "L", "L", "alice", "AuthAckKey", 0,
       "auth_rejects_total", false, 1});
}

TEST(RefusalChannels, LeaderRelayReject) {
  LedgeredWorld w(24);
  joined(w, "alice");
  w.add("eve");  // registered credential, never joins
  expect_one_refusal(
      w,
      [&] {
        DeterministicRng forge_rng(7);
        wire::GroupDataPayload p{"eve", w.leader.epoch(), 1, to_bytes("x")};
        w.net.inject("L", wire::make_sealed(crypto::default_aead(),
                                            w.leader.group_key().view(),
                                            forge_rng, wire::Label::GroupData,
                                            "eve", wire::kGroupRecipient,
                                            wire::encode(p)));
        w.net.run();
      },
      {EvidenceKind::relay_reject, "L", "L", "eve", "not a member", 0,
       "relay_rejects_total", true, 1});
}

TEST(RefusalChannels, LeaderKeyTreeRecoverReject) {
  LedgeredWorld w(25);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("L", wire::Envelope{wire::Label::KeyTreeRecover, "alice",
                                         "L", to_bytes("r")});
        w.net.run();
      },
      {EvidenceKind::bad_label, "L", "L", "alice",
       "keytree recover without a leaf", 0, "auth_rejects_total"});
}

TEST(RefusalChannels, LeaderReconcileOfferReject) {
  LedgeredWorld w(26);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("L", wire::Envelope{wire::Label::ReconcileOffer, "alice",
                                         "L", to_bytes("o")});
        w.net.run();
      },
      {EvidenceKind::bad_label, "L", "L", "alice",
       "reconcile offer without parole", 0, "auth_rejects_total"});
}

TEST(RefusalChannels, LeaderOpReplayReject) {
  LedgeredWorld w(27);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("L", wire::Envelope{wire::Label::OpReplay, "alice", "L",
                                         to_bytes("op")});
        w.net.run();
      },
      {EvidenceKind::bad_label, "L", "L", "alice",
       "op replay without active reconciliation", 0, "auth_rejects_total"});
}

TEST(RefusalChannels, LeaderForgedOpLog) {
  LeaderConfig config{"L", RekeyPolicy::strict()};
  config.parole_epochs = 4;
  LedgeredWorld w(28, config);
  joined(w, "alice");
  // carol holds a parole Kr but no live node: the leader's verdicts to her
  // are unroutable, so only the leader observes anything.
  ASSERT_TRUE(
      w.leader.register_member("carol", crypto::LongTermKey::random(w.rng))
          .ok());
  const auto kr = crypto::SessionKey::random(w.rng);
  ASSERT_TRUE(w.leader.restore_parole("carol", kr, w.leader.epoch()));
  const auto& aead = crypto::default_aead();
  wire::ReconcileOfferPayload offer{"carol", "L",
                                    crypto::ProtocolNonce::random(w.rng),
                                    w.leader.epoch(), 2, {}};
  w.net.inject("L", wire::make_sealed(aead, kr.view(), w.rng,
                                      wire::Label::ReconcileOffer, "carol",
                                      "L", wire::encode(offer)));
  w.net.run();
  ASSERT_EQ(core_entries(w.ledger).size(), 0u) << "the offer is admitted";

  expect_one_refusal(
      w,
      [&] {
        wire::OpReplayPayload op{"carol", 2, offer.fence_epoch, {},
                                 to_bytes("skipped")};
        w.net.inject("L", wire::make_sealed(aead, kr.view(), w.rng,
                                            wire::Label::OpReplay, "carol",
                                            "L", wire::encode(op)));
        w.net.run();
      },
      {EvidenceKind::forged_oplog, "L", "L", "carol",
       "op seq skips ahead of the verified chain", 2,
       "reconcile_intrusions_total"});
}

TEST(RefusalChannels, MemberSessionReject) {
  LedgeredWorld w(29);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        DeterministicRng forge_rng(99);
        auto wrong_key = crypto::SessionKey::random(forge_rng);
        w.net.inject("alice", wire::make_sealed(
                                  crypto::default_aead(), wrong_key.view(),
                                  forge_rng, wire::Label::AdminMsg, "L",
                                  "alice", to_bytes("forged")));
        w.net.run();
      },
      {EvidenceKind::aead_open_failure, "L", "alice", "L", "AdminMsg", 0,
       "auth_rejects_total"});
}

// A member whose epoch floor was set by a high-epoch leader fails over to a
// leader whose key is epochs behind: the fence refuses that NewGroupKey.
TEST(RefusalChannels, MemberNewGroupKeyFence) {
  LedgeredWorld w(30);
  for (int i = 0; i < 5; ++i) w.leader.rekey();  // L races ahead
  Leader low(LeaderConfig{"L2", RekeyPolicy::strict()}, w.rng);
  low.set_send([&w](const std::string& to, wire::Envelope e) {
    w.net.send(to, std::move(e));
  });
  w.net.attach("L2", [&low](const wire::Envelope& e) { low.handle(e); });
  auto pa = crypto::LongTermKey::random(w.rng);
  ASSERT_TRUE(w.leader.register_member("alice", pa).ok());
  ASSERT_TRUE(low.register_member("alice", pa).ok());
  Member alice("alice", "L", pa, w.rng);
  alice.set_send([&w](const std::string& to, wire::Envelope e) {
    w.net.send(to, std::move(e));
  });
  alice.set_failover_targets({"L", "L2"});
  alice.set_retry_policy(RetryPolicy::bounded(3));
  alice.set_suspect_after(3);
  alice.enable_auto_rejoin(RetryPolicy::every_tick());
  w.net.attach("alice", [&alice](const wire::Envelope& e) { alice.handle(e); });
  ASSERT_TRUE(alice.join().ok());
  w.net.run();
  ASSERT_TRUE(alice.connected());
  const std::uint64_t floor = alice.epoch_floor();
  ASSERT_GE(floor, 6u);
  w.net.detach("L");

  // Delivery stops at the fence: L2's admin traffic queued behind the
  // refused key would otherwise hit the closed session as a second refusal.
  expect_one_refusal(
      w,
      [&] {
        for (int t = 0; t < 12 && alice.epochs_fenced() == 0; ++t) {
          alice.tick();
          while (alice.epochs_fenced() == 0 && w.net.deliver_next()) {
          }
        }
      },
      {EvidenceKind::epoch_fenced, "L2", "alice", "L2",
       "NewGroupKey below floor", 1, "epoch_fenced_total"});
  EXPECT_EQ(alice.epochs_fenced(), 1u);
  EXPECT_EQ(alice.epoch_floor(), floor);
}

TEST(RefusalChannels, MemberDataReject) {
  LedgeredWorld w(31);
  joined(w, "alice");
  Member& bob = joined(w, "bob");
  const std::uint64_t before = bob.data_rejects();
  expect_one_refusal(
      w,
      [&] {
        DeterministicRng seal_rng(13);
        wire::GroupDataPayload p{"alice", w.leader.epoch() - 1, 9,
                                 to_bytes("old")};
        w.net.inject("bob", wire::make_sealed(crypto::default_aead(),
                                              w.leader.group_key().view(),
                                              seal_rng, wire::Label::GroupData,
                                              "alice", wire::kGroupRecipient,
                                              wire::encode(p)));
        w.net.run();
      },
      {EvidenceKind::stale_epoch, "L", "bob", "alice",
       "stale epoch or origin mismatch", 0, "data_rejects_total", true});
  EXPECT_EQ(bob.data_rejects(), before + 1);
}

TEST(RefusalChannels, MemberReconcileVerdictReject) {
  LedgeredWorld w(32);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("alice", wire::Envelope{wire::Label::ReconcileVerdict,
                                             "L", "alice", to_bytes("v")});
        w.net.run();
      },
      {EvidenceKind::bad_label, "L", "alice", "L",
       "verdict outside disconnected mode", 0, "auth_rejects_total"});
}

TEST(RefusalChannels, MemberKeyTreeUpdateReject) {
  LeaderConfig config{"L", RekeyPolicy::tree()};
  LedgeredWorld w(33, config);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("alice",
                     wire::Envelope{wire::Label::KeyTreeUpdate, "L",
                                    wire::kGroupRecipient, to_bytes("u")});
        w.net.run();
      },
      {EvidenceKind::malformed, "L", "alice", "L", "malformed keytree update",
       0, "keytree_rejects_total"});
}

TEST(RefusalChannels, MemberKeyTreePathReject) {
  LedgeredWorld w(34);
  joined(w, "alice");
  expect_one_refusal(
      w,
      [&] {
        w.net.inject("alice", wire::Envelope{wire::Label::KeyTreePath, "L",
                                             "alice", to_bytes("p")});
        w.net.run();
      },
      {EvidenceKind::bad_label, "L", "alice", "L",
       "keytree path without a leaf", 0, "keytree_rejects_total"});
}

}  // namespace
}  // namespace enclaves::core
