// Decoder robustness sweep: every decoder in the system is fed random byte
// soup, truncated real messages, and bit-flipped real messages. None may
// crash; every failure must be a clean Result error. This is the
// deterministic stand-in for a fuzzing campaign.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "app/group_chat.h"
#include "core/registry.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "tools/bench_diff_lib.h"
#include "util/rng.h"
#include "wire/admin_body.h"
#include "wire/envelope.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"

namespace enclaves {
namespace {

// Runs every decoder on the given bytes; result values are irrelevant, the
// point is no crash/UB and clean error paths.
void sweep_all_decoders(BytesView soup) {
  (void)wire::decode_envelope(soup);
  (void)wire::decode_admin_body(soup);
  (void)wire::decode_auth_init(soup);
  (void)wire::decode_auth_key_dist(soup);
  (void)wire::decode_auth_ack(soup);
  (void)wire::decode_admin(soup);
  (void)wire::decode_ack(soup);
  (void)wire::decode_req_close(soup);
  (void)wire::decode_group_data(soup);
  (void)wire::decode_legacy_auth_init(soup);
  (void)wire::decode_legacy_auth_reply(soup);
  (void)wire::decode_legacy_auth_ack(soup);
  (void)wire::decode_legacy_new_key(soup);
  (void)wire::decode_legacy_new_key_ack(soup);
  (void)wire::decode_legacy_membership(soup);
  (void)app::decode_chat_message(soup);
  (void)core::Registry::deserialize(soup, to_bytes("k"));
}

class FuzzishSoup : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzishSoup, RandomBytesNeverCrashAnyDecoder) {
  DeterministicRng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    Bytes soup = rng.bytes(rng.below(300));
    sweep_all_decoders(soup);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzishSoup, ::testing::Range<std::uint64_t>(1, 9));

TEST(FuzzishStructured, MutatedRealMessagesNeverCrash) {
  DeterministicRng rng(99);
  // Build one real instance of each message type, then mutate heavily.
  std::vector<Bytes> corpus;
  auto n = [&] { return crypto::ProtocolNonce::random(rng); };
  corpus.push_back(wire::encode(wire::Envelope{wire::Label::AdminMsg, "L",
                                               "alice", rng.bytes(64)}));
  corpus.push_back(wire::encode(wire::AuthInitPayload{"alice", "L", n()}));
  corpus.push_back(wire::encode(wire::AuthKeyDistPayload{
      "L", "alice", n(), n(), crypto::SessionKey::random(rng)}));
  corpus.push_back(wire::encode(
      wire::AdminPayload{"L", "alice", n(), n(),
                         wire::AdminBody(wire::MemberList{{"a", "b"}})}));
  corpus.push_back(wire::encode(wire::LegacyAuthReplyPayload{
      "L", "alice", n(), n(), crypto::SessionKey::random(rng),
      rng.bytes(16), crypto::GroupKey::random(rng), 3}));
  corpus.push_back(
      app::encode(app::ChatMessage{app::ChatKind::text, "a", "hi", 1}));
  {
    core::Registry reg;
    (void)reg.add(core::Credential{"alice",
                                   crypto::LongTermKey::random(rng), "t"});
    corpus.push_back(reg.serialize(to_bytes("k")));
  }

  for (const Bytes& base : corpus) {
    // Every truncation.
    for (std::size_t len = 0; len <= base.size(); ++len)
      sweep_all_decoders({base.data(), len});
    // Many random single- and multi-byte corruptions.
    for (int round = 0; round < 100; ++round) {
      Bytes bad = base;
      std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips && !bad.empty(); ++f)
        bad[rng.below(bad.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      sweep_all_decoders(bad);
    }
  }
  SUCCEED();
}

TEST(FuzzishStructured, HugeLengthClaimsBounded) {
  // Length prefixes claiming enormous sizes must fail fast without large
  // allocations (kMaxFieldLen guard).
  Bytes evil;
  evil.push_back(0x04);  // label AdminMsg
  for (int i = 0; i < 4; ++i) evil.push_back(0xFF);  // sender len = 4 GiB
  auto r = wire::decode_envelope(evil);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::oversized);
}


// --- JSON: the one reader (obs/json_reader.h) behind every parser ---------

// Samples exercising every section and value shape the writers emit:
// escaped and raw-control key bytes, 64-bit extremes, negative gauges,
// histogram arrays, profile scopes and fractional benchmark numbers.
std::string sample_metrics_json() {
  obs::MetricsSnapshot m;
  m.counters[{"L", "L", "relayed_total"}] = 42;
  m.counters[{"g\"q", "a\\b", std::string("n\n\t\x01")}] =
      std::numeric_limits<std::uint64_t>::max();
  m.gauges[{"L", "L", "members"}] = 7;
  m.gauges[{"ha", "L2", "lag"}] = std::numeric_limits<std::int64_t>::min();
  m.histograms[{"L", "L", "relay_payload_bytes"}] =
      obs::HistogramData{{64, 256}, {1, 1}, 1, 3, 300};
  return m.to_json();
}

std::string sample_profile_json() {
  obs::ProfSnapshot p;
  p.scopes["leader/handle"] = {3, 900, 600, 100, 500, 2048};
  p.scopes["leader/handle;leader/relay"] = {2, 300, 300, 120, 180, 0};
  return p.to_json();
}

std::string sample_blob_json() {
  return "{\"bench\":\"fuzz\",\"metrics_attached\":true,"
         "\"results\":[{\"name\":\"BM_Relay/64\",\"iterations\":1000,"
         "\"real_time\":1.25e3,\"cpu_time\":-0.5,\"time_unit\":\"ns\"}],"
         "\"metrics\":" +
         sample_metrics_json() + ",\"profile\":" + sample_profile_json() +
         "}";
}

// Parses `text` with all three readers. Whatever MetricsSnapshot parses
// must survive to_json -> from_json unchanged; returns how many did.
int parse_everything(std::string_view text) {
  int round_trips = 0;
  auto check = [&round_trips](const obs::MetricsSnapshot& snap) {
    auto again = obs::MetricsSnapshot::from_json(snap.to_json());
    ASSERT_TRUE(again.ok()) << snap.to_json();
    EXPECT_EQ(*again, snap);
    ++round_trips;
  };
  if (auto blob = tools::BenchBlob::parse(text)) check(blob->metrics);
  if (auto snap = obs::MetricsSnapshot::from_json(text)) check(*snap);
  (void)obs::ProfSnapshot::from_json(text);
  return round_trips;
}

TEST(FuzzishJson, EveryPrefixFailsCleanly) {
  const std::string blob = sample_blob_json();
  ASSERT_TRUE(tools::BenchBlob::parse(blob).ok());
  auto snap = obs::MetricsSnapshot::from_json(sample_metrics_json());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->to_json(), sample_metrics_json());
  auto prof = obs::ProfSnapshot::from_json(sample_profile_json());
  ASSERT_TRUE(prof.ok());
  EXPECT_EQ(prof->to_json(), sample_profile_json());

  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(tools::BenchBlob::parse(blob.substr(0, len)).ok()) << len;
  }
  for (const std::string& text :
       {blob, sample_metrics_json(), sample_profile_json()}) {
    for (std::size_t len = 0; len < text.size(); ++len)
      parse_everything(std::string_view(text).substr(0, len));
  }
}

TEST(FuzzishJson, SingleByteMutationsNeverCrashAndRoundTrip) {
  DeterministicRng rng(1213);
  // Bias toward bytes that change JSON structure; the rest are arbitrary.
  const std::string_view structural = "{}[]\":,\\-+.eu0123456789 tfn\x01";
  int round_trips = 0;
  for (const std::string& base :
       {sample_blob_json(), sample_metrics_json(), sample_profile_json()}) {
    for (int round = 0; round < 1500; ++round) {
      std::string bad = base;
      const char byte =
          rng.below(2) == 0
              ? structural[rng.below(structural.size())]
              : static_cast<char>(rng.below(256));
      const std::size_t at = rng.below(bad.size());
      switch (rng.below(3)) {
        case 0: bad[at] = byte; break;
        case 1: bad.insert(at, 1, byte); break;
        default: bad.erase(at, 1); break;
      }
      round_trips += parse_everything(bad);
    }
  }
  // Mutations inside values and strings keep a large share parseable, so
  // the round-trip property is exercised, not vacuous.
  EXPECT_GT(round_trips, 500);
}

}  // namespace
}  // namespace enclaves
