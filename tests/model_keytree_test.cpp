// Symbolic verification of the key-tree expel guarantee (PROTOCOL.md §13):
// over schedules of join/expel/manual-rekey transitions, no evicted leaf
// can derive ANY KEK or group key minted after its expulsion — checked as
// Dolev-Yao reachability (Analz) over the recorded broadcast trace, with
// the evictee granted everything it ever held.
//
// The model is kept honest from both sides: current members MUST reach the
// current Kg from {leaf KEK} ∪ trace (completeness — a model that never
// delivers keys proves secrecy vacuously), and the two classic LKH
// mistakes (skip the expel rotation; reuse instead of re-key) are run
// through the same invariant to confirm it catches them.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "model/closure.h"
#include "model/field.h"
#include "model/keytree_model.h"

namespace enclaves::model {
namespace {

// Mirrors the differential suite's schedule derivation: pure function of
// (seed, step), so every seed is a reproducible transition sequence.
std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

TEST(KeyTreeModel, CurrentMembersReachTheGroupKey) {
  FieldPool pool;
  KeyTreeModel m(pool, /*depth=*/2);
  m.join(0);
  m.join(1);
  m.join(2);
  for (std::int32_t a : {0, 1, 2}) {
    FieldSet k = m.knowledge(a);
    EXPECT_TRUE(k.contains(m.current_group_key())) << "member " << a;
    EXPECT_TRUE(k.contains(m.root_kek())) << "member " << a;
  }
}

TEST(KeyTreeModel, OutsiderNeverLearnsAnything) {
  FieldPool pool;
  KeyTreeModel m(pool, /*depth=*/2);
  m.join(0);
  m.join(1);
  m.manual_rekey();
  m.expel(0);
  m.join(2);
  // The wire carries only encryptions under keys that never appear in the
  // clear: Analz(trace) alone reaches no KEK and no Kg, ever.
  FieldSet outsider = m.outsider_knowledge();
  for (FieldId s : m.secrets_after(0))
    EXPECT_FALSE(outsider.contains(s)) << pool.show(s);
}

TEST(KeyTreeModel, EvictedLeafDerivesNoPostExpelKek) {
  FieldPool pool;
  KeyTreeModel m(pool, /*depth=*/2);
  for (std::int32_t a : {0, 1, 2, 3}) m.join(a);
  m.manual_rekey();

  const std::uint64_t before = m.epoch();
  m.expel(1);
  m.manual_rekey();
  m.join(2 + 2);  // churn after the eviction
  m.expel(0);
  m.manual_rekey();

  // Member 1 knows everything it ever held (leaf KEK, old path via the
  // broadcasts) and the full public trace — and still reaches nothing
  // minted after its expulsion.
  EXPECT_EQ(first_reachable_secret(pool, m.knowledge(1),
                                   m.secrets_after(before)),
            kNoField);
  // It DID hold the pre-expel group key (sanity: it was a member then).
  EXPECT_TRUE(m.knowledge(1).contains(m.group_key_at(before)));
}

TEST(KeyTreeModel, RejoinedEvicteeIsFreshNotGrandfathered) {
  FieldPool pool;
  KeyTreeModel m(pool, /*depth=*/2);
  m.join(0);
  m.join(1);
  const std::uint64_t before = m.epoch();
  m.expel(0);
  m.manual_rekey();
  const std::uint64_t quarantine_end = m.epoch();
  m.join(0);  // re-admitted: fresh session, fresh leaf KEK, fresh path

  FieldSet k = m.knowledge(0);
  // Back in: reaches the current epoch...
  EXPECT_TRUE(k.contains(m.current_group_key()));
  // ...but still not the quarantine epochs between expel and rejoin.
  for (std::uint64_t e = before + 1; e <= quarantine_end; ++e)
    EXPECT_FALSE(k.contains(m.group_key_at(e))) << "epoch " << e;
}

// The flagship sweep: seeded random transition schedules, the invariant
// checked for EVERY evictee after EVERY transition.
TEST(KeyTreeModel, NoEvicteeEverReachesPostExpelSecretsAcrossSchedules) {
  constexpr std::int32_t kAgents = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    FieldPool pool;
    KeyTreeModel m(pool, /*depth=*/3);
    std::map<std::int32_t, std::uint64_t> evicted_at;  // agent -> epoch

    for (std::uint64_t step = 0; step < 40; ++step) {
      const std::uint64_t r = mix(seed, step);
      const std::int32_t agent = static_cast<std::int32_t>(r >> 8) % kAgents;
      switch (r % 3) {
        case 0:
          if (!m.is_member(agent) && !m.full()) {
            m.join(agent);
            evicted_at.erase(agent);  // re-admitted: fresh-session rule
          }
          break;
        case 1:
          if (m.is_member(agent) && m.member_count() > 1) {
            evicted_at[agent] = m.epoch();
            m.expel(agent);
          }
          break;
        default:
          m.manual_rekey();
          break;
      }
      for (const auto& [evictee, at] : evicted_at) {
        FieldId leaked = first_reachable_secret(pool, m.knowledge(evictee),
                                                m.secrets_after(at));
        ASSERT_EQ(leaked, kNoField)
            << "step " << step << ": evictee " << evictee << " (expelled at "
            << at << ") reaches " << pool.show(leaked);
      }
      // Completeness at every step: members hold the current Kg.
      if (m.member_count() > 0 && m.current_group_key() != kNoField) {
        for (std::int32_t a = 0; a < kAgents; ++a) {
          if (m.is_member(a)) {
            ASSERT_TRUE(m.knowledge(a).contains(m.current_group_key()))
                << "step " << step << ": member " << a << " lost the key";
          }
        }
      }
    }
  }
}

// Self-validation: the invariant must CATCH the classic LKH mistakes.

TEST(KeyTreeModel, SkippingTheExpelRotationIsCaught) {
  FieldPool pool;
  KeyTreeModel m(pool, /*depth=*/2, KeyTreeWeakness::skip_expel_rotation);
  m.join(0);
  m.join(1);
  const std::uint64_t before = m.epoch();
  m.expel(0);
  // No rotation happened: the evictee still holds the root KEK, and the new
  // Kg was broadcast under it.
  EXPECT_NE(first_reachable_secret(pool, m.knowledge(0),
                                   m.secrets_after(before)),
            kNoField);
}

TEST(KeyTreeModel, ReusingKeksInsteadOfRotatingIsCaught) {
  FieldPool pool;
  KeyTreeModel m(pool, /*depth=*/2, KeyTreeWeakness::reuse_sibling_kek);
  m.join(0);
  m.join(1);
  const std::uint64_t before = m.epoch();
  m.expel(0);
  m.manual_rekey();
  // "Rotation" re-dealt the keys the evictee already has.
  EXPECT_NE(first_reachable_secret(pool, m.knowledge(0),
                                   m.secrets_after(before)),
            kNoField);
}

}  // namespace
}  // namespace enclaves::model
