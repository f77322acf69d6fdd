// Federation payload family (labels 128–132) — the sharded multi-leader
// plane that places groups onto leader shards, migrates a group between
// shards, and keeps a versioned cross-shard ownership directory (src/fed/,
// PROTOCOL.md §14).
//
// Trust model, per payload:
//   FedRedirect     travels IN THE CLEAR and is a routing hint only. A shard
//                   that receives traffic for a group it no longer (or never)
//                   owned answers with the owner it believes in; the member
//                   retargets and re-authenticates THERE. Following a forged
//                   redirect lands at a leader that cannot authenticate you —
//                   operationally a dropped packet, never a key compromise.
//                   Members bound redirects-per-join so a forger cannot even
//                   starve the join (the failover rotation keeps running).
//   FedMigrate*     sealed under the pairwise inter-shard key (fed_pair_key).
//                   The offer carries the group's sealed LeaderSnapshot —
//                   credentials, epoch, key-tree slots, parole — so the
//                   seal's confidentiality matters, not just authenticity.
//   FedDirSync      sealed likewise; carries a versioned ownership claim.
//                   Versions only move forward, so a resurrected source
//                   shard replaying its pre-migration claim is refused with
//                   ledger evidence rather than rolling the directory back.
//
// Like payloads.h/repl.h, every payload starts with a type octet unique
// within the family (0xC1-0xC5, reusing reconcile's range: messages.h) and
// decoders reject trailing bytes.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/result.h"
#include "wire/fields.h"

namespace enclaves::wire {

/// Shard -> member routing hint: "the group behind `stale_leader` is served
/// by `owner_leader`". Unsealed and advisory (see the header comment).
struct FedRedirectPayload {
  std::string group;         // bare group name, e.g. "research"
  std::string stale_leader;  // the leader id the member targeted
  std::string owner_leader;  // where the group actually lives ("shard/g")
  std::uint64_t dir_version = 0;  // sender's directory version for the group
  static constexpr std::uint8_t kWireType = 0xC1;
  static constexpr auto kWireFields = std::tuple{
      &FedRedirectPayload::group, &FedRedirectPayload::stale_leader,
      &FedRedirectPayload::owner_leader, &FedRedirectPayload::dir_version};
  friend bool operator==(const FedRedirectPayload&,
                         const FedRedirectPayload&) = default;
};

/// Source -> target: the frozen group, offered for adoption. `snapshot` is
/// LeaderSnapshot::serialize under the SAME pairwise key that seals this
/// payload's envelope.
struct FedMigrateOfferPayload {
  std::string group;
  std::string source_shard;
  std::string target_shard;
  std::uint64_t migration_id = 0;  // fresh per attempt; echoed by the ack
  std::uint64_t epoch = 0;         // source's epoch at freeze
  std::uint64_t dir_version = 0;   // source's ownership version for `group`
  Bytes snapshot;                  // sealed LeaderSnapshot blob
  static constexpr std::uint8_t kWireType = 0xC2;
  static constexpr auto kWireFields = std::tuple{
      &FedMigrateOfferPayload::group, &FedMigrateOfferPayload::source_shard,
      &FedMigrateOfferPayload::target_shard,
      &FedMigrateOfferPayload::migration_id, &FedMigrateOfferPayload::epoch,
      &FedMigrateOfferPayload::dir_version, &FedMigrateOfferPayload::snapshot};
  friend bool operator==(const FedMigrateOfferPayload&,
                         const FedMigrateOfferPayload&) = default;
};

enum class FedMigrateVerdict : std::uint8_t {
  accept = 1,   // installed; source must commit and drop the group
  refuse = 2,   // target refuses (stale version / bad snapshot / duplicate
                //   group at higher epoch — the resurrected-source case)
};

const char* fed_migrate_verdict_name(FedMigrateVerdict verdict);

/// Target -> source: answer to an offer. On accept, `fenced_epoch` is the
/// epoch floor the target installed (offer epoch + fence jump) — everything
/// the target ever distributes for the group exceeds it, so members' epoch
/// floors depose the source if it resurfaces.
struct FedMigrateAckPayload {
  std::string group;
  std::uint64_t migration_id = 0;
  FedMigrateVerdict verdict = FedMigrateVerdict::refuse;
  std::uint64_t fenced_epoch = 0;  // 0 on refuse
  static constexpr std::uint8_t kWireType = 0xC3;
  static constexpr auto kWireFields = std::tuple{
      &FedMigrateAckPayload::group, &FedMigrateAckPayload::migration_id,
      Named{&FedMigrateAckPayload::verdict, fed_migrate_verdict_name},
      &FedMigrateAckPayload::fenced_epoch};
  friend bool operator==(const FedMigrateAckPayload&,
                         const FedMigrateAckPayload&) = default;
};

/// Source -> target: the source dropped the group and tombstoned its
/// directory entry; ownership is the target's alone from here.
struct FedMigrateCommitPayload {
  std::string group;
  std::uint64_t migration_id = 0;
  std::uint64_t dir_version = 0;  // the version the new ownership carries
  static constexpr std::uint8_t kWireType = 0xC4;
  static constexpr auto kWireFields = std::tuple{
      &FedMigrateCommitPayload::group, &FedMigrateCommitPayload::migration_id,
      &FedMigrateCommitPayload::dir_version};
  friend bool operator==(const FedMigrateCommitPayload&,
                         const FedMigrateCommitPayload&) = default;
};

/// Shard -> shard: one versioned ownership claim for the directory.
struct FedDirSyncPayload {
  std::string group;
  std::string owner_shard;
  std::uint64_t version = 0;
  static constexpr std::uint8_t kWireType = 0xC5;
  static constexpr auto kWireFields = std::tuple{
      &FedDirSyncPayload::group, &FedDirSyncPayload::owner_shard,
      &FedDirSyncPayload::version};
  friend bool operator==(const FedDirSyncPayload&,
                         const FedDirSyncPayload&) = default;
};

}  // namespace enclaves::wire
