// Refusals: the one call every refusal site in Leader and Member makes.
//
// The DSN'01 insider analysis (§2.3) argues the protocol by showing that
// each forgery a corrupt member can send is refused. A refusal is observed
// on several channels at once: the refusing node's per-plane counter, one
// attributed SecurityLedger entry (which also bumps the `security.*`
// counters), and on some planes a trace line or a flight-recorder incident.
// The table in refusal.cpp derives every one of them from the refusal's
// plane, so a site states only what was refused, from whom, and why.
//
// Only refusal paths enter here; accepted input pays nothing.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "obs/security.h"
#include "util/clock.h"

namespace enclaves::core {

/// Which refusal plane an input was refused on. Each plane fixes the
/// per-node counter (under the node's (group, agent)) and any extra
/// channel; the ledger entry is written for every plane.
enum class Refusal : std::uint8_t {
  join_denied,     // admission policy said no: join_denials_total
  unknown_sender,  // no credential for the claimed sender: auth_rejects_total
  auth,            // unauthentic / stale / out-of-state: auth_rejects_total
  relay,           // leader refused to relay GroupData: relay_rejects_total
                   //   + data_reject trace
  data,            // member refused a GroupData delivery: data_rejects_total
                   //   + data_reject trace
  keytree,         // key-tree update or path refused: keytree_rejects_total
  keytree_fence,   // key-tree update below the epoch floor: keytree_rejects
                   //   + epoch_fenced_total + fence trace
  epoch_fence,     // NewGroupKey below the epoch floor: epoch_fenced_total
                   //   + fence trace + flight incident
  forged_oplog,    // op-log replay broke the HMAC chain:
                   //   reconcile_intrusions_total + flight incident
};
inline constexpr std::size_t kRefusalPlanes =
    static_cast<std::size_t>(Refusal::forged_oplog) + 1;

/// A node's refusal tallies by plane, and the single recording entry point.
class RefusalTally {
 public:
  /// Records one refusal on every channel its plane carries. `group` and
  /// `agent` are the refusing node's metric/trace coordinates; `accused` is
  /// the (untrusted) envelope sender the bytes claimed to come from.
  void record(Tick tick, std::string_view group, std::string_view agent,
              Refusal plane, obs::EvidenceKind kind,
              std::string_view accused, std::string_view detail,
              std::uint64_t value = 0);

  std::uint64_t count(Refusal plane) const {
    return counts_[static_cast<std::size_t>(plane)];
  }

 private:
  std::array<std::uint64_t, kRefusalPlanes> counts_{};
};

}  // namespace enclaves::core
