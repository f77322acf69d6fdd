#include "core/refusal.h"

#include <iterator>
#include <optional>

#include "obs/flight_fwd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace enclaves::core {
namespace {

struct Channels {
  const char* counter = nullptr;       // per-node counter under (group, agent)
  const char* also_counter = nullptr;  // second per-node counter
  std::optional<obs::TraceKind> trace = std::nullopt;
  const char* trace_detail = nullptr;  // fixed detail; default: the refusal's
  const char* incident = nullptr;      // flight-recorder incident reason
};

// Indexed by Refusal.
constexpr Channels kChannels[] = {
    /* join_denied    */ {.counter = "join_denials_total"},
    /* unknown_sender */ {.counter = "auth_rejects_total"},
    /* auth           */ {.counter = "auth_rejects_total"},
    /* relay          */ {.counter = "relay_rejects_total",
                          .trace = obs::TraceKind::data_reject},
    /* data           */ {.counter = "data_rejects_total",
                          .trace = obs::TraceKind::data_reject},
    /* keytree        */ {.counter = "keytree_rejects_total"},
    /* keytree_fence  */ {.counter = "keytree_rejects_total",
                          .also_counter = "epoch_fenced_total",
                          .trace = obs::TraceKind::fence,
                          .trace_detail = "stale_keytree_epoch"},
    /* epoch_fence    */ {.counter = "epoch_fenced_total",
                          .trace = obs::TraceKind::fence,
                          .trace_detail = "stale_epoch",
                          .incident = "epoch_fenced"},
    /* forged_oplog   */ {.counter = "reconcile_intrusions_total",
                          .incident = "forged_oplog"},
};
static_assert(std::size(kChannels) == kRefusalPlanes);

}  // namespace

void RefusalTally::record(Tick tick, std::string_view group,
                          std::string_view agent, Refusal plane,
                          obs::EvidenceKind kind, std::string_view accused,
                          std::string_view detail, std::uint64_t value) {
  const auto i = static_cast<std::size_t>(plane);
  const Channels& c = kChannels[i];
  ++counts_[i];
  obs::count(group, agent, c.counter);
  if (c.also_counter) obs::count(group, agent, c.also_counter);
  if (c.trace) {
    obs::trace(tick, *c.trace, group, agent, accused,
               c.trace_detail ? c.trace_detail : detail, value);
  }
  obs::security_event(tick, kind, group, agent, accused, detail, value);
  // A forged op-log or a fenced key is direct intrusion evidence, not
  // noise: dump the flight-recorder window around it.
  if (c.incident) obs::flight_incident(tick, c.incident, group, agent);
}

}  // namespace enclaves::core
