#include "wire/reconcile.h"

namespace enclaves::wire {

const char* reconcile_verdict_kind_name(ReconcileVerdictKind kind) {
  switch (kind) {
    case ReconcileVerdictKind::admit: return "admit";
    case ReconcileVerdictKind::quarantine: return "quarantine";
    case ReconcileVerdictKind::intrusion: return "intrusion";
  }
  return "?";
}

}  // namespace enclaves::wire
