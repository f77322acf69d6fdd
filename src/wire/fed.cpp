#include "wire/fed.h"

namespace enclaves::wire {

const char* fed_migrate_verdict_name(FedMigrateVerdict verdict) {
  switch (verdict) {
    case FedMigrateVerdict::accept: return "accept";
    case FedMigrateVerdict::refuse: return "refuse";
  }
  return "?";
}

}  // namespace enclaves::wire
