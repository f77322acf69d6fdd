#include "wire/keytree.h"

namespace enclaves::wire {

const char* keytree_reason_name(KeyTreeReason reason) {
  switch (reason) {
    case KeyTreeReason::join: return "join";
    case KeyTreeReason::leave: return "leave";
    case KeyTreeReason::manual: return "manual";
    case KeyTreeReason::rebuild: return "rebuild";
  }
  return "?";
}

}  // namespace enclaves::wire
