#include "wire/repl.h"

namespace enclaves::wire {

const char* repl_delta_kind_name(ReplDeltaKind kind) {
  switch (kind) {
    case ReplDeltaKind::credential_add: return "credential_add";
    case ReplDeltaKind::credential_update: return "credential_update";
    case ReplDeltaKind::member_joined: return "member_joined";
    case ReplDeltaKind::member_left: return "member_left";
    case ReplDeltaKind::member_expelled: return "member_expelled";
    case ReplDeltaKind::rekey: return "rekey";
  }
  return "?";
}

bool is_known_repl_delta_kind(std::uint8_t raw) {
  return *repl_delta_kind_name(static_cast<ReplDeltaKind>(raw)) != '?';
}

}  // namespace enclaves::wire
