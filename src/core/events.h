// Observable events surfaced to the application by Member and Leader.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "util/bytes.h"
#include "wire/admin_body.h"

namespace enclaves::core {

/// The member completed authentication and holds a session key.
struct SessionEstablished {};

/// The member's session ended (voluntary leave, expulsion, or local close).
struct SessionClosed {
  std::string reason;
};

/// A group-management message was accepted (authenticated, fresh, in order).
struct AdminAccepted {
  wire::AdminBody body;
};

/// The membership view changed by one admin body. The event carries the
/// change, not the view: each member applies every join/leave notice the
/// leader fans out, so a per-event roster copy would cost O(N) per member
/// per change (O(N^2) across the group). Applications that need the whole
/// roster call Member::view() when they need it.
struct ViewChanged {
  enum class Kind : std::uint8_t {
    joined,    // `member` entered the view (MemberJoined)
    left,      // `member` left the view (MemberLeft)
    replaced,  // the whole view was replaced (MemberList); `member` empty
  };
  Kind kind = Kind::replaced;
  std::string member;
  std::size_t size = 0;  // members in the view after the change
};

/// A new group key took effect.
struct EpochChanged {
  std::uint64_t epoch;
};

/// Application data relayed through the leader was received and decrypted.
struct DataReceived {
  std::string origin;  // claimed author — forgeable by insiders (see docs)
  Bytes payload;
};

using GroupEvent = std::variant<SessionEstablished, SessionClosed,
                                AdminAccepted, ViewChanged, EpochChanged,
                                DataReceived>;

using EventHandler = std::function<void(const GroupEvent&)>;

}  // namespace enclaves::core
