// AdminHistory — the paper's snd_A / rcv_A lists (Section 5.4), bounded.
//
// The verification property only ever compares the two lists position by
// position, so a session keeps the last kAdminHistoryWindow bodies plus an
// exact count of every body it has logged. A member that stays in session
// across many membership changes then holds O(1) history instead of one
// body per change for the life of the session. bodies()[j] is the body at
// absolute position count() - bodies().size() + j of the session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "wire/admin_body.h"

namespace enclaves::core {

/// Admin bodies each session side retains (a constant, not a setting).
inline constexpr std::size_t kAdminHistoryWindow = 64;

class AdminHistory {
 public:
  void push(wire::AdminBody body) {
    if (bodies_.size() == kAdminHistoryWindow) bodies_.pop_front();
    bodies_.push_back(std::move(body));
    ++count_;
  }

  void clear() {
    bodies_.clear();
    count_ = 0;
  }

  /// The retained bodies, oldest first (at most kAdminHistoryWindow).
  const std::deque<wire::AdminBody>& bodies() const { return bodies_; }

  /// Bodies logged this session, retained or not.
  std::uint64_t count() const { return count_; }

 private:
  std::deque<wire::AdminBody> bodies_;
  std::uint64_t count_ = 0;
};

}  // namespace enclaves::core
