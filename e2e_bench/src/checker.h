// Delivery checker: every payload the benchmark sends carries its origin
// index and a per-origin sequence number followed by seeded filler. A
// delivery counts as good only if it arrives byte-equal, once, in per-origin
// order, at a recipient the message was promised to (the members of the
// group other than its origin at send time). Anything else is a failure of
// a named kind; promised deliveries still missing at finish() are failures
// too.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"

namespace e2e {

inline constexpr std::size_t kPayloadHeader = 12;  // u32 origin + u64 seq

/// Builds a payload of `size` bytes (>= kPayloadHeader): the header, then
/// filler drawn from a generator seeded by (seed, origin, seq).
inline enclaves::Bytes make_payload(std::uint64_t seed, std::uint32_t origin,
                                    std::uint64_t seq, std::size_t size) {
  enclaves::Bytes p(size);
  std::memcpy(p.data(), &origin, 4);
  std::memcpy(p.data() + 4, &seq, 8);
  std::uint64_t x =
      seed ^ (std::uint64_t{origin} << 40) ^ (seq * 0x9E3779B97F4A7C15ull);
  for (std::size_t i = kPayloadHeader; i < size; i += 8) {
    x += 0x9E3779B97F4A7C15ull;  // splitmix64
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::memcpy(p.data() + i, &z, std::min<std::size_t>(8, size - i));
  }
  return p;
}

class DeliveryChecker {
 public:
  struct Counts {
    std::uint64_t promised = 0;   // deliveries promised by sent messages
    std::uint64_t delivered = 0;  // good deliveries
    std::uint64_t corrupted = 0;  // wrong bytes, bad header or wrong origin
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;  // older than a seq already delivered
    std::uint64_t unexpected = 0;  // to a recipient not promised the message
    std::uint64_t missing = 0;     // promised, not delivered by finish()
    std::uint64_t refused = 0;     // messages the relay refused (not promised)

    std::uint64_t failures() const {
      return corrupted + duplicated + reordered + unexpected + missing;
    }
  };

  /// What a delivery resolved to. `sent_ns` >= 0 only for a good delivery;
  /// `completed` when it was the message's last promised delivery.
  struct Outcome {
    std::int64_t sent_ns = -1;
    bool completed = false;
    std::uint32_t origin = 0;
  };

  explicit DeliveryChecker(std::vector<std::string> ids)
      : ids_(std::move(ids)),
        last_seq_(ids_.size() * ids_.size(), kNone) {}

  /// Registers a sent message. `expect[i]` != 0 marks recipient i.
  void sent(std::uint32_t origin, std::uint64_t seq, enclaves::Bytes payload,
            const std::vector<std::uint8_t>& expect, std::int64_t sent_ns) {
    Pending p{std::move(payload), expect, 0, sent_ns};
    for (auto e : expect) p.remaining += e ? 1 : 0;
    counts_.promised += p.remaining;
    pending_.insert_or_assign(key(origin, seq), std::move(p));
  }

  Outcome delivered(std::uint32_t recipient, std::string_view origin_name,
                    enclaves::BytesView payload) {
    Outcome out;
    if (payload.size() < kPayloadHeader) {
      ++counts_.corrupted;
      return out;
    }
    std::uint32_t origin = 0;
    std::uint64_t seq = 0;
    std::memcpy(&origin, payload.data(), 4);
    std::memcpy(&seq, payload.data() + 4, 8);
    if (origin >= ids_.size() || ids_[origin] != origin_name) {
      ++counts_.corrupted;
      return out;
    }
    out.origin = origin;
    std::uint64_t& last = last_seq_[recipient * ids_.size() + origin];
    auto it = pending_.find(key(origin, seq));
    if (it == pending_.end()) {
      // Already completed (or never sent): a repeat or a stray.
      if (last != kNone && seq <= last)
        ++counts_.duplicated;
      else
        ++counts_.unexpected;
      return out;
    }
    Pending& p = it->second;
    if (recipient >= p.expect.size() || p.expect[recipient] == 0) {
      if (p.expect.size() > recipient && p.expect[recipient] == 0 &&
          last == seq)
        ++counts_.duplicated;
      else
        ++counts_.unexpected;
      return out;
    }
    if (!enclaves::equal(payload, p.payload)) {
      ++counts_.corrupted;
      return out;
    }
    if (last != kNone && seq <= last) {
      ++counts_.reordered;
      return out;
    }
    last = seq;
    p.expect[recipient] = 0;
    ++counts_.delivered;
    out.sent_ns = p.sent_ns;
    if (--p.remaining == 0) {
      out.completed = true;
      pending_.erase(it);
    }
    return out;
  }

  /// The relay refused the message (e.g. sealed under an epoch that moved
  /// on while it was in flight): its deliveries are no longer promised.
  void refused(std::uint32_t origin, std::uint64_t seq) {
    auto it = pending_.find(key(origin, seq));
    if (it == pending_.end()) return;
    counts_.promised -= it->second.remaining;
    ++counts_.refused;
    pending_.erase(it);
  }

  /// Drops recipient `i` from every pending message (it left the group
  /// while they were in flight); a later delivery to it is unexpected.
  void withdraw(std::uint32_t recipient) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& p = it->second;
      if (recipient < p.expect.size() && p.expect[recipient]) {
        p.expect[recipient] = 0;
        --counts_.promised;
        if (--p.remaining == 0) {
          it = pending_.erase(it);
          continue;
        }
      }
      ++it;
    }
  }

  /// Counts every promised delivery still outstanding as missing.
  void finish() {
    for (const auto& [k, p] : pending_) counts_.missing += p.remaining;
    pending_.clear();
  }

  std::size_t in_flight() const { return pending_.size(); }
  const Counts& counts() const { return counts_; }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  struct Pending {
    enclaves::Bytes payload;
    std::vector<std::uint8_t> expect;
    std::uint32_t remaining;
    std::int64_t sent_ns;
  };
  static std::uint64_t key(std::uint32_t origin, std::uint64_t seq) {
    return (std::uint64_t{origin} << 44) ^ seq;
  }

  std::vector<std::string> ids_;
  std::vector<std::uint64_t> last_seq_;  // [recipient * n + origin]
  std::unordered_map<std::uint64_t, Pending> pending_;
  Counts counts_;
};

}  // namespace e2e
