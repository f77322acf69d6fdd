// FileDrop — chunked blob transfer over the Enclaves data plane.
//
// Groupware needs to move artifacts, not just chat lines; data-plane
// envelopes are bounded (codec field caps, frame limits), so blobs are
// split into chunks, reassembled per (origin, transfer id), and verified
// against the announced SHA-256 before delivery. Chunks may arrive
// interleaved across concurrent transfers; a corrupted or truncated
// transfer is discarded and counted, never delivered.
//
// Inherited trust (same as the rest of the data plane): confidential
// against outsiders, origin advisory against malicious insiders.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/member.h"
#include "crypto/sha256.h"
#include "util/result.h"
#include "wire/fields.h"

namespace enclaves::app {

struct FileOffer {
  std::uint64_t transfer_id = 0;
  std::string name;
  std::uint64_t total_size = 0;
  std::uint32_t chunk_count = 0;
  crypto::Sha256::Digest digest{};

  static constexpr std::uint8_t kWireType = 0xE1;
  static constexpr auto kWireFields = std::tuple{
      &FileOffer::transfer_id, &FileOffer::name, &FileOffer::total_size,
      wire::AtMost{&FileOffer::chunk_count, 1u << 20}, &FileOffer::digest};
  friend bool operator==(const FileOffer&, const FileOffer&) = default;
};

struct FileChunk {
  std::uint64_t transfer_id = 0;
  std::uint32_t index = 0;
  Bytes data;

  static constexpr std::uint8_t kWireType = 0xE2;
  static constexpr auto kWireFields = std::tuple{
      &FileChunk::transfer_id, &FileChunk::index, &FileChunk::data};
  friend bool operator==(const FileChunk&, const FileChunk&) = default;
};

/// Either payload, told apart by its type octet.
using FileMessage = std::variant<FileOffer, FileChunk>;

class FileDrop {
 public:
  struct Options {
    std::size_t chunk_size = 32 * 1024;
    /// Per-sender cap on bytes buffered for incomplete transfers (a
    /// malicious or buggy sender cannot balloon our memory).
    std::size_t max_inflight_bytes = 16u << 20;
  };

  struct Received {
    std::string origin;
    std::string name;
    Bytes content;
  };

  explicit FileDrop(core::Member& member) : FileDrop(member, Options{}) {}
  FileDrop(core::Member& member, Options options);

  /// Splits `content` into chunks and publishes offer + chunks. Errors if
  /// not in session.
  Status send_file(const std::string& name, BytesView content);

  /// Fired when a transfer completes AND its digest verifies.
  std::function<void(const Received&)> on_file;

  /// Also forward the raw core events.
  void set_event_passthrough(core::EventHandler handler) {
    passthrough_ = std::move(handler);
  }

  std::uint64_t decode_failures() const { return decode_failures_; }
  /// Transfers discarded: digest mismatch, size lies, or overflow caps.
  std::uint64_t discarded_transfers() const { return discarded_; }
  /// Incomplete transfers currently buffered.
  std::size_t inflight() const { return inflight_.size(); }

 private:
  struct Inflight {
    FileOffer offer;
    std::map<std::uint32_t, Bytes> chunks;
    std::size_t buffered_bytes = 0;
  };

  void on_event(const core::GroupEvent& ev);
  void handle_offer(const std::string& origin, const FileOffer& offer);
  void handle_chunk(const std::string& origin, const FileChunk& chunk);
  void try_complete(const std::string& origin, std::uint64_t transfer_id);

  core::Member& member_;
  Options options_;
  std::uint64_t next_transfer_id_ = 1;
  std::map<std::pair<std::string, std::uint64_t>, Inflight> inflight_;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t discarded_ = 0;
  core::EventHandler passthrough_;
};

}  // namespace enclaves::app
