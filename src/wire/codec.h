// Bounds-checked binary encoding.
//
// All integers are big-endian. Variable-length data is u32-length-prefixed.
// The Reader never reads past its input and returns Result errors instead of
// throwing: malformed input is normal, adversarial traffic.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/result.h"

namespace enclaves::wire {

/// Maximum length accepted for any single variable-length field. Prevents a
/// forged length prefix from driving a huge allocation.
constexpr std::uint32_t kMaxFieldLen = 1 << 20;  // 1 MiB

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Raw bytes, no length prefix (fixed-size fields).
  void raw(BytesView b);
  /// u32 length prefix + bytes.
  void var_bytes(BytesView b);
  /// u32 length prefix + characters.
  void str(std::string_view s);

  const Bytes& bytes() const& { return out_; }
  Bytes take() && { return std::move(out_); }

 private:
  Bytes out_;
};

class Reader {
 public:
  explicit Reader(BytesView in) : in_(in) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  /// Exactly `n` raw bytes.
  Result<Bytes> raw(std::size_t n);
  Result<Bytes> var_bytes();
  Result<std::string> str();
  /// As raw() and var_bytes(), but viewing the input instead of copying it.
  Result<BytesView> view(std::size_t n);
  Result<BytesView> var_view();

  std::size_t remaining() const { return in_.size() - pos_; }
  bool at_end() const { return remaining() == 0; }

  /// Succeeds only if the whole input was consumed — decoders call this last
  /// so that trailing garbage is rejected rather than silently ignored.
  Status expect_end() const;

 private:
  BytesView in_;
  std::size_t pos_ = 0;
};

}  // namespace enclaves::wire
