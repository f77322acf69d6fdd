// The one JSON reader behind every parser of the JSON this repo writes:
// MetricsSnapshot::from_json, ProfSnapshot::from_json, BENCH blobs
// (tools/bench_diff_lib.h), and the /flight and flight-dump records the
// top and postmortem tools read.
//
// A token cursor, not a DOM: callers walk objects and arrays themselves
// with eat()/peek(), so each format keeps its own strictness (unknown
// fields, required sections, trailing garbage). Every read is bounds-
// checked; hostile input fails with Errc::malformed (or Errc::truncated
// when the text ends mid-token), never reads past the end.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "util/result.h"

namespace enclaves::obs::json {

struct Cursor {
  explicit Cursor(std::string_view text) : s_(text) {}

  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r'))
      ++pos_;
  }

  /// Skips whitespace, then consumes `c` if it is next.
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Skips whitespace, then reports whether `c` is next.
  bool peek(char c) {
    skip_ws();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  /// True when nothing but whitespace remains.
  bool at_end() {
    skip_ws();
    return pos_ == s_.size();
  }

  /// A quoted string with the escapes obs/json_escape.h emits, plus `\/`.
  /// `\u` escapes must name a single byte (<= 0xFF).
  Result<std::string> string() {
    if (!eat('"')) return Errc::malformed;
    std::string out;
    while (pos_ < s_.size()) {
      const char ch = s_[pos_++];
      if (ch == '"') return out;
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= s_.size()) return Errc::truncated;
      switch (s_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Errc::truncated;
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              v |= static_cast<unsigned>(h - 'A' + 10);
            else
              return Errc::malformed;
          }
          if (v > 0xFF) return Errc::malformed;  // we only emit byte escapes
          out += static_cast<char>(v);
          break;
        }
        default: return Errc::malformed;
      }
    }
    return Errc::truncated;
  }

  /// Strict unsigned integer: ASCII digits only (no sign, fraction or
  /// exponent), refused when it does not fit in 64 bits.
  Result<std::uint64_t> uint() {
    skip_ws();
    return digits();
  }

  /// Strict signed integer: an optional '-' directly followed by uint()
  /// digits, refused outside the int64 range.
  Result<std::int64_t> int64() {
    skip_ws();
    const bool negative = pos_ < s_.size() && s_[pos_] == '-';
    if (negative) ++pos_;
    auto v = digits();
    if (!v) return v.error();
    constexpr auto kMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    if (*v > kMax + (negative ? 1 : 0)) return Errc::malformed;
    // Two's-complement negation in unsigned space: INT64_MIN stays defined.
    return static_cast<std::int64_t>(negative ? 0 - *v : *v);
  }

  /// Any number google-benchmark or the tools write (sign, digits, '.',
  /// exponent), via strtod.
  Result<double> number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
    while (pos_ < s_.size() &&
           (digit(s_[pos_]) || s_[pos_] == '.' || s_[pos_] == 'e' ||
            s_[pos_] == 'E' || s_[pos_] == '-' || s_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) return Errc::malformed;
    const std::string text(s_.substr(start, pos_ - start));
    char* endp = nullptr;
    const double value = std::strtod(text.c_str(), &endp);
    if (endp != text.c_str() + text.size()) return Errc::malformed;
    return value;
  }

  /// number(), saturated into the uint64 range (negative and NaN give 0),
  /// for counts that travel as JSON numbers.
  Result<std::uint64_t> number_u64() {
    auto v = number();
    if (!v) return v.error();
    if (!(*v > 0)) return std::uint64_t{0};
    if (*v >= 18446744073709551616.0)  // 2^64
      return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(*v);
  }

  Result<bool> boolean() {
    skip_ws();
    if (s_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (s_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
    return Errc::malformed;
  }

  /// Consumes the balanced object starting at the next '{' and returns its
  /// raw text (string-aware brace counting), for a nested format's own
  /// parser.
  Result<std::string_view> raw_object() {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != '{') return Errc::malformed;
    const std::size_t start = pos_;
    int depth = 0;
    bool in_string = false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (in_string) {
        if (c == '\\') {
          if (pos_ < s_.size()) ++pos_;
        } else if (c == '"') {
          in_string = false;
        }
        continue;
      }
      if (c == '"') in_string = true;
      else if (c == '{') ++depth;
      else if (c == '}' && --depth == 0)
        return s_.substr(start, pos_ - start);
    }
    return Errc::truncated;
  }

 private:
  static bool digit(char c) { return c >= '0' && c <= '9'; }

  Result<std::uint64_t> digits() {
    if (pos_ >= s_.size() || !digit(s_[pos_])) return Errc::malformed;
    std::uint64_t v = 0;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    while (pos_ < s_.size() && digit(s_[pos_])) {
      const auto d = static_cast<std::uint64_t>(s_[pos_++] - '0');
      if (v > (kMax - d) / 10) return Errc::malformed;
      v = v * 10 + d;
    }
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// Moves a successful read into `out`: `if (!assign(r.uint(), h.count))`.
template <typename T>
bool assign(Result<T> read, T& out) {
  if (!read) return false;
  out = *std::move(read);
  return true;
}

}  // namespace enclaves::obs::json
