// Benchmark-side span tracing.
//
// Spans are recorded from the benchmark's own code around each call it makes
// into the library (Leader/Member handle, send_data, join, leave,
// SimNetwork::run, TcpNode::send/poll_once, every AEAD seal/open through
// TimedAead). Nothing inside the library is instrumented. A span's self time
// is its duration minus the time its child spans cover; because the
// benchmark is single-threaded, spans nest strictly and child time is summed
// on a stack as spans close.
//
// Aggregates (calls, total, self, bytes per span name) cover every span of
// the traced phase. Individual span records are kept in memory up to a cap
// and written out at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/aead.h"

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  struct Agg {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint64_t bytes = 0;
  };
  struct Record {
    std::uint32_t name;
    std::uint32_t parent;  // index into records, kNoParent for top level
    std::uint64_t msg;     // message/op id shared by the spans of one op
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  explicit Tracer(std::size_t keep_records = 200000)
      : keep_records_(keep_records) {}

  std::uint32_t id(const std::string& name) {
    auto [it, inserted] = ids_.try_emplace(name, names_.size());
    if (inserted) {
      names_.push_back(name);
      aggs_.emplace_back();
    }
    return it->second;
  }

  bool active() const { return active_; }
  void set_active(bool on) { active_ = on; }
  void set_msg(std::uint64_t msg) { msg_ = msg; }

  void begin(std::uint32_t name) {
    stack_.push_back({name, now_ns(), 0, kNoParent});
    if (records_.size() < keep_records_) {
      std::uint32_t parent =
          stack_.size() > 1 ? stack_[stack_.size() - 2].record : kNoParent;
      stack_.back().record = static_cast<std::uint32_t>(records_.size());
      records_.push_back({name, parent, msg_, stack_.back().start, 0});
    }
  }

  void end(std::uint64_t bytes) {
    const std::int64_t t = now_ns();
    Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - f.start;
    Agg& a = aggs_[f.name];
    ++a.calls;
    a.total_ns += dur;
    a.self_ns += dur - f.child_ns;
    a.bytes += bytes;
    if (stack_.empty())
      top_level_ns_ += dur;
    else
      stack_.back().child_ns += dur;
    if (f.record != kNoParent) records_[f.record].end_ns = t;
  }

  /// Clears aggregates and kept records (names stay registered).
  void reset() {
    for (auto& a : aggs_) a = Agg{};
    records_.clear();
    top_level_ns_ = 0;
  }

  const Agg& agg(std::uint32_t name) const { return aggs_[name]; }
  const std::vector<std::string>& names() const { return names_; }
  std::int64_t top_level_ns() const { return top_level_ns_; }

  /// Sum of self time over every span whose name starts with `prefix`.
  std::int64_t self_ns_with_prefix(const std::string& prefix) const {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i].rfind(prefix, 0) == 0) sum += aggs_[i].self_ns;
    return sum;
  }

  /// One JSON object per kept span; returns spans written.
  std::size_t write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      if (r.end_ns == 0) continue;  // still open at capture end
      out << "{\"i\":" << i << ",\"name\":\"" << names_[r.name]
          << "\",\"parent\":";
      if (r.parent == kNoParent)
        out << "null";
      else
        out << r.parent;
      out << ",\"msg\":" << r.msg << ",\"start_ns\":" << r.start_ns
          << ",\"end_ns\":" << r.end_ns << "}\n";
    }
    return records_.size();
  }

 private:
  struct Frame {
    std::uint32_t name;
    std::int64_t start;
    std::int64_t child_ns;
    std::uint32_t record;
  };

  bool active_ = false;
  std::uint64_t msg_ = 0;
  std::size_t keep_records_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Agg> aggs_;
  std::vector<Frame> stack_;
  std::vector<Record> records_;
  std::int64_t top_level_ns_ = 0;
};

/// RAII span; free (one branch) when no tracer is active.
class Span {
 public:
  Span(Tracer* t, std::uint32_t name) : t_(t && t->active() ? t : nullptr) {
    if (t_) t_->begin(name);
  }
  ~Span() {
    if (t_) t_->end(bytes_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_bytes(std::uint64_t b) { bytes_ += b; }

 private:
  Tracer* t_;
  std::uint64_t bytes_ = 0;
};

/// AEAD decorator: forwards to `inner` and times every seal/open as a
/// crypto.seal / crypto.open span. Passed to Leader/Member through their
/// existing constructor parameter in the traced pass only.
class TimedAead final : public enclaves::crypto::Aead {
 public:
  TimedAead(const enclaves::crypto::Aead& inner, Tracer& tracer)
      : inner_(inner),
        tracer_(tracer),
        seal_(tracer.id("crypto.seal")),
        open_(tracer.id("crypto.open")) {}

  const char* name() const override { return inner_.name(); }

  enclaves::Bytes seal(enclaves::BytesView key, enclaves::BytesView nonce,
                       enclaves::BytesView aad,
                       enclaves::BytesView plaintext) const override {
    Span s(&tracer_, seal_);
    s.add_bytes(plaintext.size());
    return inner_.seal(key, nonce, aad, plaintext);
  }

  enclaves::Result<enclaves::Bytes> open(
      enclaves::BytesView key, enclaves::BytesView nonce,
      enclaves::BytesView aad,
      enclaves::BytesView ciphertext_and_tag) const override {
    Span s(&tracer_, open_);
    s.add_bytes(ciphertext_and_tag.size());
    auto r = inner_.open(key, nonce, aad, ciphertext_and_tag);
    if (!r && tracer_.active()) ++failed_;
    return r;
  }

  std::uint64_t failed() const { return failed_; }
  void reset_failed() { failed_ = 0; }

 private:
  const enclaves::crypto::Aead& inner_;
  Tracer& tracer_;
  std::uint32_t seal_;
  std::uint32_t open_;
  mutable std::uint64_t failed_ = 0;
};

}  // namespace e2e
