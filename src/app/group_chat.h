// GroupChat — a typed messaging layer over the Enclaves data plane.
//
// This is the kind of groupware application the paper's introduction
// motivates: text messages and presence updates fan out through the leader,
// protected by the group key; the roster tracks the authenticated
// membership view maintained by the group-management protocol.
//
// Authorship caveat (inherited from the paper's scope): data-plane frames
// are sealed under the SHARED group key, so the author field is reliable
// only among honest members — a malicious member can forge it. Everything
// roster-related, in contrast, rides the authenticated AdminMsg channel and
// cannot be forged by insiders.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/member.h"
#include "util/result.h"
#include "wire/fields.h"

namespace enclaves::app {

enum class ChatKind : std::uint8_t {
  text = 1,      // a chat line
  presence = 2,  // free-form status ("online", "away", ...)
};

/// Stable name of a chat kind ("?" for an octet that names none).
const char* chat_kind_name(ChatKind kind);

/// Application payload inside the encrypted data plane.
struct ChatMessage {
  ChatKind kind = ChatKind::text;
  std::string author;
  std::string content;
  std::uint64_t author_seq = 0;  // author's own message counter

  static constexpr std::uint8_t kWireType = 0xC4;
  static constexpr auto kWireFields = std::tuple{
      wire::Named{&ChatMessage::kind, chat_kind_name}, &ChatMessage::author,
      &ChatMessage::author_seq, &ChatMessage::content};
  friend bool operator==(const ChatMessage&, const ChatMessage&) = default;
};

class GroupChat {
 public:
  struct Options {
    std::size_t history_capacity = 256;
  };

  /// Takes over `member`'s event handler (chaining is the caller's job if
  /// it also wants raw events — see set_event_passthrough).
  explicit GroupChat(core::Member& member) : GroupChat(member, Options{}) {}
  GroupChat(core::Member& member, Options options);

  /// Posts a chat line to the group. Errors when not in session.
  Status post(const std::string& text);

  /// Publishes a presence status visible to all members.
  Status set_presence(const std::string& status);

  /// Messages received (and our own posts), oldest first, bounded.
  const std::deque<ChatMessage>& history() const { return history_; }

  /// Last known presence per member (only those who published one).
  const std::map<std::string, std::string>& presence() const {
    return presence_;
  }

  /// The authenticated membership view (from the admin channel).
  std::vector<std::string> roster() const { return member_.view(); }

  bool connected() const { return member_.connected(); }

  /// Fired for every chat/presence message accepted (not for own posts).
  std::function<void(const ChatMessage&)> on_message;

  /// Also forward the raw core events (roster changes, epochs, ...).
  void set_event_passthrough(core::EventHandler handler) {
    passthrough_ = std::move(handler);
  }

  /// Undecodable application payloads received (hostile or version skew).
  std::uint64_t decode_failures() const { return decode_failures_; }

 private:
  void on_event(const core::GroupEvent& ev);
  Status publish(ChatKind kind, const std::string& content);
  void remember(ChatMessage m);

  core::Member& member_;
  Options options_;
  std::deque<ChatMessage> history_;
  std::map<std::string, std::string> presence_;
  std::uint64_t own_seq_ = 0;
  std::uint64_t decode_failures_ = 0;
  core::EventHandler passthrough_;
};

}  // namespace enclaves::app
