#include "app/group_chat.h"

namespace enclaves::app {

const char* chat_kind_name(ChatKind kind) {
  switch (kind) {
    case ChatKind::text: return "text";
    case ChatKind::presence: return "presence";
  }
  return "?";
}

GroupChat::GroupChat(core::Member& member, Options options)
    : member_(member), options_(options) {
  member_.set_event_handler(
      [this](const core::GroupEvent& ev) { on_event(ev); });
}

Status GroupChat::publish(ChatKind kind, const std::string& content) {
  ChatMessage m{kind, member_.id(), content, own_seq_++};
  auto status = member_.send_data(wire::encode(m));
  if (!status.ok()) return status;
  if (kind == ChatKind::text) remember(std::move(m));
  if (kind == ChatKind::presence) presence_[member_.id()] = content;
  return Status::success();
}

Status GroupChat::post(const std::string& text) {
  return publish(ChatKind::text, text);
}

Status GroupChat::set_presence(const std::string& status) {
  return publish(ChatKind::presence, status);
}

void GroupChat::remember(ChatMessage m) {
  history_.push_back(std::move(m));
  while (history_.size() > options_.history_capacity) history_.pop_front();
}

void GroupChat::on_event(const core::GroupEvent& ev) {
  if (const auto* d = std::get_if<core::DataReceived>(&ev)) {
    auto m = wire::decode<ChatMessage>(d->payload);
    if (!m) {
      ++decode_failures_;
    } else {
      // The data-plane origin (honest-member authorship signal) wins over
      // whatever the payload claims; disagreement marks a forgery attempt.
      if (m->author != d->origin) {
        ++decode_failures_;
      } else {
        if (m->kind == ChatKind::presence) {
          presence_[m->author] = m->content;
        } else {
          remember(*m);
        }
        if (on_message) on_message(*m);
      }
    }
  } else if (const auto* v = std::get_if<core::ViewChanged>(&ev)) {
    // Drop presence entries for members no longer in the group.
    const auto& members = v->members();
    std::set<std::string> current(members.begin(), members.end());
    for (auto it = presence_.begin(); it != presence_.end();) {
      if (!current.count(it->first) && it->first != member_.id()) {
        it = presence_.erase(it);
      } else {
        ++it;
      }
    }
  } else if (std::holds_alternative<core::SessionClosed>(ev)) {
    presence_.clear();
  }
  if (passthrough_) passthrough_(ev);
}

}  // namespace enclaves::app
