#include "wire/envelope.h"

namespace enclaves::wire {

const char* label_name(Label label) {
  switch (label) {
    case Label::AuthInitReq: return "AuthInitReq";
    case Label::AuthKeyDist: return "AuthKeyDist";
    case Label::AuthAckKey: return "AuthAckKey";
    case Label::AdminMsg: return "AdminMsg";
    case Label::Ack: return "Ack";
    case Label::ReqClose: return "ReqClose";
    case Label::LegacyReqOpen: return "LegacyReqOpen";
    case Label::LegacyAckOpen: return "LegacyAckOpen";
    case Label::LegacyConnectionDenied: return "LegacyConnectionDenied";
    case Label::LegacyAuthInit: return "LegacyAuthInit";
    case Label::LegacyAuthReply: return "LegacyAuthReply";
    case Label::LegacyAuthAck: return "LegacyAuthAck";
    case Label::LegacyNewKey: return "LegacyNewKey";
    case Label::LegacyNewKeyAck: return "LegacyNewKeyAck";
    case Label::LegacyMemRemoved: return "LegacyMemRemoved";
    case Label::LegacyMemAdded: return "LegacyMemAdded";
    case Label::LegacyReqClose: return "LegacyReqClose";
    case Label::LegacyCloseConnection: return "LegacyCloseConnection";
    case Label::GroupData: return "GroupData";
    case Label::ReplDelta: return "ReplDelta";
    case Label::ReplSnapshot: return "ReplSnapshot";
    case Label::ReplAck: return "ReplAck";
    case Label::ReplHeartbeat: return "ReplHeartbeat";
    case Label::ReconcileOffer: return "ReconcileOffer";
    case Label::ReconcileVerdict: return "ReconcileVerdict";
    case Label::OpReplay: return "OpReplay";
    case Label::KeyTreeUpdate: return "KeyTreeUpdate";
    case Label::KeyTreeRecover: return "KeyTreeRecover";
    case Label::KeyTreePath: return "KeyTreePath";
    case Label::FedRedirect: return "FedRedirect";
    case Label::FedMigrateOffer: return "FedMigrateOffer";
    case Label::FedMigrateAck: return "FedMigrateAck";
    case Label::FedMigrateCommit: return "FedMigrateCommit";
    case Label::FedDirSync: return "FedDirSync";
  }
  return "?";
}

bool is_known_label(std::uint8_t raw) {
  return *label_name(static_cast<Label>(raw)) != '?';
}

std::string describe(const Envelope& e) {
  std::string s = label_name(e.label);
  s += " ";
  s += e.sender;
  s += "->";
  s += e.recipient;
  s += " (";
  s += std::to_string(e.body.size());
  s += "B)";
  return s;
}

}  // namespace enclaves::wire
