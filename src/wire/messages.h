// Every wire message, by family — the registry the decoder sweeps iterate.
//
// A family is the set of payloads one plane carries under its own envelope
// labels. Type octets are unique within a family, not across families: the
// repl family (0xB1-0xB4) reuses legacy octets (0xB1-0xB6), and fed
// (0xC1-0xC5) reuses reconcile's (0xC1-0xC3). Families are kept apart by
// the envelope label: receivers dispatch on it, and seal.h binds it into the
// AEAD associated data, so a body sealed under one label never opens under
// another. The Envelope has no type octet: its first octet is the label.
#pragma once

#include <tuple>

#include "wire/admin_body.h"
#include "wire/envelope.h"
#include "wire/fed.h"
#include "wire/keytree.h"
#include "wire/legacy_payloads.h"
#include "wire/payloads.h"
#include "wire/reconcile.h"
#include "wire/repl.h"

namespace enclaves::wire {

using ProtocolMessages =
    std::tuple<AuthInitPayload, AuthKeyDistPayload, AuthAckPayload,
               AdminPayload, AckPayload, ReqClosePayload, GroupDataPayload>;
using LegacyMessages =
    std::tuple<LegacyAuthInitPayload, LegacyAuthReplyPayload,
               LegacyAuthAckPayload, LegacyNewKeyPayload,
               LegacyNewKeyAckPayload, LegacyMembershipPayload>;
using ReplMessages = std::tuple<ReplDeltaPayload, ReplSnapshotPayload,
                                ReplAckPayload, ReplHeartbeatPayload>;
using ReconcileMessages = std::tuple<ReconcileOfferPayload,
                                     ReconcileVerdictPayload, OpReplayPayload>;
using KeyTreeMessages = std::tuple<KeyTreeNodeKek, KeyTreeUpdatePayload,
                                   KeyTreeRecoverPayload, KeyTreePathPayload>;
using FedMessages =
    std::tuple<FedRedirectPayload, FedMigrateOfferPayload,
               FedMigrateAckPayload, FedMigrateCommitPayload,
               FedDirSyncPayload>;

/// Each family is a std::tuple of messages, or a std::variant whose
/// alternatives are told apart by their type octet (AdminBody).
using WireFamilies =
    std::tuple<ProtocolMessages, AdminBody, LegacyMessages, ReplMessages,
               ReconcileMessages, KeyTreeMessages, FedMessages>;

}  // namespace enclaves::wire
