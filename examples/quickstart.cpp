// Quickstart: the smallest complete Enclaves application.
//
// One leader and three members on the deterministic simulated network:
// everyone registers a password, joins via the intrusion-tolerant
// authentication protocol, exchanges a few group messages, the leader
// rotates the group key, and a member leaves. Every membership-view change
// is narrated.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "core/leader.h"
#include "core/member.h"
#include "crypto/password.h"
#include "net/sim_network.h"
#include "util/rng.h"

using namespace enclaves;

namespace {

std::string join_ids(const std::vector<std::string>& ids) {
  std::string s;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i) s += ", ";
    s += ids[i];
  }
  return s.empty() ? "(empty)" : s;
}

}  // namespace

int main() {
  std::printf("Enclaves quickstart\n");
  std::printf("===================\n\n");

  net::SimNetwork net;
  OsRng rng;

  // --- The leader. Rekey on every join and leave (the strict policy).
  core::Leader leader(core::LeaderConfig{"L", core::RekeyPolicy::strict()},
                      rng);
  leader.set_send([&net](const std::string& to, wire::Envelope e) {
    net.send(to, std::move(e));
  });
  net.attach("L", [&leader](const wire::Envelope& e) { leader.handle(e); });
  leader.on_member_joined = [](const std::string& id) {
    std::printf("[leader] %s joined the group\n", id.c_str());
  };
  leader.on_member_left = [](const std::string& id) {
    std::printf("[leader] %s left the group\n", id.c_str());
  };

  // --- Members. Each derives its long-term key Pa from a password that the
  // leader also knows (registered out of band, as the paper assumes).
  std::map<std::string, std::unique_ptr<core::Member>> members;
  auto add_member = [&](const std::string& id, const std::string& password) {
    auto pa = crypto::derive_long_term_key(id, password);
    if (auto s = leader.register_member(id, pa); !s.ok()) {
      std::printf("registration failed: %s\n", s.error().to_string().c_str());
      return;
    }
    auto m = std::make_unique<core::Member>(id, "L", pa, rng);
    m->set_send([&net](const std::string& to, wire::Envelope e) {
      net.send(to, std::move(e));
    });
    auto* raw = m.get();
    m->set_event_handler([id, raw](const core::GroupEvent& ev) {
      if (std::holds_alternative<core::ViewChanged>(ev)) {
        std::printf("[%s] my view of the group: %s\n", id.c_str(),
                    join_ids(raw->view()).c_str());
      } else if (const auto* d = std::get_if<core::DataReceived>(&ev)) {
        std::printf("[%s] <%s> %s\n", id.c_str(), d->origin.c_str(),
                    to_string(d->payload).c_str());
      } else if (const auto* ep = std::get_if<core::EpochChanged>(&ev)) {
        std::printf("[%s] new group key, epoch %llu\n", id.c_str(),
                    static_cast<unsigned long long>(ep->epoch));
      }
    });
    net.attach(id, [raw](const wire::Envelope& e) { raw->handle(e); });
    members[id] = std::move(m);
  };

  add_member("alice", "correct horse battery staple");
  add_member("bob", "hunter2");
  add_member("carol", "tr0ub4dor&3");

  std::printf("-- alice joins --\n");
  (void)members["alice"]->join();
  net.run();

  std::printf("\n-- bob joins --\n");
  (void)members["bob"]->join();
  net.run();

  std::printf("\n-- carol joins --\n");
  (void)members["carol"]->join();
  net.run();

  std::printf("\n-- group chat --\n");
  (void)members["alice"]->send_data(to_bytes("hello, group!"));
  net.run();
  (void)members["bob"]->send_data(to_bytes("hi alice"));
  net.run();

  std::printf("\n-- leader rotates the group key --\n");
  leader.rekey();
  net.run();

  std::printf("\n-- carol leaves (strict policy rekeys the survivors) --\n");
  (void)members["carol"]->leave();
  net.run();

  (void)members["alice"]->send_data(to_bytes("carol can no longer read this"));
  net.run();

  std::printf("\nleader epoch: %llu, members: %s\n",
              static_cast<unsigned long long>(leader.epoch()),
              join_ids(leader.members()).c_str());
  std::printf("protocol messages on the wire: %llu, rejected inputs: %llu\n",
              static_cast<unsigned long long>(net.packets_sent()),
              static_cast<unsigned long long>(leader.rejected_inputs()));
  return 0;
}
