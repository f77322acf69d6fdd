#include "workloads.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "core/leader.h"
#include "core/member.h"
#include "crypto/keys.h"
#include "net/sim_network.h"
#include "net/tcp.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/security.h"
#include "obs/trace.h"
#include "stats.h"
#include "trace.h"
#include "util/rng.h"
#include "wire/frame.h"

namespace e2e {
namespace {

using namespace enclaves;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double quantile(std::vector<std::uint32_t>& v, double q) {
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

std::size_t group_size(Workload w, bool tiny) {
  switch (w) {
    case Workload::sim_relay_64: return tiny ? 8 : 64;
    case Workload::sim_churn_tree_256: return tiny ? 16 : 256;
    case Workload::tcp_mixed_4: return 4;
  }
  return 0;
}

std::uint32_t depth_for(std::size_t n) {
  std::uint32_t d = 1;
  while ((std::size_t{1} << d) < n) ++d;
  return d;
}

core::LeaderConfig leader_config(Workload w, bool tiny) {
  core::LeaderConfig c;
  c.id = "L";
  switch (w) {
    case Workload::sim_relay_64:
      c.rekey = core::RekeyPolicy::manual();
      break;
    case Workload::sim_churn_tree_256:
      c.rekey = core::RekeyPolicy::tree();
      // Capacity for the whole group, so the tree never grows mid-run.
      c.keytree_depth = depth_for(group_size(w, tiny));
      break;
    case Workload::tcp_mixed_4:
      c.rekey = core::RekeyPolicy::strict();
      c.rekey.every_n_messages = 64;
      break;
  }
  return c;
}

constexpr std::size_t kCaptureCap = 8192;  // envelopes kept for wire replay

// ---------------------------------------------------------------------------
// Group: the leader, its members, and the benchmark's bookkeeping around
// every call into them. Transport wiring lives in the subclasses.

class Group {
 public:
  Group(const PassConfig& cfg, const crypto::Aead& aead, Tracer* tracer)
      : cfg_(cfg),
        tracer_(tracer),
        proto_rng_(cfg.seed * 0x100000001B3ull + 17),
        input_rng_(cfg.seed),
        leader(leader_config(cfg.workload, cfg.tiny), proto_rng_, aead),
        ids(make_ids(group_size(cfg.workload, cfg.tiny))),
        checker(ids) {
    const std::size_t n = ids.size();
    in_group.assign(n, 0);
    join_start_.assign(n, 0);
    next_seq_.assign(n, 0);
    inflight_.assign(n, kIdle);
    expect_.assign(n, 0);
    leader_spans_.fill(kUnset);
    member_spans_.fill(kUnset);
    if (tracer_) {
      sp_send_data_ = tracer_->id("core.send_data");
      sp_join_ = tracer_->id("core.join");
      sp_leave_ = tracer_->id("core.leave");
      sp_deliver_ = tracer_->id("bench.deliver");
      sp_payload_ = tracer_->id("bench.payload");
      sp_capture_ = tracer_->id("bench.capture");
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      index_of_[ids[i]] = i;
      auto pa = crypto::LongTermKey::random(proto_rng_);
      if (!leader.register_member(ids[i], pa))
        problem("register_member refused " + ids[i]);
      members.push_back(std::make_unique<core::Member>(ids[i], "L", pa,
                                                       proto_rng_, aead));
      members.back()->set_event_handler(
          [this, i](const core::GroupEvent& ev) { on_event(i, ev); });
    }
  }
  virtual ~Group() = default;
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  /// Connects every member and brings the group to one agreed epoch.
  virtual void setup() = 0;
  /// One closed-loop step of the workload.
  virtual void step() = 0;
  /// Finishes in-flight work after the timed phase.
  virtual void drain() {}
  virtual void reset_layer_counters() {}
  /// Per-layer numbers only this transport has.
  virtual void add_layer_metrics(PassResult&, double /*ops*/) {}

  /// End of pass: missing deliveries, unconverged rekeys, epoch agreement.
  void final_check() {
    quiescent_check();
    checker.finish();
  }

  std::uint64_t rejected_inputs() const {
    std::uint64_t n = leader.rejected_inputs();
    for (const auto& m : members) n += m->data_rejects();
    return n;
  }

  void set_timing(bool on) { timing_ = on; }
  std::vector<std::uint32_t>& latencies() { return lat_ns_; }

  const PassConfig& cfg_;
  Tracer* tracer_;
  DeterministicRng proto_rng_;  // keys and nonces
  DeterministicRng input_rng_;  // the workload's inputs: senders, sizes
  core::Leader leader;
  std::vector<std::string> ids;
  std::vector<std::unique_ptr<core::Member>> members;
  DeliveryChecker checker;
  std::vector<std::uint8_t> in_group;  // membership as the benchmark drove it

  std::uint64_t ops = 0;            // messages delivered to every recipient
  std::uint64_t payload_bytes = 0;  // application bytes delivered
  std::vector<double> join_ms, rekey_ms;
  std::uint64_t joins = 0, joins_failed = 0;
  std::uint64_t rekeys = 0, rekeys_failed = 0;
  std::uint64_t stale_refusals = 0;
  std::vector<std::string> problems;
  std::uint64_t keytree_updates = 0, keytree_update_bytes = 0;

 protected:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};
  static constexpr std::uint32_t kUnset = ~std::uint32_t{0};

  static std::vector<std::string> make_ids(std::size_t n) {
    std::vector<std::string> v;
    for (std::size_t i = 0; i < n; ++i) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "m%03zu", i);
      v.emplace_back(buf);
    }
    return v;
  }

  void problem(std::string what) {
    if (problems.size() < 32) problems.push_back(std::move(what));
  }

  bool tracing() const { return tracer_ && tracer_->active(); }

  std::uint32_t span_for(std::array<std::uint32_t, 256>& table,
                         const char* side, wire::Label label) {
    auto& slot = table[static_cast<std::uint8_t>(label)];
    if (slot == kUnset)
      slot = tracer_->id(std::string("core.") + side + "." +
                         wire::label_name(label));
    return slot;
  }

  /// Spans of one message share an id: the sealed body's AEAD nonce for
  /// data (identical in every relayed copy), the step count otherwise.
  void tag_message(const wire::Envelope& e) {
    if (!tracing()) return;
    std::uint64_t id = step_count_;
    if (e.label == wire::Label::GroupData && e.body.size() >= 8)
      std::memcpy(&id, e.body.data(), 8);
    tracer_->set_msg(id);
  }

  /// Payload size drawn from a seeded mix: cumulative percent -> bytes.
  std::size_t pick_size(
      std::initializer_list<std::pair<int, std::size_t>> mix) {
    const int roll = static_cast<int>(input_rng_.below(100));
    for (const auto& [cum, size] : mix)
      if (roll < cum) return size;
    return mix.end()[-1].second;
  }

  /// Observes outgoing envelopes on every transport.
  void note_sent(const wire::Envelope& e) {
    if (e.label == wire::Label::KeyTreeUpdate && timing_) {
      ++keytree_updates;
      keytree_update_bytes += e.body.size();
    }
  }

  void leader_handle(const wire::Envelope& e) {
    tag_message(e);
    const std::uint64_t epoch0 = leader.epoch();
    const std::uint64_t relayed0 = leader.relayed_count();
    const std::int64_t t0 = now_ns();
    {
      Span s(tracer_, tracer_ ? span_for(leader_spans_, "leader", e.label) : 0);
      leader.handle(e);
    }
    if (leader.epoch() != epoch0) on_leader_rekey(t0);
    if (e.label == wire::Label::GroupData &&
        leader.relayed_count() == relayed0)
      on_refused(e.sender);
  }

  void member_handle(std::uint32_t i, const wire::Envelope& e) {
    tag_message(e);
    Span s(tracer_, tracer_ ? span_for(member_spans_, "member", e.label) : 0);
    members[i]->handle(e);
  }

  void join(std::uint32_t i) {
    ++joins;
    join_start_[i] = now_ns();
    Span s(tracer_, sp_join_);
    if (!members[i]->join()) problem("join() refused for " + ids[i]);
  }

  void leave(std::uint32_t i) {
    in_group[i] = 0;
    checker.withdraw(i);
    for (auto it = pending_rekeys_.begin(); it != pending_rekeys_.end();) {
      if (it->waiting[i] && (it->waiting[i] = 0, --it->remaining == 0)) {
        finish_rekey(*it);
        it = pending_rekeys_.erase(it);
      } else {
        ++it;
      }
    }
    pending_leave_ns_ = now_ns();
    Span s(tracer_, sp_leave_);
    if (!members[i]->leave()) problem("leave() refused for " + ids[i]);
  }

  /// Sends one message of `size` bytes from `origin` to the current group.
  void send(std::uint32_t origin, std::size_t size) {
    const std::uint64_t seq = next_seq_[origin]++;
    Bytes payload;
    {
      Span s(tracer_, sp_payload_);
      payload = make_payload(cfg_.seed, origin, seq, size);
      expect_ = in_group;
      expect_[origin] = 0;
    }
    inflight_[origin] = seq;
    const std::int64_t t0 = now_ns();
    Status st;
    {
      Span s(tracer_, sp_send_data_);
      st = members[origin]->send_data(payload);
    }
    Span s(tracer_, sp_payload_);
    if (!st) {
      problem("send_data refused for " + ids[origin]);
      inflight_[origin] = kIdle;
      return;
    }
    checker.sent(origin, seq, std::move(payload), expect_, t0);
  }

  bool idle(std::uint32_t i) const { return inflight_[i] == kIdle; }

  /// Group-wide invariants at a point where nothing is in flight.
  void quiescent_check() {
    for (const auto& r : pending_rekeys_) {
      ++rekeys_failed;
      problem("rekey to epoch " + std::to_string(r.epoch) +
              " never reached " + std::to_string(r.remaining) + " members");
    }
    pending_rekeys_.clear();
    pending_leave_ns_ = 0;
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      if (join_start_[i]) {
        ++joins_failed;
        join_start_[i] = 0;
        problem("join of " + ids[i] + " did not complete");
      }
    }
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      const auto& m = *members[i];
      if (in_group[i] && (!m.connected() || m.epoch() != leader.epoch())) {
        ++rekeys_failed;
        problem(ids[i] + " disagrees on the epoch: " +
                std::to_string(m.epoch()) + " vs leader " +
                std::to_string(leader.epoch()));
        break;
      }
    }
  }

  std::uint64_t step_count_ = 0;

 private:
  struct PendingRekey {
    std::uint64_t epoch;
    std::int64_t trigger_ns;
    std::uint32_t remaining;
    std::vector<std::uint8_t> waiting;
  };

  void on_event(std::uint32_t i, const core::GroupEvent& ev) {
    if (const auto* d = std::get_if<core::DataReceived>(&ev)) {
      Span s(tracer_, sp_deliver_);
      const std::int64_t t = now_ns();
      const auto out = checker.delivered(i, d->origin, d->payload);
      if (out.sent_ns >= 0) {
        payload_bytes += d->payload.size();
        if (timing_)
          lat_ns_.push_back(static_cast<std::uint32_t>(
              std::min<std::int64_t>(t - out.sent_ns, 0xffffffff)));
      }
      if (out.completed) {
        ++ops;
        inflight_[out.origin] = kIdle;
      }
      return;
    }
    if (const auto* ep = std::get_if<core::EpochChanged>(&ev))
      epoch_reached(i, ep->epoch);
    if (join_start_[i]) {
      const auto& m = *members[i];
      if (m.connected() && m.has_group_key() && m.epoch() == leader.epoch()) {
        if (timing_)
          join_ms.push_back(static_cast<double>(now_ns() - join_start_[i]) /
                            1e6);
        join_start_[i] = 0;
        in_group[i] = 1;
      }
    }
  }

  /// The leader's epoch moved inside handle(): a rekey was triggered,
  /// either by the leave() that led here or by this very handle call.
  void on_leader_rekey(std::int64_t handle_start) {
    ++rekeys;
    PendingRekey r{leader.epoch(),
                   pending_leave_ns_ ? pending_leave_ns_ : handle_start, 0,
                   std::vector<std::uint8_t>(members.size(), 0)};
    pending_leave_ns_ = 0;
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      if ((in_group[i] || join_start_[i]) && members[i]->epoch() < r.epoch) {
        r.waiting[i] = 1;
        ++r.remaining;
      }
    }
    if (r.remaining == 0)
      finish_rekey(r);
    else
      pending_rekeys_.push_back(std::move(r));
  }

  void epoch_reached(std::uint32_t i, std::uint64_t epoch) {
    for (auto it = pending_rekeys_.begin(); it != pending_rekeys_.end();) {
      if (epoch >= it->epoch && it->waiting[i]) {
        it->waiting[i] = 0;
        if (--it->remaining == 0) {
          finish_rekey(*it);
          it = pending_rekeys_.erase(it);
          continue;
        }
      }
      ++it;
    }
  }

  void finish_rekey(const PendingRekey& r) {
    if (timing_)
      rekey_ms.push_back(static_cast<double>(now_ns() - r.trigger_ns) / 1e6);
  }

  void on_refused(const std::string& sender) {
    auto it = index_of_.find(sender);
    if (it == index_of_.end()) return;
    const std::uint32_t origin = it->second;
    if (inflight_[origin] == kIdle) return;
    checker.refused(origin, inflight_[origin]);
    inflight_[origin] = kIdle;
    ++stale_refusals;
  }

  bool timing_ = false;
  std::vector<std::uint32_t> lat_ns_;
  std::vector<std::int64_t> join_start_;  // 0 = no join pending
  std::vector<std::uint64_t> next_seq_;
  std::vector<std::uint64_t> inflight_;  // seq of the message in flight
  std::vector<std::uint8_t> expect_;
  std::unordered_map<std::string, std::uint32_t> index_of_;
  std::deque<PendingRekey> pending_rekeys_;
  std::int64_t pending_leave_ns_ = 0;

  std::array<std::uint32_t, 256> leader_spans_{};
  std::array<std::uint32_t, 256> member_spans_{};
  std::uint32_t sp_send_data_ = 0, sp_join_ = 0, sp_leave_ = 0;
  std::uint32_t sp_deliver_ = 0;

 protected:
  std::uint32_t sp_payload_ = 0, sp_capture_ = 0;
};

// ---------------------------------------------------------------------------
// SimNetwork transport. SimNetwork keeps every packet in its traffic log, so
// the benchmark swaps in a fresh network whenever the log reaches kLogLimit
// packets at a quiet point. Memory stays bounded and the swap costs the same
// per packet on every run, whatever its speed.

class SimGroup : public Group {
 public:
  SimGroup(const PassConfig& cfg, const crypto::Aead& aead, Tracer* tracer)
      : Group(cfg, aead, tracer) {
    if (tracer_) {
      sp_run_ = tracer_->id("net.sim.run");
      sp_send_ = tracer_->id("net.sim.send");
      sp_swap_ = tracer_->id("bench.network_swap");
    }
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      sim_send(to, std::move(e));
    });
    for (auto& m : members)
      m->set_send([this](const std::string& to, wire::Envelope e) {
        sim_send(to, std::move(e));
      });
    fresh_network();
  }

  void setup() override {
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      join(i);
      run();
    }
    quiescent_check();
  }

  void reset_layer_counters() override {
    packets_ = 0;
    queue_peak_ = 0;
  }

  void add_layer_metrics(PassResult& r, double ops) override {
    r.layer["net.sim.packets_per_op"] = {static_cast<double>(packets_) / ops,
                                         "packets/op"};
    r.layer["net.sim.queue_peak"] = {static_cast<double>(queue_peak_),
                                     "packets"};
    const double self = static_cast<double>(tracer_->agg(sp_run_).self_ns +
                                            tracer_->agg(sp_send_).self_ns);
    r.layer["net.sim.self_ns"] = {self / ops, "ns/op"};
  }

 protected:
  /// Runs the network to quiescence; a quiet point, so a network whose
  /// log has grown large is swapped for a fresh one here.
  void run() {
    {
      Span s(tracer_, sp_run_);
      packets_ += net_->run();
    }
    if (net_->log().size() >= kLogLimit) {
      Span s(tracer_, sp_swap_);
      fresh_network();
    }
  }

 private:
  static constexpr std::size_t kLogLimit = 1u << 15;

  void sim_send(const std::string& to, wire::Envelope e) {
    note_sent(e);
    Span s(tracer_, sp_send_);
    net_->send(to, std::move(e));
    queue_peak_ = std::max(queue_peak_, net_->queue_size());
  }

  void fresh_network() {
    auto net = std::make_unique<net::SimNetwork>();
    net->attach("L", [this](const wire::Envelope& e) { leader_handle(e); });
    for (std::uint32_t i = 0; i < members.size(); ++i)
      net->attach(ids[i],
                  [this, i](const wire::Envelope& e) { member_handle(i, e); });
    net_ = std::move(net);
  }

  std::unique_ptr<net::SimNetwork> net_;
  std::uint64_t packets_ = 0;
  std::size_t queue_peak_ = 0;
  std::uint32_t sp_run_ = 0, sp_send_ = 0, sp_swap_ = 0;
};

/// sim_relay_64: one message in flight, senders in a seeded round-robin,
/// each send run to quiescence.
class RelayGroup final : public SimGroup {
 public:
  using SimGroup::SimGroup;

  void setup() override {
    SimGroup::setup();
    order_.resize(members.size());
    std::iota(order_.begin(), order_.end(), 0u);
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1], order_[input_rng_.below(i)]);
  }

  void step() override {
    ++step_count_;
    const std::uint32_t origin = order_[next_++ % order_.size()];
    send(origin, pick_size({{70, 64}, {95, 256}, {100, 1024}}));
    run();
  }

 private:
  std::vector<std::uint32_t> order_;
  std::size_t next_ = 0;
};

/// sim_churn_tree_256: a seeded member leaves, a different seeded member
/// sends one 64 B message while it is out, the leaver rejoins; each action
/// runs to quiescence. The group is checked whole and agreed after every
/// cycle.
class ChurnGroup final : public SimGroup {
 public:
  using SimGroup::SimGroup;

  void step() override {
    ++step_count_;
    const auto n = static_cast<std::uint32_t>(members.size());
    const auto leaver = static_cast<std::uint32_t>(input_rng_.below(n));
    auto sender = static_cast<std::uint32_t>(input_rng_.below(n - 1));
    if (sender >= leaver) ++sender;
    leave(leaver);
    run();
    send(sender, 64);
    run();
    join(leaver);
    run();
    quiescent_check();
    if (!leader.keytree() || leader.keytree()->depth() != depth_)
      problem("key tree missing or resized during the run");
  }

 private:
  const std::uint32_t depth_ =
      leader_config(cfg_.workload, cfg_.tiny).keytree_depth;
};

// ---------------------------------------------------------------------------
// Loopback TCP: one leader TcpNode, one TcpNode per member, all polled from
// this thread with poll_once(0). Each member keeps one message in flight.

class TcpGroup final : public Group {
 public:
  TcpGroup(const PassConfig& cfg, const crypto::Aead& aead, Tracer* tracer)
      : Group(cfg, aead, tracer) {
    if (tracer_) {
      sp_send_ = tracer_->id("net.tcp.send");
      sp_poll_ = tracer_->id("net.tcp.poll");
    }
  }

  void setup() override {
    auto port = leader_node_.listen(0);
    if (!port) {
      problem("listen failed: " + port.error().to_string());
      return;
    }
    leader_node_.set_callbacks(
        {nullptr,
         [this](net::ConnId c, const wire::Envelope& e) {
           leader_conn_.try_emplace(e.sender, c);
           leader_handle(e);
         },
         nullptr});
    leader.set_send([this](const std::string& to, wire::Envelope e) {
      auto it = leader_conn_.find(to);
      if (it != leader_conn_.end()) tcp_send(leader_node_, it->second, e);
    });
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      nodes_.push_back(std::make_unique<net::TcpNode>());
      auto conn = nodes_[i]->connect(*port);
      if (!conn) {
        problem("connect failed: " + conn.error().to_string());
        return;
      }
      conns_.push_back(*conn);
      nodes_[i]->set_callbacks(
          {nullptr,
           [this, i](net::ConnId, const wire::Envelope& e) {
             member_handle(i, e);
           },
           nullptr});
      members[i]->set_send([this, i](const std::string&, wire::Envelope e) {
        tcp_send(*nodes_[i], conns_[i], e);
      });
    }
    for (std::uint32_t i = 0; i < members.size(); ++i) {
      join(i);
      pump_until([&] { return in_group[i] != 0; });
    }
    pump_until([&] { return settled(); });
    quiescent_check();
  }

  void step() override {
    ++step_count_;
    pump();
    for (std::uint32_t i = 0; i < members.size(); ++i)
      if (idle(i)) send(i, pick_size({{60, 256}, {90, 1024}, {100, 16384}}));
  }

  void drain() override {
    pump_until([&] { return checker.in_flight() == 0 && settled(); });
  }

  void reset_layer_counters() override {
    polls_ = 0;
    empty_polls_ = 0;
    captured_.clear();
    capture_ = tracer_ != nullptr;
  }

  void add_layer_metrics(PassResult& r, double ops) override {
    const auto& send = tracer_->agg(sp_send_);
    const auto& poll = tracer_->agg(sp_poll_);
    r.layer["net.tcp.send.calls"] = {static_cast<double>(send.calls) / ops,
                                     "calls/op"};
    r.layer["net.tcp.send.ns"] = {static_cast<double>(send.self_ns) / ops,
                                  "ns/op"};
    r.layer["net.tcp.poll.busy_ns"] = {static_cast<double>(poll.self_ns) / ops,
                                       "ns/op"};
    r.layer["net.tcp.poll.empty_ratio"] = {
        polls_ ? static_cast<double>(empty_polls_) / static_cast<double>(polls_)
               : 0.0,
        "ratio"};
    capture_ = false;
  }

  const std::vector<wire::Envelope>& captured() const { return captured_; }
  std::uint64_t sends_traced() const { return tracer_->agg(sp_send_).calls; }

 private:
  void tcp_send(net::TcpNode& node, net::ConnId conn, const wire::Envelope& e) {
    note_sent(e);
    if (capture_ && tracing() && captured_.size() < kCaptureCap) {
      Span s(tracer_, sp_capture_);
      captured_.push_back(e);
    }
    Span s(tracer_, sp_send_);
    if (!node.send(conn, e)) problem("TcpNode::send failed");
  }

  void poll(net::TcpNode& node) {
    Span s(tracer_, sp_poll_);
    const std::size_t handled = node.poll_once(0);
    ++polls_;
    if (handled == 0) ++empty_polls_;
  }

  void pump() {
    poll(leader_node_);
    for (auto& n : nodes_) poll(*n);
  }

  template <typename Done>
  void pump_until(Done done) {
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    while (!done()) {
      if (now_ns() > deadline) {
        problem("loopback TCP did not settle within 5 s");
        return;
      }
      pump();
    }
  }

  /// Every member holds the leader's current epoch and no rekey is open.
  bool settled() const {
    for (std::uint32_t i = 0; i < members.size(); ++i)
      if (in_group[i] && members[i]->epoch() != leader.epoch()) return false;
    return true;
  }

  net::TcpNode leader_node_;
  std::vector<std::unique_ptr<net::TcpNode>> nodes_;
  std::vector<net::ConnId> conns_;
  std::unordered_map<std::string, net::ConnId> leader_conn_;
  std::uint64_t polls_ = 0, empty_polls_ = 0;
  bool capture_ = false;
  std::vector<wire::Envelope> captured_;
  std::uint32_t sp_send_ = 0, sp_poll_ = 0;
};

std::unique_ptr<Group> make_group(const PassConfig& cfg,
                                  const crypto::Aead& aead, Tracer* tracer) {
  switch (cfg.workload) {
    case Workload::sim_relay_64:
      return std::make_unique<RelayGroup>(cfg, aead, tracer);
    case Workload::sim_churn_tree_256:
      return std::make_unique<ChurnGroup>(cfg, aead, tracer);
    case Workload::tcp_mixed_4:
      return std::make_unique<TcpGroup>(cfg, aead, tracer);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Wire replay: the captured envelopes of the traced TCP pass run again
// through encode, frame, FrameDecoder and decode_envelope, giving the wire
// cost of exactly this traffic (inside TcpNode it is part of net.tcp.*).

struct WireCost {
  double encode_ns = 0, frame_ns = 0, decode_ns = 0, bytes = 0;
};

WireCost replay_wire(const std::vector<wire::Envelope>& envs,
                     std::vector<std::string>& problems) {
  WireCost best;
  if (envs.empty()) return best;
  const double n = static_cast<double>(envs.size());
  std::vector<double> enc, frm, dec;
  std::uint64_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::vector<Bytes> encoded(envs.size()), framed(envs.size());
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < envs.size(); ++i)
      encoded[i] = wire::encode(envs[i]);
    std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < envs.size(); ++i)
      framed[i] = wire::frame(encoded[i]);
    std::int64_t t2 = now_ns();
    wire::FrameDecoder decoder;
    std::vector<wire::Envelope> decoded;
    decoded.reserve(envs.size());
    bytes = 0;
    for (std::size_t i = 0; i < envs.size(); ++i) {
      bytes += framed[i].size();
      if (!decoder.feed(framed[i])) break;
      auto f = decoder.next();
      if (!f) break;
      auto e = wire::decode_envelope(*f);
      if (!e) break;
      decoded.push_back(*std::move(e));
    }
    std::int64_t t3 = now_ns();
    if (decoded != envs) {
      problems.push_back("wire replay: an envelope did not round-trip");
      return best;
    }
    enc.push_back(static_cast<double>(t1 - t0) / n);
    frm.push_back(static_cast<double>(t2 - t1) / n);
    dec.push_back(static_cast<double>(t3 - t2) / n);
  }
  best.encode_ns = median(enc);
  best.frame_ns = median(frm);
  best.decode_ns = median(dec);
  best.bytes = static_cast<double>(bytes) / n;
  return best;
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced pass.

void traced_metrics(Group& g, Tracer& tracer, const TimedAead& aead,
                    PassResult& r, double traced_wall_ns,
                    std::uint64_t relayed, std::uint64_t rekeys) {
  const double ops = std::max<double>(1.0, static_cast<double>(r.timed_ops()));
  auto find = [&](const std::string& name) -> const Tracer::Agg* {
    const auto& names = tracer.names();
    for (std::size_t i = 0; i < names.size(); ++i)
      if (names[i] == name) return &tracer.agg(static_cast<std::uint32_t>(i));
    return nullptr;
  };
  auto agg = [&](const std::string& name) {
    const Tracer::Agg* a = find(name);
    return a ? *a : Tracer::Agg{};
  };
  auto per_op = [&](double v) { return v / ops; };

  const auto seal = agg("crypto.seal");
  const auto open = agg("crypto.open");
  r.layer["crypto.seal.calls"] = {per_op(seal.calls), "calls/op"};
  r.layer["crypto.seal.bytes"] = {per_op(seal.bytes), "B/op"};
  r.layer["crypto.seal.ns"] = {per_op(seal.total_ns), "ns/op"};
  r.layer["crypto.open.calls"] = {per_op(open.calls), "calls/op"};
  r.layer["crypto.open.bytes"] = {per_op(open.bytes), "B/op"};
  r.layer["crypto.open.ns"] = {per_op(open.total_ns), "ns/op"};
  r.layer["crypto.open.failed"] = {static_cast<double>(aead.failed()),
                                   "count"};
  r.layer["crypto.share"] = {
      static_cast<double>(seal.total_ns + open.total_ns) / traced_wall_ns,
      "ratio"};

  std::uint64_t handled = 0, leader_data = 0, admin = 0;
  for (const char* side : {"leader", "member"}) {
    for (const char* label :
         {"GroupData", "AuthInitReq", "AuthKeyDist", "AuthAckKey", "AdminMsg",
          "Ack", "ReqClose", "KeyTreeUpdate", "KeyTreeRecover",
          "KeyTreePath"}) {
      const std::string name =
          std::string("core.") + side + "." + label;
      const auto a = agg(name);
      handled += a.calls;
      const std::string l(label);
      if (l == "AdminMsg" || l == "Ack" || l.rfind("KeyTree", 0) == 0)
        admin += a.calls;
      if (std::string(side) == "leader" && l == "GroupData")
        leader_data = a.calls;
    }
  }
  for (const char* label : {"GroupData", "AuthInitReq", "AuthAckKey", "Ack",
                            "ReqClose", "KeyTreeRecover"}) {
    const auto a = agg(std::string("core.leader.") + label);
    r.layer[std::string("core.leader.") + label + ".calls"] = {
        per_op(a.calls), "calls/op"};
    r.layer[std::string("core.leader.") + label + ".self_ns"] = {
        per_op(a.self_ns), "ns/op"};
  }
  for (const char* label : {"GroupData", "AuthKeyDist", "AdminMsg",
                            "KeyTreeUpdate", "KeyTreePath"}) {
    const auto a = agg(std::string("core.member.") + label);
    r.layer[std::string("core.member.") + label + ".calls"] = {
        per_op(a.calls), "calls/op"};
    r.layer[std::string("core.member.") + label + ".self_ns"] = {
        per_op(a.self_ns), "ns/op"};
  }
  r.layer["core.send_data.self_ns"] = {per_op(agg("core.send_data").self_ns),
                                       "ns/op"};
  r.layer["core.join.self_ns"] = {per_op(agg("core.join").self_ns), "ns/op"};
  r.layer["core.leave.self_ns"] = {per_op(agg("core.leave").self_ns), "ns/op"};
  r.layer["core.envelopes_per_op"] = {per_op(handled), "envelopes/op"};
  r.layer["core.admin_per_rekey"] = {
      rekeys ? static_cast<double>(admin) / static_cast<double>(rekeys) : 0.0,
      "envelopes"};
  r.layer["core.relay_accept_ratio"] = {
      leader_data ? static_cast<double>(relayed) /
                        static_cast<double>(leader_data)
                  : 0.0,
      "ratio"};

  const auto* tree = g.leader.keytree();
  r.layer["keytree.depth"] = {tree ? static_cast<double>(tree->depth()) : 0.0,
                              "levels"};
  r.layer["keytree.update_bytes"] = {
      g.keytree_updates ? static_cast<double>(g.keytree_update_bytes) /
                              static_cast<double>(g.keytree_updates)
                        : 0.0,
      "B"};

  g.add_layer_metrics(r, ops);

  // Wire: zero by construction on SimNetwork, which never encodes.
  WireCost wire;
  double wire_ns_in_net = 0;
  if (auto* tcp = dynamic_cast<TcpGroup*>(&g)) {
    wire = replay_wire(tcp->captured(), r.problems);
    // Every envelope sent is encoded and framed once and reassembled and
    // decoded once at the other end of the loopback connection.
    wire_ns_in_net = static_cast<double>(tcp->sends_traced()) *
                     (wire.encode_ns + wire.frame_ns + wire.decode_ns);
    r.layer["net.tcp.bytes_per_op"] = {
        per_op(static_cast<double>(r.tcp_bytes_sent)), "B/op"};
  } else {
    r.layer["net.tcp.send.calls"] = {0.0, "calls/op"};
    r.layer["net.tcp.send.ns"] = {0.0, "ns/op"};
    r.layer["net.tcp.poll.busy_ns"] = {0.0, "ns/op"};
    r.layer["net.tcp.poll.empty_ratio"] = {0.0, "ratio"};
    r.layer["net.tcp.bytes_per_op"] = {0.0, "B/op"};
  }
  if (!r.layer.count("net.sim.packets_per_op")) {
    r.layer["net.sim.packets_per_op"] = {0.0, "packets/op"};
    r.layer["net.sim.queue_peak"] = {0.0, "packets"};
    r.layer["net.sim.self_ns"] = {0.0, "ns/op"};
  }
  r.layer["wire.encode.ns_per_env"] = {wire.encode_ns, "ns/envelope"};
  r.layer["wire.decode.ns_per_env"] = {wire.decode_ns, "ns/envelope"};
  r.layer["wire.frame.ns_per_env"] = {wire.frame_ns, "ns/envelope"};
  r.layer["wire.bytes_per_env"] = {wire.bytes, "B/envelope"};
  double app_bytes = 0;
  for (const auto& w : r.windows)
    app_bytes += static_cast<double>(w.payload_bytes);
  r.layer["wire.overhead_ratio"] = {
      app_bytes > 0 ? static_cast<double>(r.tcp_bytes_sent) / app_bytes : 0.0,
      "ratio"};

  // Layer roll-up: self time per layer over the traced wall time; the rest
  // is time no span covers. The wire share is the replay estimate, moved
  // out of net where TcpNode spent it.
  auto self_ns = [&](const char* prefix) {
    return static_cast<double>(tracer.self_ns_with_prefix(prefix));
  };
  const double crypto_ns = self_ns("crypto.");
  const double core_ns = self_ns("core.");
  double net_ns = self_ns("net.");
  const double bench_ns = self_ns("bench.");
  const double wire_ns = std::min(wire_ns_in_net, net_ns);
  net_ns -= wire_ns;
  r.layer["layer.crypto.share"] = {crypto_ns / traced_wall_ns, "ratio"};
  r.layer["layer.core.share"] = {core_ns / traced_wall_ns, "ratio"};
  r.layer["layer.wire.share"] = {wire_ns / traced_wall_ns, "ratio"};
  r.layer["layer.net.share"] = {net_ns / traced_wall_ns, "ratio"};
  r.layer["layer.bench.share"] = {bench_ns / traced_wall_ns, "ratio"};
  r.layer["bench.unattributed_share"] = {
      1.0 - static_cast<double>(tracer.top_level_ns()) / traced_wall_ns,
      "ratio"};
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::sim_relay_64, Workload::sim_churn_tree_256,
                     Workload::tcp_mixed_4})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::sim_relay_64: return "sim_relay_64";
    case Workload::sim_churn_tree_256: return "sim_churn_tree_256";
    case Workload::tcp_mixed_4: return "tcp_mixed_4";
  }
  return "?";
}

std::string workload_policy(Workload w, bool tiny) {
  const auto c = leader_config(w, tiny);
  std::string s = c.rekey.algo == core::RekeyAlgo::tree ? "tree" : "flat";
  s += c.rekey.on_join ? ",on_join" : "";
  s += c.rekey.on_leave ? ",on_leave" : "";
  if (c.rekey.every_n_messages)
    s += ",every_n_messages=" + std::to_string(c.rekey.every_n_messages);
  if (c.rekey.algo == core::RekeyAlgo::tree)
    s += ",keytree_depth=" + std::to_string(c.keytree_depth);
  s += ";members=" + std::to_string(group_size(w, tiny));
  s += w == Workload::tcp_mixed_4 ? ";transport=loopback_tcp"
                                  : ";transport=sim_network";
  return s;
}

double PassResult::ns_per_op() const {
  std::vector<double> v;
  for (const auto& w : windows)
    if (w.ops) v.push_back(w.wall_s * 1e9 / static_cast<double>(w.ops));
  return median(std::move(v));
}

PassResult run_pass(const PassConfig& cfg) {
  PassResult res;

  // Obs sinks for the whole pass (set-up included), as a node would run.
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::ScopedMetricsSink> metrics_sink;
  std::unique_ptr<obs::TraceLog> trace_log;
  std::unique_ptr<obs::ScopedTraceSink> trace_sink;
  std::unique_ptr<obs::SecurityLedger> ledger;
  std::unique_ptr<obs::ScopedSecurityLedger> ledger_sink;
  std::unique_ptr<obs::FlightRecorder> flight;
  if (cfg.obs != ObsMode::bare) {
    registry = std::make_unique<obs::MetricsRegistry>();
    metrics_sink = std::make_unique<obs::ScopedMetricsSink>(*registry);
  }
  if (cfg.obs == ObsMode::recording) {
    trace_log = std::make_unique<obs::TraceLog>();
    trace_log->set_capacity(4096);
    trace_sink = std::make_unique<obs::ScopedTraceSink>(*trace_log);
    ledger = std::make_unique<obs::SecurityLedger>();
    ledger_sink = std::make_unique<obs::ScopedSecurityLedger>(*ledger);
    const std::string dir = cfg.out_dir + "/flight";
    ::mkdir(dir.c_str(), 0755);
    flight = std::make_unique<obs::FlightRecorder>("e2e_bench", dir);
    flight->attach();
  }

  Tracer tracer;
  TimedAead timed(crypto::default_aead(), tracer);
  const crypto::Aead& aead =
      cfg.traced ? static_cast<const crypto::Aead&>(timed)
                 : crypto::default_aead();
  res.aead = aead.name();

  std::unique_ptr<Group> g;
  auto timed_setups = [&] {
    double total_s = 0;
    for (int rep = 0; rep < 1000; ++rep) {
      if (rep >= cfg.setup_reps && total_s >= cfg.setup_budget_s) break;
      g.reset();
      const std::int64_t t0 = now_ns();
      g = make_group(cfg, aead, cfg.traced ? &tracer : nullptr);
      g->setup();
      res.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      total_s += res.setup_s.back();
      if (!g->problems.empty()) break;
    }
  };
  timed_setups();

  // Warm-up: caches, allocator pools and the leader's maps settle first.
  if (g->problems.empty()) {
    const std::int64_t warm_end =
        now_ns() + static_cast<std::int64_t>(
                       std::min(1.0, 0.1 * cfg.seconds) * 1e9);
    while (now_ns() < warm_end) g->step();
  }

  const std::uint64_t relayed0 = g->leader.relayed_count();
  const std::uint64_t rekeys0 = g->rekeys;
  auto tcp_bytes = [&] {
    return registry ? registry->counter("net", "tcp", "bytes_sent_total") : 0;
  };
  const std::uint64_t tcp_bytes0 = tcp_bytes();

  // One-second windows: each holds any periodic work the program does, and
  // the median over them discounts short spells in which co-tenants on a
  // shared machine slow the process down.
  const double win_s = cfg.tiny ? 0.25 : 1.0;
  const int nwin =
      std::max(4, static_cast<int>(std::lround(cfg.seconds / win_s)));
  const double win_ns = cfg.seconds * 1e9 / nwin;
  double traced_wall_ns = 0;
  if (cfg.traced) {
    tracer.reset();
    timed.reset_failed();
  }
  g->reset_layer_counters();
  g->set_timing(true);
  for (int w = 0; w < nwin && g->problems.empty(); ++w) {
    if (flight) flight->observe(static_cast<Tick>(w));
    auto& lat = g->latencies();
    lat.clear();
    const std::uint64_t ops0 = g->ops, bytes0 = g->payload_bytes;
    const double c0 = cpu_seconds();
    tracer.set_active(cfg.traced);
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    do {
      g->step();
      t1 = now_ns();
    } while (static_cast<double>(t1 - t0) < win_ns);
    tracer.set_active(false);
    const double c1 = cpu_seconds();
    traced_wall_ns += static_cast<double>(t1 - t0);
    Window win;
    win.wall_s = static_cast<double>(t1 - t0) / 1e9;
    win.cpu_s = c1 - c0;
    win.ops = g->ops - ops0;
    win.payload_bytes = g->payload_bytes - bytes0;
    win.samples = lat.size();
    if (!lat.empty()) win.p50_us = quantile(lat, 0.50) / 1e3;
    if (lat.size() >= 1000) win.p99_us = quantile(lat, 0.99) / 1e3;
    res.windows.push_back(win);
  }
  g->set_timing(false);
  res.tcp_bytes_sent = tcp_bytes() - tcp_bytes0;

  if (cfg.traced && g->problems.empty())
    traced_metrics(*g, tracer, timed, res, std::max(1.0, traced_wall_ns),
                   g->leader.relayed_count() - relayed0, g->rekeys - rekeys0);
  if (cfg.traced) {
    const std::string path = cfg.out_dir + "/spans_" +
                             workload_name(cfg.workload) + "_seed" +
                             std::to_string(cfg.seed) + ".jsonl";
    tracer.write_jsonl(path);
  }

  g->drain();
  g->final_check();

  res.join_ms = std::move(g->join_ms);
  res.rekey_ms = std::move(g->rekey_ms);
  res.deliveries = g->checker.counts();
  res.joins = g->joins;
  res.joins_failed = g->joins_failed;
  res.rekeys = g->rekeys;
  res.rekeys_failed = g->rekeys_failed;
  res.rejected_inputs = g->rejected_inputs();
  res.stale_refusals = g->stale_refusals;
  for (auto& p : g->problems) res.problems.push_back(std::move(p));
  if (registry) {
    const auto snap = registry->snapshot();
    res.obs_series =
        snap.counters.size() + snap.gauges.size() + snap.histograms.size();
  }
  if (cfg.setup_after && res.problems.empty()) {
    timed_setups();
    for (auto& p : g->problems) res.problems.push_back(std::move(p));
  }
  g.reset();
  if (flight) flight->detach();
  return res;
}

}  // namespace e2e
