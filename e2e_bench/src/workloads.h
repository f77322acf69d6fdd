// The benchmark's workloads and one measured pass over them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checker.h"

namespace e2e {

enum class Workload { sim_relay_64, sim_churn_tree_256, tcp_mixed_4 };

/// Which obs sinks are attached for the whole pass.
///   bare      — none (the library's no-sink hot path);
///   metrics   — a MetricsRegistry, as on a node serving /metrics (the
///               deployed configuration every end-to-end number uses);
///   recording — metrics plus TraceLog, SecurityLedger and FlightRecorder.
enum class ObsMode { bare, metrics, recording };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);
/// Human-readable rekey policy and transport of a workload (provenance).
std::string workload_policy(Workload w, bool tiny);

struct PassConfig {
  Workload workload = Workload::sim_relay_64;
  std::uint64_t seed = 1;
  double seconds = 1.0;      // timed phase length
  bool tiny = false;         // self-test sizes
  ObsMode obs = ObsMode::metrics;
  bool traced = false;       // record spans (and time AEAD calls)
  // Set-ups timed before the measured phase (the last one is measured): at
  // least `setup_reps`, and more until they took `setup_budget_s` in total.
  // With `setup_after`, as many more are timed after the measured phase, so
  // the set-up figure samples the machine at both ends of the run.
  int setup_reps = 1;
  double setup_budget_s = 0;
  bool setup_after = false;
  std::string out_dir;       // where span dumps and flight blobs go
};

/// One timed window of the measured phase.
struct Window {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t ops = 0;            // messages delivered to every recipient
  std::uint64_t payload_bytes = 0;  // application bytes delivered
  double p50_us = -1;               // per-recipient delivery latency
  double p99_us = -1;               // -1 when < 10 samples lie beyond it
  std::size_t samples = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct PassResult {
  std::vector<double> setup_s;
  std::vector<Window> windows;
  std::vector<double> join_ms;
  std::vector<double> rekey_ms;

  DeliveryChecker::Counts deliveries;
  std::uint64_t joins = 0, joins_failed = 0;
  std::uint64_t rekeys = 0, rekeys_failed = 0;
  std::uint64_t rejected_inputs = 0;  // Leader + every Member, whole pass
  std::uint64_t stale_refusals = 0;   // relay refusals of in-flight data
  std::vector<std::string> problems;  // correctness violations, readable

  std::string aead;
  std::size_t obs_series = 0;  // attached registry's series at the end
  std::uint64_t tcp_bytes_sent = 0;  // net/tcp bytes_sent_total, timed phase

  /// Traced pass only: the per-layer metrics measured from spans.
  std::map<std::string, Metric> layer;

  std::uint64_t attempted() const {
    return deliveries.promised + joins + rekeys;
  }
  std::uint64_t failed() const {
    return deliveries.failures() + joins_failed + rekeys_failed;
  }
  std::uint64_t timed_ops() const {
    std::uint64_t n = 0;
    for (const auto& w : windows) n += w.ops;
    return n;
  }
  /// Median over the windows of wall ns per completed op.
  double ns_per_op() const;
};

PassResult run_pass(const PassConfig& config);

}  // namespace e2e
