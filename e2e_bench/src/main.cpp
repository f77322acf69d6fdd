// End-to-end benchmark of the group leader: relay, key-tree churn and a
// loopback-TCP mix, driven through the public core::Leader/core::Member API.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--out-dir <dir>] [--source-id <id>]
//   e2e_bench --self-test
//
// --trace 0 measures the end-to-end metrics with the metrics sink attached
// (the deployed-node configuration). --trace 1 runs the same workload four
// times (no sinks, metrics, full recording, and traced with spans) and
// reports per-layer metrics. The last line of stdout is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// The exit code is 0 only when every output was correct.
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "checker.h"
#include "obs/json_escape.h"
#include "stats.h"
#include "workloads.h"

namespace e2e {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool tiny = false;
  bool self_test = false;
  std::string out_dir = ".bench_build/e2e_bench";
  std::string source_id = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--self-test") {
      a.self_test = true;
    } else if (k == "--workload" || k == "--seed" || k == "--seconds" ||
               k == "--trace" || k == "--out-dir" || k == "--source-id") {
      const char* v = value();
      if (!v) return false;
      try {
        if (k == "--workload") a.workload = v;
        if (k == "--seed") a.seed = std::stoull(v);
        if (k == "--seconds") a.seconds = std::stod(v);
        if (k == "--trace") a.trace = std::stoi(v);
        if (k == "--out-dir") a.out_dir = v;
        if (k == "--source-id") a.source_id = v;
      } catch (const std::exception&) {
        return false;
      }
    } else {
      return false;
    }
  }
  return a.self_test || (!a.workload.empty() && a.seconds > 0 &&
                         (a.trace == 0 || a.trace == 1));
}

/// Quantile of a small sample; -1 unless >= 10 samples lie beyond it.
double supported_quantile(std::vector<double> v, double q) {
  if (v.empty()) return -1;
  if (q > 0.5 && static_cast<double>(v.size()) * (1 - q) < 10) return -1;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out;
  enclaves::obs::append_json_string(out, s);
  return out;
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

using Metrics = std::map<std::string, Metric>;

/// End-to-end metrics of one pass measured with the deployed configuration:
/// medians over the run's one-second windows (set-up: over its set-ups). A
/// metric without samples is left out, never reported as 0.
Metrics end_to_end(const PassResult& r) {
  Metrics m;
  auto put = [&](const char* name, double v, const char* unit) {
    if (v >= 0) m[name] = {v, unit};
  };
  std::vector<double> rate, p50, p99, goodput, cpu;
  for (const auto& w : r.windows) {
    if (w.wall_s <= 0 || w.ops == 0) continue;
    rate.push_back(static_cast<double>(w.ops) / w.wall_s);
    goodput.push_back(static_cast<double>(w.payload_bytes) / w.wall_s / 1e6);
    cpu.push_back(w.cpu_s * 1e6 / static_cast<double>(w.ops));
    if (w.p50_us >= 0) p50.push_back(w.p50_us);
    if (w.p99_us >= 0) p99.push_back(w.p99_us);
  }
  put("setup_s", median(r.setup_s), "s");
  put("deliver_per_s", median(rate), "1/s");
  put("goodput_mb_s", median(goodput), "MB/s");
  put("deliver_p50_us", median(p50), "us");
  put("deliver_p99_us", median(p99), "us");
  put("cpu_us_per_op", median(cpu), "us");
  put("peak_rss_mb", peak_rss_mb(), "MB");
  put("join_p50_ms", supported_quantile(r.join_ms, 0.5), "ms");
  put("join_p99_ms", supported_quantile(r.join_ms, 0.99), "ms");
  put("rekey_p50_ms", supported_quantile(r.rekey_ms, 0.5), "ms");
  put("rekey_p99_ms", supported_quantile(r.rekey_ms, 0.99), "ms");
  if (r.attempted())
    m["fail_ratio"] = {static_cast<double>(r.failed()) /
                           static_cast<double>(r.attempted()),
                       "ratio"};
  return m;
}

/// Correctness of one pass; appends readable reasons to `why`.
bool pass_correct(const PassResult& r, Workload w,
                  std::vector<std::string>& why) {
  const auto before = why.size();
  for (const auto& p : r.problems) why.push_back(p);
  const auto& d = r.deliveries;
  if (d.failures())
    why.push_back("deliveries: corrupted=" + std::to_string(d.corrupted) +
                  " duplicated=" + std::to_string(d.duplicated) +
                  " reordered=" + std::to_string(d.reordered) +
                  " unexpected=" + std::to_string(d.unexpected) +
                  " missing=" + std::to_string(d.missing));
  if (r.joins_failed || r.rekeys_failed)
    why.push_back("joins failed=" + std::to_string(r.joins_failed) +
                  " rekeys not converged=" + std::to_string(r.rekeys_failed));
  if (w != Workload::tcp_mixed_4 && r.rejected_inputs)
    why.push_back("rejected inputs on a fault-free sim workload: " +
                  std::to_string(r.rejected_inputs));
  if (r.timed_ops() == 0) why.push_back("no operation completed");
  return why.size() == before;
}

std::string checks_line(const PassResult& r) {
  const auto& d = r.deliveries;
  std::ostringstream o;
  o << "promised=" << d.promised << " delivered=" << d.delivered
    << " corrupted=" << d.corrupted << " duplicated=" << d.duplicated
    << " reordered=" << d.reordered << " unexpected=" << d.unexpected
    << " missing=" << d.missing << " refused=" << d.refused
    << " joins=" << r.joins << "/failed=" << r.joins_failed
    << " rekeys=" << r.rekeys << "/failed=" << r.rekeys_failed
    << " rejected_inputs=" << r.rejected_inputs
    << " stale_refusals=" << r.stale_refusals;
  return o.str();
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) s += ",";
    first = false;
    s += quoted(name) + ":{\"value\":" + num(metric.value) +
         ",\"unit\":" + quoted(metric.unit) + "}";
  }
  return s + "}";
}

/// Per-window figures of every pass, for judging a run's own spread.
std::string windows_json(
    const std::vector<std::pair<std::string, PassResult>>& passes) {
  std::string s = "{";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (i) s += ",";
    s += quoted(passes[i].first) + ":[";
    const auto& ws = passes[i].second.windows;
    for (std::size_t k = 0; k < ws.size(); ++k) {
      const auto& w = ws[k];
      if (k) s += ",";
      s += "{\"wall_s\":" + num(w.wall_s) + ",\"cpu_s\":" + num(w.cpu_s) +
           ",\"ops\":" + std::to_string(w.ops) +
           ",\"payload_bytes\":" + std::to_string(w.payload_bytes) +
           ",\"p50_us\":" + num(w.p50_us) + ",\"p99_us\":" +
           num(w.p99_us) + ",\"samples\":" + std::to_string(w.samples) + "}";
    }
    s += "]";
  }
  return s + "}";
}

std::string provenance_json(const Args& a, Workload w,
                            const std::string& aead) {
  std::string s = "{";
  s += "\"workload\":" + quoted(a.workload);
  s += ",\"seed\":" + std::to_string(a.seed);
  s += ",\"seconds\":" + num(a.seconds);
  s += ",\"trace\":" + std::to_string(a.trace);
  s += ",\"tiny\":" + std::string(a.tiny ? "true" : "false");
  s += ",\"source\":" + quoted(a.source_id);
  s += ",\"compiler\":" + quoted(std::string(E2E_COMPILER) + " (" +
                                 __VERSION__ + ")");
  s += ",\"cxx_flags\":" + quoted(E2E_CXX_FLAGS);
  s += ",\"build_type\":" + quoted(E2E_BUILD_TYPE);
  s += ",\"cpu_model\":" + quoted(cpuinfo_field("model name"));
  s += ",\"cpu_flags\":" + quoted(cpuinfo_field("flags"));
  s += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ",\"aead\":" + quoted(aead);
  s += ",\"rekey_policy\":" + quoted(workload_policy(w, a.tiny));
  s += ",\"protocol_rng\":\"DeterministicRng(seed)\"";
  s += ",\"obs_sinks\":" +
       quoted(a.trace ? "passes: none | metrics | metrics+trace+ledger+flight "
                        "| metrics+spans"
                      : "metrics");
  return s + "}";
}

void print_metrics(const Metrics& m) {
  for (const auto& [name, metric] : m) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-32s %16s %s", name.c_str(),
                  num(metric.value).c_str(), metric.unit.c_str());
    std::cout << line << "\n";
  }
}

// The BENCHMARK.json metric sets: emitted on every workload, so the result
// line always has the same keys.
const char* const kEndToEnd[] = {"setup_s",      "deliver_per_s",
                                 "deliver_p50_us", "deliver_p99_us",
                                 "goodput_mb_s", "cpu_us_per_op",
                                 "peak_rss_mb"};

int run(const Args& a) {
  const auto w = parse_workload(a.workload);
  if (!w) {
    std::cerr << "unknown workload " << a.workload << "\n";
    return 2;
  }
  ::mkdir(".bench_build", 0755);
  ::mkdir(a.out_dir.c_str(), 0755);

  std::vector<std::string> why;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  Metrics report;  // the result line's metrics
  Metrics extra;   // printed and saved, not part of the result line
  std::string aead;
  std::vector<std::pair<std::string, PassResult>> passes;

  if (a.trace == 0) {
    PassConfig pc;
    pc.workload = *w;
    pc.seed = a.seed;
    pc.seconds = a.seconds;
    pc.tiny = a.tiny;
    pc.obs = ObsMode::metrics;
    pc.setup_reps = a.tiny ? 1 : 2;
    pc.setup_budget_s = a.tiny ? 0 : 0.25;
    pc.setup_after = !a.tiny;
    pc.out_dir = a.out_dir;
    passes.emplace_back("metrics", run_pass(pc));
    const Metrics m = end_to_end(passes.back().second);
    for (const char* name : kEndToEnd) {
      auto it = m.find(name);
      if (it == m.end()) {
        why.push_back(std::string("metric without samples: ") + name);
        correct = false;
      } else {
        report[name] = it->second;
      }
    }
    for (const auto& [name, metric] : m)
      if (!report.count(name)) extra[name] = metric;
  } else {
    // Four passes of the same workload and seed: obs sinks off, the
    // deployed metrics sink, full recording, and the traced pass.
    const double pass_s = a.tiny ? a.seconds : a.seconds / 4;
    auto pass = [&](const char* name, ObsMode obs, bool traced) {
      PassConfig pc;
      pc.workload = *w;
      pc.seed = a.seed;
      pc.seconds = pass_s;
      pc.tiny = a.tiny;
      pc.obs = obs;
      pc.traced = traced;
      pc.out_dir = a.out_dir;
      passes.emplace_back(name, run_pass(pc));
      return passes.back().second.ns_per_op();
    };
    const double bare = pass("bare", ObsMode::bare, false);
    const double metrics = pass("metrics", ObsMode::metrics, false);
    const double recording = pass("recording", ObsMode::recording, false);
    const double traced = pass("traced", ObsMode::metrics, true);
    report = passes.back().second.layer;
    auto ratio = [](double x, double base) {
      return x > 0 && base > 0 ? x / base : 0.0;
    };
    report["obs.metrics_cost_ratio"] = {ratio(metrics, bare), "ratio"};
    report["obs.recording_cost_ratio"] = {ratio(recording, bare), "ratio"};
    report["obs.series"] = {static_cast<double>(passes[1].second.obs_series),
                            "series"};
    report["bench.trace_overhead_ratio"] = {ratio(traced, metrics), "ratio"};
    report["core.rejected_inputs"] = {
        static_cast<double>(passes.back().second.rejected_inputs), "count"};
    const auto un = report.find("bench.unattributed_share");
    if (un == report.end() || un->second.value > 0.10) {
      why.push_back("traced run: unattributed share above 10% of wall time");
      correct = false;
    }
    extra = end_to_end(passes.back().second);
  }

  for (const auto& [name, r] : passes) {
    attempted += r.attempted();
    failed += r.failed();
    if (!pass_correct(r, *w, why)) correct = false;
    aead = r.aead;
  }
  if (!correct && failed == 0) failed = 1;  // a violation outside the counts

  std::cout << "e2e_bench " << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace << "\n";
  for (const auto& [name, r] : passes)
    std::cout << "checks[" << name << "] " << checks_line(r) << "\n";
  if (a.trace == 1) {
    std::cout << "layer roll-up (share of traced wall time):\n";
    for (const char* l : {"crypto", "core", "wire", "net", "bench"}) {
      const auto it = report.find(std::string("layer.") + l + ".share");
      if (it != report.end())
        std::cout << "  " << l << " " << num(it->second.value) << "\n";
    }
    const auto un = report.find("bench.unattributed_share");
    if (un != report.end())
      std::cout << "  unattributed " << num(un->second.value) << "\n";
  }
  std::cout << "metrics:\n";
  print_metrics(report);
  if (!extra.empty()) {
    std::cout << (a.trace ? "end-to-end of the traced pass:\n"
                          : "other end-to-end metrics:\n");
    print_metrics(extra);
  }
  for (const auto& reason : why) std::cout << "FAIL: " << reason << "\n";

  const std::string prov = provenance_json(a, *w, aead);
  std::cout << "provenance " << prov << "\n";

  const std::string result = "{\"correct\":" +
                             std::string(correct ? "true" : "false") +
                             ",\"attempted\":" + std::to_string(attempted) +
                             ",\"failed\":" + std::to_string(failed) +
                             ",\"metrics\":" + metrics_json(report) + "}";
  const std::string dir = a.out_dir + "/results";
  ::mkdir(dir.c_str(), 0755);
  std::ofstream(dir + "/" + a.workload + "_seed" + std::to_string(a.seed) +
                "_trace" + std::to_string(a.trace) + ".json")
      << "{\"provenance\":" << prov << ",\"result\":" << result
      << ",\"other_metrics\":" << metrics_json(extra)
      << ",\"windows\":" << windows_json(passes) << "}\n";
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

// The checker must catch each kind of bad delivery it exists to catch.
int self_test() {
  int failures = 0;
  auto expect_eq = [&](const char* what, std::uint64_t got,
                       std::uint64_t want) {
    const bool ok = got == want;
    std::cout << (ok ? "ok   " : "FAIL ") << what << " (" << got << ", want "
              << want << ")\n";
    if (!ok) ++failures;
  };
  const std::vector<std::string> ids = {"m000", "m001", "m002"};
  const std::vector<std::uint8_t> to_others = {0, 1, 1};

  {  // corrupted bytes, then the genuine copy still counts
    DeliveryChecker c(ids);
    auto p = make_payload(7, 0, 0, 64);
    c.sent(0, 0, p, to_others, 0);
    auto bad = p;
    bad[40] ^= 1;
    c.delivered(1, "m000", bad);
    c.delivered(1, "m000", p);
    c.delivered(2, "m000", p);
    c.finish();
    expect_eq("corrupted payload is caught", c.counts().corrupted, 1);
    expect_eq("genuine copies still deliver", c.counts().delivered, 2);
  }
  {  // claimed origin differs from the payload's
    DeliveryChecker c(ids);
    auto p = make_payload(7, 0, 0, 64);
    c.sent(0, 0, p, to_others, 0);
    c.delivered(1, "m002", p);
    expect_eq("wrong origin is caught", c.counts().corrupted, 1);
  }
  {  // duplicated delivery, before and after the message completed
    DeliveryChecker c(ids);
    auto p = make_payload(7, 0, 0, 64);
    c.sent(0, 0, p, to_others, 0);
    c.delivered(1, "m000", p);
    c.delivered(1, "m000", p);
    c.delivered(2, "m000", p);
    c.delivered(2, "m000", p);
    c.finish();
    expect_eq("duplicated deliveries are caught", c.counts().duplicated, 2);
  }
  {  // missing delivery
    DeliveryChecker c(ids);
    auto p = make_payload(7, 0, 0, 64);
    c.sent(0, 0, p, to_others, 0);
    c.delivered(1, "m000", p);
    c.finish();
    expect_eq("missing delivery is caught", c.counts().missing, 1);
  }
  {  // out of per-origin order
    DeliveryChecker c(ids);
    auto p0 = make_payload(7, 0, 0, 64);
    auto p1 = make_payload(7, 0, 1, 64);
    c.sent(0, 0, p0, to_others, 0);
    c.sent(0, 1, p1, to_others, 0);
    c.delivered(1, "m000", p1);
    c.delivered(1, "m000", p0);
    expect_eq("reordered delivery is caught", c.counts().reordered, 1);
  }
  {  // delivered to a member that was out of the group when it was sent
    DeliveryChecker c(ids);
    auto p = make_payload(7, 0, 0, 64);
    c.sent(0, 0, p, {0, 1, 0}, 0);
    c.delivered(2, "m000", p);
    c.delivered(1, "m000", p);
    c.delivered(2, "m000", p);
    expect_eq("delivery to a departed member is caught",
              c.counts().unexpected, 2);
  }
  {  // a clean exchange has no failures
    DeliveryChecker c(ids);
    for (std::uint64_t s = 0; s < 4; ++s) {
      auto p = make_payload(7, 1, s, 16384);
      c.sent(1, s, p, {1, 0, 1}, 0);
      c.delivered(0, "m001", p);
      c.delivered(2, "m001", p);
    }
    c.finish();
    expect_eq("clean exchange has no failures", c.counts().failures(), 0);
    expect_eq("clean exchange delivers all", c.counts().delivered, 8);
  }
  std::cout << (failures ? "checker self-test FAILED\n"
                         : "checker self-test passed\n");
  return failures ? 1 : 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  if (!e2e::parse_args(argc, argv, args)) {
    std::cerr << "usage: e2e_bench --workload <sim_relay_64|"
                 "sim_churn_tree_256|tcp_mixed_4> --seed <n> --seconds <s> "
                 "--trace <0|1> [--tiny] [--out-dir <dir>] [--source-id <id>]"
                 "\n       e2e_bench --self-test\n";
    return 2;
  }
  if (args.self_test) return e2e::self_test();
  return e2e::run(args);
}
