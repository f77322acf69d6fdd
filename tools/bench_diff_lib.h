// Perf-regression diffing for the BENCH_<tag>.json blobs that every
// google-benchmark binary writes (bench/bench_json.h).
//
// Two comparison surfaces:
//   - ns/op per benchmark: a relative tolerance (machines differ, CI
//     runners doubly so) — over-tolerance regressions warn by default and
//     fail only with fail_on_time, since a committed baseline rarely comes
//     from the same hardware as the run under test.
//   - protocol counters: these are *semantics*, not speed. In exact mode
//     any value change fails; in presence mode (the CI default, because
//     counter magnitudes scale with benchmark iteration counts) a counter
//     that was live in the baseline but missing or zero in the candidate
//     fails — that is how silently-lost instrumentation or a protocol path
//     that stopped firing shows up.
//   - profiled scopes (obs/prof.h): presence gates like counters — a hot
//     path that was profiled in the baseline but records nothing in the
//     candidate fails (PROF_SCOPE silently lost, or the path stopped
//     firing). Per-call self-time drift beyond the tolerance warns, like
//     ns/op: wall-clock attribution, not wall-clock gating.
//   - ratio rules ("A/B<=X"): within ONE blob, the real time of benchmark
//     A over that of benchmark B must not exceed X. Both rows come from the
//     same run on the same machine, so unlike absolute ns/op these fail
//     CI: they gate scaling shapes (a join into 1024 members vs 256).
//
// Header-only so the unit tests exercise exactly what the binary runs.
#pragma once

#include <cmath>
#include <cstdint>
#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json_reader.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "util/result.h"

namespace enclaves::tools {

struct BenchResult {
  std::string name;
  std::uint64_t iterations = 0;
  double real_time = 0;  // per iteration, in `time_unit`
  double cpu_time = 0;
  std::string time_unit;
};

/// One parsed BENCH_<tag>.json blob. The profile section is optional on
/// parse (blobs predating the profiler plane lack it) and empty when the
/// run had the sinks detached.
struct BenchBlob {
  std::string bench;
  bool metrics_attached = false;
  std::vector<BenchResult> results;
  obs::MetricsSnapshot metrics;
  obs::ProfSnapshot profile;

  static Result<BenchBlob> parse(std::string_view json);
};

namespace diff_detail {

inline Result<BenchResult> parse_result_row(obs::json::Cursor& c) {
  if (!c.eat('{')) return Errc::malformed;
  BenchResult row;
  if (!c.peek('}')) {
    do {
      auto key = c.string();
      if (!key.ok()) return key.error();
      if (!c.eat(':')) return Errc::malformed;
      if (*key == "name") {
        auto v = c.string();
        if (!v.ok()) return v.error();
        row.name = *std::move(v);
      } else if (*key == "iterations") {
        auto v = c.number_u64();
        if (!v.ok()) return v.error();
        row.iterations = *v;
      } else if (*key == "real_time") {
        auto v = c.number();
        if (!v.ok()) return v.error();
        row.real_time = *v;
      } else if (*key == "cpu_time") {
        auto v = c.number();
        if (!v.ok()) return v.error();
        row.cpu_time = *v;
      } else if (*key == "time_unit") {
        auto v = c.string();
        if (!v.ok()) return v.error();
        row.time_unit = *std::move(v);
      } else {
        return make_error(Errc::malformed, "unknown result field: " + *key);
      }
    } while (c.eat(','));
  }
  if (!c.eat('}')) return Errc::malformed;
  return row;
}

}  // namespace diff_detail

inline Result<BenchBlob> BenchBlob::parse(std::string_view json) {
  obs::json::Cursor c{json};
  if (!c.eat('{')) return Errc::malformed;
  BenchBlob blob;
  bool saw_results = false, saw_metrics = false;
  if (!c.peek('}')) {
    do {
      auto key = c.string();
      if (!key.ok()) return key.error();
      if (!c.eat(':')) return Errc::malformed;
      if (*key == "bench") {
        auto v = c.string();
        if (!v.ok()) return v.error();
        blob.bench = *std::move(v);
      } else if (*key == "metrics_attached") {
        auto v = c.boolean();
        if (!v.ok()) return v.error();
        blob.metrics_attached = *v;
      } else if (*key == "results") {
        if (!c.eat('[')) return Errc::malformed;
        if (!c.peek(']')) {
          do {
            auto row = diff_detail::parse_result_row(c);
            if (!row.ok()) return row.error();
            blob.results.push_back(*std::move(row));
          } while (c.eat(','));
        }
        if (!c.eat(']')) return Errc::malformed;
        saw_results = true;
      } else if (*key == "metrics") {
        auto raw = c.raw_object();
        if (!raw.ok()) return raw.error();
        auto snapshot = obs::MetricsSnapshot::from_json(*raw);
        if (!snapshot.ok()) return snapshot.error();
        blob.metrics = *std::move(snapshot);
        saw_metrics = true;
      } else if (*key == "profile") {
        auto raw = c.raw_object();
        if (!raw.ok()) return raw.error();
        auto profile = obs::ProfSnapshot::from_json(*raw);
        if (!profile.ok()) return profile.error();
        blob.profile = *std::move(profile);
      } else {
        return make_error(Errc::malformed, "unknown blob field: " + *key);
      }
    } while (c.eat(','));
  }
  if (!c.eat('}')) return Errc::malformed;
  if (!c.at_end()) return Errc::malformed;  // trailing garbage
  if (blob.bench.empty() || !saw_results || !saw_metrics)
    return make_error(Errc::malformed, "missing blob section");
  return blob;
}

enum class CounterMode {
  presence,  // baseline-live counters must stay live (CI default)
  exact,     // values must match bit-for-bit
};

/// A within-blob scaling gate, written "A/B<=X". Benchmark names contain
/// '/' themselves, so the split between A and B is resolved against the
/// blob: the first '/' whose two sides both name rows in it.
struct RatioRule {
  std::string expr;  // "A/B" as written
  double max = 0;

  static Result<RatioRule> parse(std::string_view text) {
    const auto at = text.rfind("<=");
    if (at == std::string_view::npos)
      return make_error(Errc::malformed, "ratio rule needs '<=': " +
                                             std::string(text));
    RatioRule rule;
    rule.expr = std::string(text.substr(0, at));
    const std::string limit(text.substr(at + 2));
    char* end = nullptr;
    rule.max = std::strtod(limit.c_str(), &end);
    if (limit.empty() || *end != '\0' || !(rule.max > 0))
      return make_error(Errc::malformed, "ratio limit must be a positive "
                                         "number: " + std::string(text));
    const auto slash = rule.expr.find('/', 1);
    if (slash == std::string::npos || slash + 1 >= rule.expr.size())
      return make_error(Errc::malformed, "ratio rule needs A/B: " +
                                             std::string(text));
    return rule;
  }
};

namespace diff_detail {

inline double ns_per_unit(const std::string& unit) {
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1;
}

/// Real time of benchmark `name` in ns: its "_median" aggregate when the
/// run had --benchmark_repetitions, else the median of its rows.
inline std::optional<double> row_ns(const BenchBlob& blob,
                                    const std::string& name) {
  std::vector<double> times;
  for (const BenchResult& r : blob.results) {
    const double ns = r.real_time * ns_per_unit(r.time_unit);
    if (r.name == name + "_median") return ns;
    if (r.name == name) times.push_back(ns);
  }
  if (times.empty()) return std::nullopt;
  std::sort(times.begin(), times.end());
  const std::size_t mid = times.size() / 2;
  return times.size() % 2 ? times[mid] : (times[mid - 1] + times[mid]) / 2;
}

}  // namespace diff_detail

struct DiffOptions {
  double time_tolerance = 0.30;  // candidate may be 30% slower before noise
  CounterMode counters = CounterMode::presence;
  bool fail_on_time = false;  // ns/op regressions warn-only by default
  // Per-call self-time drift tolerance for profiled scopes; beyond it the
  // scope warns (wall clocks differ across machines — presence is the
  // load-bearing check, attribution drift is advisory).
  double self_time_tolerance = 0.50;
  // Within-candidate scaling gates; a broken rule fails.
  std::vector<RatioRule> ratios;
};

struct DiffReport {
  std::vector<std::string> failures;
  std::vector<std::string> warnings;
  std::vector<std::string> notes;

  bool failed() const { return !failures.empty(); }

  std::string to_string() const {
    std::string out;
    for (const auto& f : failures) out += "FAIL  " + f + "\n";
    for (const auto& w : warnings) out += "warn  " + w + "\n";
    for (const auto& n : notes) out += "note  " + n + "\n";
    if (out.empty()) out = "ok    no regressions\n";
    return out;
  }
};

/// Appends one failure (rule broken, or a benchmark missing) or one note
/// (rule held) per ratio rule, evaluated inside `blob`.
inline void check_ratios(const BenchBlob& blob,
                         const std::vector<RatioRule>& rules,
                         DiffReport& report) {
  for (const RatioRule& rule : rules) {
    std::optional<double> num, den;
    std::string a, b;
    for (auto slash = rule.expr.find('/', 1);
         slash != std::string::npos && !(num && den);
         slash = rule.expr.find('/', slash + 1)) {
      a = rule.expr.substr(0, slash);
      b = rule.expr.substr(slash + 1);
      num = diff_detail::row_ns(blob, a);
      den = diff_detail::row_ns(blob, b);
    }
    if (!num || !den || !(*den > 0)) {
      report.failures.push_back("ratio " + rule.expr +
                                ": no split names two benchmarks in the blob");
      continue;
    }
    const double ratio = *num / *den;
    char buf[512];
    std::snprintf(buf, sizeof buf, "ratio %s / %s = %.2f (limit %.2f)",
                  a.c_str(), b.c_str(), ratio, rule.max);
    (ratio > rule.max ? report.failures : report.notes).push_back(buf);
  }
}

inline std::string format_key(const obs::MetricKey& key) {
  return key.group + "/" + key.agent + "/" + key.name;
}

inline DiffReport diff_blobs(const BenchBlob& baseline,
                             const BenchBlob& candidate,
                             const DiffOptions& opts = {}) {
  DiffReport report;
  if (baseline.bench != candidate.bench)
    report.failures.push_back("blob tag mismatch: baseline \"" +
                              baseline.bench + "\" vs candidate \"" +
                              candidate.bench + "\"");
  if (baseline.metrics_attached && !candidate.metrics_attached)
    report.failures.push_back(
        "baseline recorded metrics but the candidate ran with the sink "
        "detached (ENCLAVES_BENCH_NO_METRICS?)");

  // --- ns/op, per benchmark name.
  for (const BenchResult& base : baseline.results) {
    const BenchResult* cand = nullptr;
    for (const BenchResult& r : candidate.results)
      if (r.name == base.name) {
        cand = &r;
        break;
      }
    if (!cand) {
      report.failures.push_back("benchmark disappeared: " + base.name);
      continue;
    }
    if (base.real_time <= 0) continue;
    const double ratio = cand->real_time / base.real_time;
    char buf[256];
    if (ratio > 1.0 + opts.time_tolerance) {
      std::snprintf(buf, sizeof buf,
                    "%s: %.1f -> %.1f %s/op (+%.0f%%, tolerance %.0f%%)",
                    base.name.c_str(), base.real_time, cand->real_time,
                    cand->time_unit.c_str(), (ratio - 1.0) * 100,
                    opts.time_tolerance * 100);
      (opts.fail_on_time ? report.failures : report.warnings)
          .push_back(buf);
    } else if (ratio < 1.0 - opts.time_tolerance) {
      std::snprintf(buf, sizeof buf, "%s: improved %.1f -> %.1f %s/op",
                    base.name.c_str(), base.real_time, cand->real_time,
                    cand->time_unit.c_str());
      report.notes.push_back(buf);
    }
  }
  for (const BenchResult& r : candidate.results) {
    bool known = false;
    for (const BenchResult& base : baseline.results)
      if (base.name == r.name) {
        known = true;
        break;
      }
    if (!known) report.notes.push_back("new benchmark: " + r.name);
  }

  // --- protocol counters.
  for (const auto& [key, base_value] : baseline.metrics.counters) {
    auto it = candidate.metrics.counters.find(key);
    const std::uint64_t cand_value =
        it == candidate.metrics.counters.end() ? 0 : it->second;
    if (opts.counters == CounterMode::exact) {
      if (cand_value != base_value)
        report.failures.push_back(
            "counter " + format_key(key) + ": " + std::to_string(base_value) +
            " -> " + std::to_string(cand_value));
    } else if (base_value > 0 && cand_value == 0) {
      report.failures.push_back("counter went dark: " + format_key(key) +
                                " (baseline " + std::to_string(base_value) +
                                ", candidate 0)");
    }
  }
  for (const auto& [key, value] : candidate.metrics.counters) {
    if (value > 0 && !baseline.metrics.counters.count(key))
      report.notes.push_back("new counter: " + format_key(key));
  }

  // --- profiled scopes (obs/prof.h). Presence fails like counters; a run
  // that recorded a profile in the baseline but none at all in the
  // candidate means every baseline scope goes dark, which is the right
  // severity for losing the whole plane.
  for (const auto& [path, base_stat] : baseline.profile.scopes) {
    if (base_stat.count == 0) continue;
    auto it = candidate.profile.scopes.find(path);
    if (it == candidate.profile.scopes.end() || it->second.count == 0) {
      report.failures.push_back(
          "profile scope went dark: " + path + " (baseline " +
          std::to_string(base_stat.count) + " calls, candidate 0)");
      continue;
    }
    const obs::ProfStat& cand_stat = it->second;
    const double base_self = static_cast<double>(base_stat.self_ns) /
                             static_cast<double>(base_stat.count);
    const double cand_self = static_cast<double>(cand_stat.self_ns) /
                             static_cast<double>(cand_stat.count);
    if (base_self > 0 &&
        cand_self > base_self * (1.0 + opts.self_time_tolerance)) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "profile scope %s: %.0f -> %.0f ns self/call "
                    "(+%.0f%%, tolerance %.0f%%)",
                    path.c_str(), base_self, cand_self,
                    (cand_self / base_self - 1.0) * 100,
                    opts.self_time_tolerance * 100);
      report.warnings.push_back(buf);
    }
  }
  for (const auto& [path, stat] : candidate.profile.scopes) {
    if (stat.count > 0 && !baseline.profile.scopes.count(path))
      report.notes.push_back("new profile scope: " + path);
  }

  check_ratios(candidate, opts.ratios, report);
  return report;
}

}  // namespace enclaves::tools
