// bench_diff: perf-regression gate over two BENCH_<tag>.json blobs.
//
//   bench_diff <baseline.json> <candidate.json>
//              [--time-tolerance=0.30] [--counters=presence|exact]
//              [--fail-on-time] [--self-time-tolerance=0.50]
//              [--ratio=A/B<=X]...
//   bench_diff <blob.json> --ratio=A/B<=X [--ratio=...]
//
// A --ratio rule is checked inside the candidate (or the only) blob: the
// real time of benchmark A over that of B must not exceed X.
//
// Exit codes: 0 clean (warnings allowed), 1 regression, 2 usage/parse error.
// See docs/OBSERVABILITY.md for how CI wires this against the committed
// baseline in bench/baseline/.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "tools/bench_diff_lib.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: bench_diff <baseline.json> <candidate.json>\n"
      "       [--time-tolerance=FRACTION] [--counters=presence|exact]\n"
      "       [--fail-on-time] [--self-time-tolerance=FRACTION]\n"
      "       [--ratio=A/B<=X]...\n"
      "       bench_diff <blob.json> --ratio=A/B<=X [--ratio=...]\n");
  return 2;
}

bool read_file(const char* path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace enclaves::tools;
  const char* paths[2] = {nullptr, nullptr};
  int n_paths = 0;
  DiffOptions opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--time-tolerance=", 17) == 0) {
      opts.time_tolerance = std::atof(arg + 17);
      if (opts.time_tolerance < 0) return usage();
    } else if (std::strcmp(arg, "--counters=presence") == 0) {
      opts.counters = CounterMode::presence;
    } else if (std::strcmp(arg, "--counters=exact") == 0) {
      opts.counters = CounterMode::exact;
    } else if (std::strcmp(arg, "--fail-on-time") == 0) {
      opts.fail_on_time = true;
    } else if (std::strncmp(arg, "--self-time-tolerance=", 22) == 0) {
      opts.self_time_tolerance = std::atof(arg + 22);
      if (opts.self_time_tolerance < 0) return usage();
    } else if (std::strncmp(arg, "--ratio=", 8) == 0) {
      auto rule = RatioRule::parse(arg + 8);
      if (!rule.ok()) {
        std::fprintf(stderr, "bench_diff: %s\n",
                     rule.error().to_string().c_str());
        return usage();
      }
      opts.ratios.push_back(*std::move(rule));
    } else if (arg[0] == '-') {
      return usage();
    } else if (n_paths < 2) {
      paths[n_paths++] = arg;
    } else {
      return usage();
    }
  }
  // One blob is enough when only ratio rules are asked for.
  if (n_paths != 2 && !(n_paths == 1 && !opts.ratios.empty())) return usage();

  BenchBlob blobs[2];
  for (int i = 0; i < n_paths; ++i) {
    std::string text;
    if (!read_file(paths[i], text)) {
      std::fprintf(stderr, "bench_diff: cannot read %s\n", paths[i]);
      return 2;
    }
    auto blob = BenchBlob::parse(text);
    if (!blob.ok()) {
      std::fprintf(stderr, "bench_diff: %s: %s\n", paths[i],
                   blob.error().to_string().c_str());
      return 2;
    }
    blobs[i] = *std::move(blob);
  }

  DiffReport report;
  if (n_paths == 1) {
    check_ratios(blobs[0], opts.ratios, report);
    std::printf("bench_diff %s: ratios in %s\n", blobs[0].bench.c_str(),
                paths[0]);
  } else {
    report = diff_blobs(blobs[0], blobs[1], opts);
    std::printf("bench_diff %s: %s vs %s\n", blobs[0].bench.c_str(),
                paths[0], paths[1]);
  }
  std::fputs(report.to_string().c_str(), stdout);
  return report.failed() ? 1 : 0;
}
