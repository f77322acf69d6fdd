// bench_diff parsing and diff semantics: the header-only library behind
// tools/bench_diff, exercised on hand-built BENCH_<tag>.json blobs.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "tools/bench_diff_lib.h"

namespace enclaves::tools {
namespace {

// A minimal valid blob: one benchmark row, one protocol counter, and
// (optionally) a profile section — pass the inner scopes array, e.g.
// R"({"path": "leader/handle", "count": 3, ...})".
std::string blob_json(const std::string& tag, double real_time,
                      std::uint64_t counter_value,
                      const std::string& extra_counters = "",
                      const std::string& profile_scopes = "") {
  std::string out =
      "{\"bench\":\"" + tag +
      "\",\"metrics_attached\":true,"
      "\"results\":[{\"name\":\"BM_Join\",\"iterations\":100,"
      "\"real_time\":" +
      std::to_string(real_time) +
      ",\"cpu_time\":" + std::to_string(real_time) +
      ",\"time_unit\":\"ns\"}],"
      "\"metrics\":{\"counters\":[{\"group\":\"L\",\"agent\":\"L\","
      "\"name\":\"relayed_total\",\"value\":" +
      std::to_string(counter_value) + "}" + extra_counters +
      "],\"gauges\":[],\"histograms\":[]}";
  if (!profile_scopes.empty())
    out += ",\"profile\":{\"scopes\":[" + profile_scopes + "]}";
  out += "}";
  return out;
}

// One profile scope entry for blob_json's profile_scopes argument.
std::string scope_json(const std::string& path, std::uint64_t count,
                       std::uint64_t self_ns) {
  return "{\"path\":\"" + path + "\",\"count\":" + std::to_string(count) +
         ",\"total_ns\":" + std::to_string(self_ns) +
         ",\"self_ns\":" + std::to_string(self_ns) +
         ",\"min_ns\":1,\"max_ns\":9,\"bytes\":0}";
}

TEST(BenchBlobParse, RoundTripsAllSections) {
  auto blob = BenchBlob::parse(blob_json("protocol_perf", 120.5, 7));
  ASSERT_TRUE(blob.ok()) << blob.error().to_string();
  EXPECT_EQ(blob->bench, "protocol_perf");
  EXPECT_TRUE(blob->metrics_attached);
  ASSERT_EQ(blob->results.size(), 1u);
  EXPECT_EQ(blob->results[0].name, "BM_Join");
  EXPECT_EQ(blob->results[0].iterations, 100u);
  EXPECT_DOUBLE_EQ(blob->results[0].real_time, 120.5);
  EXPECT_EQ(blob->results[0].time_unit, "ns");
  EXPECT_EQ(blob->metrics.counters.size(), 1u);
}

TEST(BenchBlobParse, RejectsMalformedInput) {
  EXPECT_FALSE(BenchBlob::parse("").ok());
  EXPECT_FALSE(BenchBlob::parse("not json").ok());
  EXPECT_FALSE(BenchBlob::parse("{\"bench\":\"x\"}").ok())
      << "missing results/metrics sections";
  EXPECT_FALSE(BenchBlob::parse(blob_json("t", 1, 1) + "garbage").ok())
      << "trailing garbage";
  EXPECT_FALSE(
      BenchBlob::parse("{\"bench\":\"t\",\"surprise\":1,"
                       "\"results\":[],\"metrics\":{\"counters\":[],"
                       "\"gauges\":[],\"histograms\":[]}}")
          .ok())
      << "unknown field";
}

TEST(BenchDiff, CleanRunReportsNoRegressions) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json("t", 105, 9));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  EXPECT_TRUE(report.warnings.empty());
  EXPECT_EQ(report.to_string(), "ok    no regressions\n");
}

TEST(BenchDiff, TimeRegressionWarnsByDefaultFailsOnRequest) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json("t", 150, 5));  // +50% > 30%
  ASSERT_TRUE(base.ok() && cand.ok());

  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("BM_Join"), std::string::npos);

  DiffOptions strict;
  strict.fail_on_time = true;
  EXPECT_TRUE(diff_blobs(*base, *cand, strict).failed());

  DiffOptions loose;
  loose.time_tolerance = 0.60;  // +50% now inside tolerance
  auto ok = diff_blobs(*base, *cand, loose);
  EXPECT_FALSE(ok.failed());
  EXPECT_TRUE(ok.warnings.empty());
}

TEST(BenchDiff, ImprovementIsANoteNotAFailure) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json("t", 50, 5));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("improved"), std::string::npos);
}

TEST(BenchDiff, DisappearedBenchmarkFails) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(
      "{\"bench\":\"t\",\"metrics_attached\":true,\"results\":[],"
      "\"metrics\":{\"counters\":[],\"gauges\":[],\"histograms\":[]}}");
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_TRUE(report.failed());
}

TEST(BenchDiff, TagMismatchAndDetachedMetricsFail) {
  auto base = BenchBlob::parse(blob_json("alpha", 100, 5));
  auto cand = BenchBlob::parse(blob_json("beta", 100, 5));
  ASSERT_TRUE(base.ok() && cand.ok());
  EXPECT_TRUE(diff_blobs(*base, *cand).failed());

  auto detached = BenchBlob::parse(
      "{\"bench\":\"alpha\",\"metrics_attached\":false,"
      "\"results\":[{\"name\":\"BM_Join\",\"iterations\":100,"
      "\"real_time\":100,\"cpu_time\":100,\"time_unit\":\"ns\"}],"
      "\"metrics\":{\"counters\":[],\"gauges\":[],\"histograms\":[]}}");
  ASSERT_TRUE(detached.ok());
  EXPECT_TRUE(diff_blobs(*base, *detached).failed())
      << "candidate ran with ENCLAVES_BENCH_NO_METRICS";
}

TEST(BenchDiff, PresenceModeCatchesCountersGoingDark) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto dark = BenchBlob::parse(blob_json("t", 100, 0));
  auto drifted = BenchBlob::parse(blob_json("t", 100, 999));
  ASSERT_TRUE(base.ok() && dark.ok() && drifted.ok());

  auto report = diff_blobs(*base, *dark);
  ASSERT_TRUE(report.failed());
  EXPECT_NE(report.failures[0].find("went dark"), std::string::npos);

  // Magnitude drift is fine in presence mode (iteration counts vary)...
  EXPECT_FALSE(diff_blobs(*base, *drifted).failed());

  // ...but not in exact mode.
  DiffOptions exact;
  exact.counters = CounterMode::exact;
  EXPECT_TRUE(diff_blobs(*base, *drifted, exact).failed());
  EXPECT_FALSE(diff_blobs(*base, *base, exact).failed());
}

TEST(BenchDiff, NewCounterAndNewBenchmarkAreNotes) {
  auto base = BenchBlob::parse(blob_json("t", 100, 5));
  auto cand = BenchBlob::parse(blob_json(
      "t", 100, 5,
      ",{\"group\":\"security\",\"agent\":\"L\","
      "\"name\":\"refusals_total\",\"value\":3}"));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("new counter"), std::string::npos);
}

// --- profiled scopes (the tentpole gate: ISSUE 9 acceptance criteria).

TEST(BenchBlobParse, ProfileSectionIsOptionalAndRoundTrips) {
  // Pre-profiler blobs (no profile key) still parse, with an empty profile.
  auto old = BenchBlob::parse(blob_json("t", 100, 5));
  ASSERT_TRUE(old.ok());
  EXPECT_TRUE(old->profile.scopes.empty());

  auto blob = BenchBlob::parse(
      blob_json("t", 100, 5, "", scope_json("leader/handle", 40, 8000)));
  ASSERT_TRUE(blob.ok()) << blob.error().to_string();
  ASSERT_EQ(blob->profile.scopes.size(), 1u);
  EXPECT_EQ(blob->profile.scopes.at("leader/handle").count, 40u);
}

TEST(BenchDiff, ProfileScopeGoingDarkFails) {
  auto base = BenchBlob::parse(blob_json(
      "t", 100, 5, "",
      scope_json("leader/handle", 40, 8000) + "," +
          scope_json("crypto/seal", 80, 2000)));
  // Candidate lost the crypto/seal instrumentation entirely.
  auto cand = BenchBlob::parse(
      blob_json("t", 100, 5, "", scope_json("leader/handle", 44, 8100)));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  ASSERT_TRUE(report.failed());
  EXPECT_NE(report.failures[0].find("profile scope went dark: crypto/seal"),
            std::string::npos);

  // Present but zero-count is equally dark.
  auto zero = BenchBlob::parse(blob_json(
      "t", 100, 5, "",
      scope_json("leader/handle", 44, 8100) + "," +
          scope_json("crypto/seal", 0, 0)));
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(diff_blobs(*base, *zero).failed());

  // Identical profiles pass.
  EXPECT_FALSE(diff_blobs(*base, *base).failed());
}

TEST(BenchDiff, ProfileSelfTimeDriftWarnsOnly) {
  auto base = BenchBlob::parse(blob_json(
      "t", 100, 5, "", scope_json("leader/handle", 10, 1000)));  // 100/call
  auto slow = BenchBlob::parse(blob_json(
      "t", 100, 5, "", scope_json("leader/handle", 10, 2000)));  // 200/call
  ASSERT_TRUE(base.ok() && slow.ok());

  auto report = diff_blobs(*base, *slow);  // +100% > 50% tolerance
  EXPECT_FALSE(report.failed()) << "drift must never gate";
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("leader/handle"), std::string::npos);

  DiffOptions loose;
  loose.self_time_tolerance = 1.50;
  EXPECT_TRUE(diff_blobs(*base, *slow, loose).warnings.empty());
}

TEST(BenchDiff, NewProfileScopeIsANote) {
  auto base = BenchBlob::parse(blob_json(
      "t", 100, 5, "", scope_json("leader/handle", 10, 1000)));
  auto cand = BenchBlob::parse(blob_json(
      "t", 100, 5, "",
      scope_json("leader/handle", 10, 1000) + "," +
          scope_json("member/handle", 10, 500)));
  ASSERT_TRUE(base.ok() && cand.ok());
  auto report = diff_blobs(*base, *cand);
  EXPECT_FALSE(report.failed());
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("new profile scope: member/handle"),
            std::string::npos);
}

// A blob holding only result rows, each {name, real_time, time_unit}.
BenchBlob rows_blob(
    const std::vector<std::tuple<std::string, double, std::string>>& rows) {
  std::string json =
      "{\"bench\":\"keytree\",\"metrics_attached\":true,\"results\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [name, time, unit] = rows[i];
    json += (i ? "," : "") + std::string("{\"name\":\"") + name +
            "\",\"iterations\":10,\"real_time\":" + std::to_string(time) +
            ",\"cpu_time\":" + std::to_string(time) +
            ",\"time_unit\":\"" + unit + "\"}";
  }
  json += "],\"metrics\":{\"counters\":[],\"gauges\":[],"
          "\"histograms\":[]}}";
  auto blob = BenchBlob::parse(json);
  EXPECT_TRUE(blob.ok());
  return blob.ok() ? *blob : BenchBlob{};
}

TEST(BenchDiffRatio, ParsesRulesAndRejectsMalformedOnes) {
  auto rule = RatioRule::parse("BM_Join/1024/BM_Join/256<=6");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->expr, "BM_Join/1024/BM_Join/256");
  EXPECT_DOUBLE_EQ(rule->max, 6.0);
  EXPECT_TRUE(RatioRule::parse("BM_A/BM_B<=0.5").ok());
  for (const char* bad : {"BM_A/BM_B", "BM_A/BM_B<=", "BM_A/BM_B<=x",
                          "BM_A/BM_B<=-1", "BM_A<=2", "/BM_B<=2",
                          "BM_A/<=2", "BM_A/BM_B<=2x"})
    EXPECT_FALSE(RatioRule::parse(bad).ok()) << bad;
}

TEST(BenchDiffRatio, PassingRuleIsANote) {
  // The split is found between the two benchmark names, across units;
  // repetitions are reduced to their median (the 900 us outlier is not it).
  const BenchBlob blob = rows_blob({{"BM_Join/256", 1000, "us"},
                                    {"BM_Join/1024", 4000, "us"},
                                    {"BM_Join/1024", 4.5, "ms"},
                                    {"BM_Join/1024", 900000, "us"}});
  DiffReport report;
  check_ratios(blob, {*RatioRule::parse("BM_Join/1024/BM_Join/256<=6")},
               report);
  EXPECT_FALSE(report.failed()) << report.to_string();
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("= 4.50"), std::string::npos)
      << report.notes[0];
}

TEST(BenchDiffRatio, BrokenRuleFailsEvenInsideDiff) {
  // A "_median" aggregate row wins over the raw repetitions.
  const BenchBlob blob = rows_blob({{"BM_Join/256", 1000, "us"},
                                    {"BM_Join/1024", 1000, "us"},
                                    {"BM_Join/1024_median", 16000, "us"}});
  DiffOptions opts;
  opts.ratios = {*RatioRule::parse("BM_Join/1024/BM_Join/256<=6")};
  const DiffReport report = diff_blobs(blob, blob, opts);
  ASSERT_TRUE(report.failed());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("= 16.00 (limit 6.00)"),
            std::string::npos)
      << report.failures[0];
}

TEST(BenchDiffRatio, MissingRowFails) {
  const BenchBlob blob = rows_blob({{"BM_Join/256", 1000, "us"}});
  DiffReport report;
  check_ratios(blob, {*RatioRule::parse("BM_Join/1024/BM_Join/256<=6")},
               report);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_NE(report.failures[0].find("no split names two benchmarks"),
            std::string::npos);
}

}  // namespace
}  // namespace enclaves::tools
