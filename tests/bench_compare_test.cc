// The bench_compare library: parsing the BenchJsonWriter file format and
// the regression-detection rules (row identity, metric direction, the 10%
// relative tolerance, the absolute floor).

#include <string>
#include <vector>

#include "bench/bench_compare_lib.h"
#include "gtest/gtest.h"

namespace rasa::bench {
namespace {

std::vector<BenchRow> MustParse(const std::string& text) {
  std::vector<BenchRow> rows;
  std::string error;
  EXPECT_TRUE(ParseBenchJson(text, &rows, &error)) << error;
  return rows;
}

TEST(BenchCompareParseTest, ParsesTheWriterFormat) {
  const std::vector<BenchRow> rows = MustParse(
      "[\n"
      "  {\"cluster\": \"M1\", \"threads\": 1, \"seconds\": "
      "0.25048828124999997, \"identical_to_sequential\": true},\n"
      "  {\"cluster\": \"M2\", \"threads\": 8, \"speedup\": 3.1, "
      "\"note\": null}\n"
      "]\n");
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 4u);
  EXPECT_EQ(rows[0][0].first, "cluster");
  EXPECT_EQ(rows[0][0].second.kind, JsonValue::Kind::kString);
  EXPECT_EQ(rows[0][0].second.string, "M1");
  EXPECT_EQ(rows[0][1].second.kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(rows[0][1].second.number, 1.0);
  EXPECT_EQ(rows[0][2].second.number, 0.25048828124999997);
  EXPECT_TRUE(rows[0][3].second.boolean);
  EXPECT_EQ(rows[1][3].second.kind, JsonValue::Kind::kNull);
}

TEST(BenchCompareParseTest, DecodesStringEscapes) {
  const std::vector<BenchRow> rows = MustParse(
      "[{\"name\": \"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"}]");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].second.string, "a\"b\\c\n\tA\xc3\xa9");
}

TEST(BenchCompareParseTest, EmptyArrayAndErrors) {
  EXPECT_TRUE(MustParse("[]").empty());
  EXPECT_TRUE(MustParse(" [ ] ").empty());
  std::vector<BenchRow> rows;
  std::string error;
  EXPECT_FALSE(ParseBenchJson("{\"not\": \"an array\"}", &rows, &error));
  EXPECT_FALSE(ParseBenchJson("[{\"k\": }]", &rows, &error));
  EXPECT_FALSE(ParseBenchJson("[{\"k\": 1}", &rows, &error));
  EXPECT_FALSE(ParseBenchJson("[{\"k\": \"unterminated}]", &rows, &error));
  EXPECT_FALSE(error.empty());
}

TEST(BenchCompareTest, MetricClassification) {
  EXPECT_TRUE(IsLowerBetter("seconds"));
  EXPECT_TRUE(IsLowerBetter("solve_time_p99"));
  EXPECT_TRUE(IsLowerBetter("commands_failed"));
  EXPECT_TRUE(IsHigherBetter("speedup"));
  EXPECT_TRUE(IsHigherBetter("gained_affinity"));
  EXPECT_FALSE(IsLowerBetter("gained_affinity"));
  EXPECT_TRUE(IsAxisKey("threads"));
  EXPECT_FALSE(IsAxisKey("seconds"));
}

BenchRow Row(const std::string& cluster, int threads, double seconds,
             double affinity) {
  BenchRow row;
  JsonValue name;
  name.kind = JsonValue::Kind::kString;
  name.string = cluster;
  row.emplace_back("cluster", name);
  JsonValue t;
  t.kind = JsonValue::Kind::kNumber;
  t.number = threads;
  row.emplace_back("threads", t);
  JsonValue s = t;
  s.number = seconds;
  row.emplace_back("seconds", s);
  JsonValue a = t;
  a.number = affinity;
  row.emplace_back("gained_affinity", a);
  return row;
}

TEST(BenchCompareTest, SelfCompareHasNoRegressions) {
  const std::vector<BenchRow> rows = {Row("M1", 1, 0.5, 0.8),
                                      Row("M1", 8, 0.1, 0.8)};
  const CompareReport report = CompareBench(rows, rows);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_EQ(report.deltas.size(), 4u);  // 2 rows x (seconds, affinity)
  EXPECT_TRUE(report.missing_in_candidate.empty());
  EXPECT_TRUE(report.missing_in_baseline.empty());
}

TEST(BenchCompareTest, FlagsSlowdownsAndQualityDropsBeyondTolerance) {
  const std::vector<BenchRow> baseline = {Row("M1", 1, 1.0, 0.80)};
  // 20% slower: regression. 5% affinity drop: within default nothing?
  // 0.80 -> 0.76 is exactly 5% — under the 10% tolerance.
  const std::vector<BenchRow> ok = {Row("M1", 1, 1.05, 0.76)};
  EXPECT_EQ(CompareBench(baseline, ok).regressions, 0);

  const std::vector<BenchRow> slow = {Row("M1", 1, 1.2, 0.80)};
  const CompareReport slow_report = CompareBench(baseline, slow);
  EXPECT_EQ(slow_report.regressions, 1);
  bool found = false;
  for (const MetricDelta& d : slow_report.deltas) {
    if (d.key != "seconds") continue;
    found = true;
    EXPECT_TRUE(d.regression);
    EXPECT_NEAR(d.relative_worse, 0.2, 1e-12);
  }
  EXPECT_TRUE(found);

  const std::vector<BenchRow> worse_quality = {Row("M1", 1, 1.0, 0.60)};
  EXPECT_EQ(CompareBench(baseline, worse_quality).regressions, 1);

  // Better in both directions never regresses.
  const std::vector<BenchRow> better = {Row("M1", 1, 0.5, 0.95)};
  EXPECT_EQ(CompareBench(baseline, better).regressions, 0);
}

TEST(BenchCompareTest, ToleranceIsConfigurable) {
  const std::vector<BenchRow> baseline = {Row("M1", 1, 1.0, 0.8)};
  const std::vector<BenchRow> candidate = {Row("M1", 1, 1.05, 0.8)};
  CompareOptions strict;
  strict.tolerance = 0.01;
  EXPECT_EQ(CompareBench(baseline, candidate, strict).regressions, 1);
  CompareOptions loose;
  loose.tolerance = 0.5;
  EXPECT_EQ(CompareBench(baseline, candidate, loose).regressions, 0);
}

TEST(BenchCompareTest, AbsoluteFloorGuardsZeroBaselines) {
  // 0 -> 1e-12 seconds is relatively huge but absolutely nothing.
  const std::vector<BenchRow> baseline = {Row("M1", 1, 0.0, 0.8)};
  const std::vector<BenchRow> candidate = {Row("M1", 1, 1e-12, 0.8)};
  EXPECT_EQ(CompareBench(baseline, candidate).regressions, 0);
  // 0 -> 0.5 seconds is a real regression even with a zero baseline.
  const std::vector<BenchRow> bad = {Row("M1", 1, 0.5, 0.8)};
  EXPECT_EQ(CompareBench(baseline, bad).regressions, 1);
}

TEST(BenchCompareTest, RowsMatchByIdentityNotOrder) {
  const std::vector<BenchRow> baseline = {Row("M1", 1, 1.0, 0.8),
                                          Row("M2", 1, 2.0, 0.7)};
  const std::vector<BenchRow> candidate = {Row("M2", 1, 2.0, 0.7),
                                           Row("M1", 1, 1.0, 0.8)};
  const CompareReport report = CompareBench(baseline, candidate);
  EXPECT_EQ(report.regressions, 0);
  EXPECT_TRUE(report.missing_in_candidate.empty());
}

TEST(BenchCompareTest, UnmatchedRowsAreReportedNotFlagged) {
  const std::vector<BenchRow> baseline = {Row("M1", 1, 1.0, 0.8),
                                          Row("M3", 1, 1.0, 0.8)};
  const std::vector<BenchRow> candidate = {Row("M1", 1, 1.0, 0.8),
                                           Row("M4", 1, 1.0, 0.8)};
  const CompareReport report = CompareBench(baseline, candidate);
  EXPECT_EQ(report.regressions, 0);
  ASSERT_EQ(report.missing_in_candidate.size(), 1u);
  EXPECT_NE(report.missing_in_candidate[0].find("M3"), std::string::npos);
  ASSERT_EQ(report.missing_in_baseline.size(), 1u);
  EXPECT_NE(report.missing_in_baseline[0].find("M4"), std::string::npos);
}

TEST(BenchCompareTest, FormatMentionsRegressionsAndTally) {
  const std::vector<BenchRow> baseline = {Row("M1", 1, 1.0, 0.8)};
  const std::vector<BenchRow> candidate = {Row("M1", 1, 2.0, 0.8)};
  const CompareOptions options;
  const CompareReport report = CompareBench(baseline, candidate, options);
  const std::string text = FormatCompareReport(report, options);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
  EXPECT_NE(text.find("seconds"), std::string::npos);
  EXPECT_NE(text.find("1 regression(s)"), std::string::npos);
}

}  // namespace
}  // namespace rasa::bench
