// The explain report of an Optimize run: the quality certificate must be a
// genuine upper bound (achieved <= bound, across seeds and selector
// policies), the attribution waterfall must sum exactly to the final
// gained affinity, the flight-recorder records must mirror the subproblem
// reports in canonical order, and the placement-diff audit must name the
// right movers. Also covers the JSON and text renderings.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/explain.h"
#include "core/objective.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed, double scale = 64.0) {
  return testing::MakeSnapshot(M1Spec(scale), seed);
}

RasaResult RunRasa(const ClusterSnapshot& snapshot, SelectorPolicy policy,
                   uint64_t seed) {
  RasaOptions options;
  options.timeout_seconds = 10.0;
  options.seed = seed;
  options.compute_migration = false;
  RasaOptimizer optimizer(options, AlgorithmSelector(policy));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  RASA_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectCertificateSound(const RasaResult& result) {
  const QualityCertificate& cert = result.report.certificate;
  constexpr double kEps = 1e-9;
  EXPECT_LE(cert.achieved, cert.bound + kEps);
  EXPECT_DOUBLE_EQ(cert.achieved, result.new_gained_affinity);
  EXPECT_GE(cert.Gap(), 0.0);
  EXPECT_GE(cert.Ratio(), 0.0);
  EXPECT_LE(cert.Ratio(), 1.0);
  // The bound decomposes exactly into the records' terms.
  double sum_terms = 0.0;
  int tightened = 0;
  for (const LedgerRecord& rec : result.report.records) {
    EXPECT_LE(rec.certificate_bound, rec.internal_affinity + kEps);
    EXPECT_GE(rec.certificate_bound, 0.0);
    if (rec.bound_tightened) {
      ++tightened;
      // Tightening requires a non-trivial solver bound, and that bound
      // still covers what the subproblem realized.
      EXPECT_NE(rec.bound_source, "trivial");
      EXPECT_LE(rec.realized_affinity, rec.certificate_bound + kEps);
    }
    sum_terms += rec.certificate_bound;
  }
  EXPECT_EQ(tightened, cert.tightened_terms);
  EXPECT_NEAR(cert.bound, cert.external_affinity + sum_terms, 1e-9);
}

TEST(ExplainTest, CertificateHoldsAcrossSeedsAndPolicies) {
  for (const uint64_t cluster_seed : {3u, 11u}) {
    const ClusterSnapshot snapshot = MakeCluster(cluster_seed);
    for (const SelectorPolicy policy :
         {SelectorPolicy::kHeuristic, SelectorPolicy::kAlwaysCg,
          SelectorPolicy::kAlwaysMip}) {
      for (const uint64_t seed : {1u, 42u}) {
        SCOPED_TRACE(::testing::Message()
                     << "cluster_seed=" << cluster_seed << " policy="
                     << static_cast<int>(policy) << " seed=" << seed);
        const RasaResult result = RunRasa(snapshot, policy, seed);
        ASSERT_TRUE(result.report.populated);
        ExpectCertificateSound(result);
      }
    }
  }
}

TEST(ExplainTest, WaterfallSumsToFinalAffinity) {
  const ClusterSnapshot snapshot = MakeCluster(7);
  const RasaResult result = RunRasa(snapshot, SelectorPolicy::kHeuristic, 9);
  const AttributionWaterfall& w = result.report.waterfall;
  EXPECT_NEAR(w.Sum(), w.total, 1e-12);
  EXPECT_DOUBLE_EQ(w.total, result.new_gained_affinity);
  EXPECT_DOUBLE_EQ(w.total, result.report.certificate.achieved);
  EXPECT_DOUBLE_EQ(w.original_gained_affinity,
                   result.original_gained_affinity);
  EXPECT_GE(w.base_retained, 0.0);
}

TEST(ExplainTest, RecordsMirrorSubproblemReportsInCanonicalOrder) {
  const ClusterSnapshot snapshot = MakeCluster(13);
  const RasaResult result = RunRasa(snapshot, SelectorPolicy::kHeuristic, 5);
  const std::vector<LedgerRecord>& records = result.report.records;
  ASSERT_EQ(records.size(), result.subproblems.size());
  double previous_affinity = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < records.size(); ++i) {
    const LedgerRecord& rec = records[i];
    const SubproblemReport& rep = result.subproblems[i];
    EXPECT_EQ(rec.position, static_cast<int>(i));
    // Each report row is a view of the record at the same position.
    EXPECT_EQ(rec.num_services, rep.num_services);
    EXPECT_EQ(rec.num_machines, rep.num_machines);
    EXPECT_DOUBLE_EQ(rec.internal_affinity, rep.internal_affinity);
    EXPECT_EQ(rec.selected, rep.algorithm);
    EXPECT_DOUBLE_EQ(rec.realized_affinity, rep.gained_affinity);
    EXPECT_EQ(rec.seconds, rep.seconds);
    EXPECT_EQ(rec.used_secondary, rep.used_secondary);
    EXPECT_EQ(rec.fell_to_greedy, rep.failed);
    EXPECT_EQ(rec.bound_source == "pop", rep.used_pop);
    EXPECT_EQ(rec.ladder_rung,
              rep.failed ? 2 : (rep.used_secondary ? 1 : 0));
    // Canonical solve order: non-increasing internal affinity.
    EXPECT_LE(rec.internal_affinity, previous_affinity);
    previous_affinity = rec.internal_affinity;
    // A healthy primary attempt carries its solver introspection.
    if (rec.primary.outcome == AttemptOutcome::kOk && !rec.used_secondary) {
      EXPECT_TRUE(rec.primary.has_cg || rec.primary.has_mip);
    }
  }

  // The certificate's rendered terms are the records' terms, in order.
  JsonWriter writer;
  AppendExplainJson(writer, result.report, /*include_timings=*/false);
  const std::string json = writer.str();
  size_t at = json.find("\"terms\": [");
  ASSERT_NE(at, std::string::npos);
  for (const LedgerRecord& rec : records) {
    at = json.find("\"source\": \"" + rec.bound_source + "\"", at);
    ASSERT_NE(at, std::string::npos) << "record " << rec.position;
    ++at;
  }
  EXPECT_LT(at, json.find("\"waterfall\""));
}

TEST(ExplainTest, PlacementDiffNamesTheMovers) {
  const ClusterSnapshot snapshot = MakeCluster(19, 96.0);
  const Cluster& cluster = *snapshot.cluster;
  const Placement& before = snapshot.original_placement;

  // No move, no diff.
  const PlacementDiffAudit same = BuildPlacementDiff(cluster, before, before);
  EXPECT_EQ(same.moved_containers, 0);
  EXPECT_TRUE(same.top_moved.empty());
  EXPECT_TRUE(same.top_localized.empty());

  // Relocate one container of the first service that has a feasible
  // destination; the audit must name exactly that service.
  Placement after = before;
  int moved_service = -1;
  for (int s = 0; s < cluster.num_services() && moved_service < 0; ++s) {
    const auto machines = after.MachinesOf(s);
    if (machines.empty()) continue;
    const int from = machines.begin()->first;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      if (m != from && after.CanPlace(m, s)) {
        ASSERT_TRUE(after.Remove(from, s).ok());
        after.Add(m, s);
        moved_service = s;
        break;
      }
    }
  }
  ASSERT_GE(moved_service, 0) << "no movable container in the snapshot";

  const PlacementDiffAudit diff = BuildPlacementDiff(cluster, before, after);
  EXPECT_EQ(diff.moved_containers, before.DiffCount(after));
  ASSERT_EQ(diff.top_moved.size(), 1u);
  EXPECT_EQ(diff.top_moved[0].service, moved_service);
  EXPECT_EQ(diff.top_moved[0].name, cluster.service(moved_service).name);
  EXPECT_EQ(diff.top_moved[0].moved_containers, 1);
  // Any reported localization delta must be consistent with the objective.
  for (const auto& pair : diff.top_localized) {
    EXPECT_NEAR(pair.delta_affinity,
                pair.weight * (pair.ratio_after - pair.ratio_before), 1e-12);
    EXPECT_NEAR(pair.ratio_before,
                PairLocalizationRatio(cluster, before, pair.u, pair.v),
                1e-12);
    EXPECT_NEAR(pair.ratio_after,
                PairLocalizationRatio(cluster, after, pair.u, pair.v),
                1e-12);
  }
}

TEST(ExplainTest, DiffAuditTruncatesToTopK) {
  const ClusterSnapshot snapshot = MakeCluster(23);
  const RasaResult result = RunRasa(snapshot, SelectorPolicy::kHeuristic, 3);
  const PlacementDiffAudit& diff = result.report.diff;
  EXPECT_LE(diff.top_moved.size(), 8u);
  EXPECT_LE(diff.top_localized.size(), 8u);
  // Descending order in both lists.
  for (size_t i = 1; i < diff.top_moved.size(); ++i) {
    EXPECT_GE(diff.top_moved[i - 1].moved_containers,
              diff.top_moved[i].moved_containers);
  }
  for (size_t i = 1; i < diff.top_localized.size(); ++i) {
    EXPECT_GE(diff.top_localized[i - 1].delta_affinity,
              diff.top_localized[i].delta_affinity);
  }
  EXPECT_EQ(diff.moved_containers, result.moved_containers);
}

TEST(ExplainTest, JsonAndTextRenderings) {
  const ClusterSnapshot snapshot = MakeCluster(29);
  const RasaResult result = RunRasa(snapshot, SelectorPolicy::kHeuristic, 8);

  JsonWriter writer;
  AppendExplainJson(writer, result.report);
  const std::string json = writer.str();
  for (const char* key :
       {"\"certificate\"", "\"waterfall\"", "\"diff\"", "\"records\"",
        "\"solver_gain\"", "\"seconds\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The certificate's own keys (before its `terms`, whose entries carry a
  // per-term "bound") hold exactly one achieved value and one bound.
  const size_t cert_begin = json.find("\"certificate\"");
  const size_t terms_begin = json.find("\"terms\"", cert_begin);
  ASSERT_NE(terms_begin, std::string::npos);
  const std::string cert_keys =
      json.substr(cert_begin, terms_begin - cert_begin);
  auto occurrences = [&cert_keys](const std::string& needle) {
    int n = 0;
    for (size_t at = cert_keys.find(needle); at != std::string::npos;
         at = cert_keys.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("\"achieved\":"), 1) << cert_keys;
  EXPECT_EQ(occurrences("\"bound\":"), 1) << cert_keys;
  EXPECT_EQ(occurrences("achieved"), 1) << cert_keys;
  EXPECT_EQ(occurrences("bound"), 1) << cert_keys;
  EXPECT_EQ(json.find("local_search"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  // With timings excluded every wall-clock key disappears.
  JsonWriter bare;
  AppendExplainJson(bare, result.report, /*include_timings=*/false);
  EXPECT_EQ(bare.str().find("\"seconds\""), std::string::npos);
  EXPECT_EQ(bare.str().find("\"budget_seconds\""), std::string::npos);

  const std::string text = FormatExplainReport(result.report);
  for (const char* needle : {"certificate", "waterfall", "p50", "p95"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  for (const char* needle : {"local-search", "Local search"}) {
    EXPECT_EQ(text.find(needle), std::string::npos) << needle;
  }
}

// A POP split's MIP attempts carry no bound (their certificate term is the
// trivial one), so the text report must not print a gap for them: a
// "gap=0" would read as a proven optimum. GoldenDigestTest.PopSplit's
// inputs with every subproblem labelled MIP.
TEST(ExplainTest, PopMipAttemptsPrintNoGap) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M1Spec(32.0), 5);
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.partitioning.max_subproblem_services = 12;
  options.seed = 17;
  options.pop.max_services = 6;
  options.compute_migration = false;
  const RasaOptimizer optimizer(options,
                                AlgorithmSelector(SelectorPolicy::kAlwaysMip));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = FormatExplainReport(result->report);
  int pop_mip_lines = 0;
  for (const LedgerRecord& r : result->report.records) {
    if (r.bound_source != "pop" || !r.primary.has_mip) continue;
    const size_t header = text.find(
        StrFormat("  #%d (pos %d,", r.subproblem, r.position));
    ASSERT_NE(header, std::string::npos) << r.subproblem;
    const size_t begin = text.find("primary:", header);
    ASSERT_NE(begin, std::string::npos);
    const std::string line = text.substr(begin, text.find('\n', begin) - begin);
    SCOPED_TRACE(line);
    EXPECT_NE(line.find("no bound"), std::string::npos);
    EXPECT_EQ(line.find("gap="), std::string::npos);
    ++pop_mip_lines;
  }
  EXPECT_GT(pop_mip_lines, 0);
}

}  // namespace
}  // namespace rasa
