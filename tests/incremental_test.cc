// Delta-aware incremental re-optimization: the snapshot differ, the
// incremental-state serialization (journal records + checkpoint section),
// the reuse/fallback split of the incremental Optimize path, and the workflow
// plumbing that carries the delta cache across cycles and crashes. The
// bit-identity matrix (incremental ≡ full resolve across thread counts and
// across --resume) lives in incremental_determinism_test.cc.

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/delta.h"
#include "core/rasa.h"
#include "core/recovery.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  return testing::MakeSnapshot(M1Spec(32.0), seed);
}

RasaOptions TestOptions(uint64_t seed) {
  RasaOptions options;
  options.timeout_seconds = 30.0;
  options.partitioning.max_subproblem_services = 12;
  options.seed = seed;
  return options;
}

// A structurally identical cluster with every affinity weight scaled: the
// differ must mark every subproblem with internal edges dirty.
Cluster ScaleAffinity(const Cluster& cluster, double factor) {
  AffinityGraph scaled(cluster.num_services());
  for (const AffinityEdge& e : cluster.affinity().edges()) {
    scaled.AddEdge(e.u, e.v, e.weight * factor);
  }
  return Cluster(cluster.resource_names(), cluster.services(),
                 cluster.machines(), std::move(scaled),
                 cluster.anti_affinity());
}

// ------------------------------------------------------------- differ ----

TEST(DeltaTest, StructureSignatureIsStableAndSensitive) {
  const ClusterSnapshot snapshot = MakeCluster(3);
  const uint64_t sig = ClusterStructureSignature(*snapshot.cluster);
  EXPECT_EQ(sig, ClusterStructureSignature(*snapshot.cluster));
  // Affinity weights are diffed per-partition, not hashed: a re-weighted
  // cluster keeps its signature.
  EXPECT_EQ(sig, ClusterStructureSignature(ScaleAffinity(*snapshot.cluster,
                                                         3.0)));
  // Capacity changes are structural.
  std::vector<Machine> machines = snapshot.cluster->machines();
  machines[0].capacity[0] *= 2.0;
  const Cluster resized(snapshot.cluster->resource_names(),
                        snapshot.cluster->services(), std::move(machines),
                        snapshot.cluster->affinity(),
                        snapshot.cluster->anti_affinity());
  EXPECT_NE(sig, ClusterStructureSignature(resized));
}

TEST(DeltaTest, DiffAgainstInvalidStateIsColdStart) {
  const ClusterSnapshot snapshot = MakeCluster(3);
  const IncrementalState state;  // valid == false
  const SnapshotDelta delta = DiffSnapshot(
      *snapshot.cluster, snapshot.original_placement, state, DeltaOptions());
  EXPECT_TRUE(delta.full_resolve);
  EXPECT_EQ(delta.reason, "cold-start");
}

TEST(DeltaTest, UnchangedSnapshotDiffsClean) {
  const ClusterSnapshot snapshot = MakeCluster(5);
  const RasaOptimizer optimizer(TestOptions(19),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  IncrementalState state;
  StatusOr<RasaResult> first = optimizer.Optimize(
      *snapshot.cluster, snapshot.original_placement,
      OptimizeContext(nullptr, &state));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(state.valid);

  // Diffing the optimizer's own output against its state: nothing moved.
  const SnapshotDelta delta = DiffSnapshot(*snapshot.cluster,
                                           first->new_placement, state,
                                           DeltaOptions());
  EXPECT_FALSE(delta.full_resolve);
  EXPECT_EQ(delta.num_dirty, 0);
  EXPECT_EQ(delta.dirty_affinity_fraction, 0.0);
}

TEST(DeltaTest, ReweightedAffinityDirtiesPartitions) {
  const ClusterSnapshot snapshot = MakeCluster(5);
  const RasaOptimizer optimizer(TestOptions(19),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  IncrementalState state;
  StatusOr<RasaResult> first = optimizer.Optimize(
      *snapshot.cluster, snapshot.original_placement,
      OptimizeContext(nullptr, &state));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // Non-uniform re-weighting (uniform scaling cancels in the relative
  // ratios after normalization): perturb each edge by its index.
  AffinityGraph skewed(snapshot.cluster->num_services());
  int i = 0;
  for (const AffinityEdge& e : snapshot.cluster->affinity().edges()) {
    skewed.AddEdge(e.u, e.v, e.weight * (1.0 + 0.1 * (++i % 7)));
  }
  skewed.NormalizeWeights();
  const Cluster reweighted(snapshot.cluster->resource_names(),
                           snapshot.cluster->services(),
                           snapshot.cluster->machines(), std::move(skewed),
                           snapshot.cluster->anti_affinity());
  const SnapshotDelta delta = DiffSnapshot(reweighted, first->new_placement,
                                           state, DeltaOptions());
  // Weight drift everywhere: the drift threshold forces a full resolve.
  EXPECT_TRUE(delta.full_resolve);
  EXPECT_EQ(delta.reason, "drift-threshold");
}

// ------------------------------------------------------ serialization ----

TEST(DeltaTest, IncrementalStateRoundTripsThroughText) {
  const ClusterSnapshot snapshot = MakeCluster(7);
  const RasaOptimizer optimizer(TestOptions(23),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  IncrementalState state;
  StatusOr<RasaResult> result = optimizer.Optimize(
      *snapshot.cluster, snapshot.original_placement,
      OptimizeContext(nullptr, &state));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(state.valid);
  ASSERT_FALSE(state.subproblems.empty());

  const std::string encoded = EncodeIncrementalStateString(state);
  StatusOr<IncrementalState> decoded = DecodeIncrementalStateString(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Canonical form: decode(encode(x)) re-encodes to the same bytes.
  EXPECT_EQ(EncodeIncrementalStateString(*decoded), encoded);
  EXPECT_EQ(decoded->structure_signature, state.structure_signature);
  EXPECT_EQ(decoded->subproblems.size(), state.subproblems.size());
  // The decoded state must be as good as the live one: same delta verdict.
  const SnapshotDelta live = DiffSnapshot(*snapshot.cluster,
                                          result->new_placement, state,
                                          DeltaOptions());
  const SnapshotDelta replay = DiffSnapshot(*snapshot.cluster,
                                            result->new_placement, *decoded,
                                            DeltaOptions());
  EXPECT_EQ(live.full_resolve, replay.full_resolve);
  EXPECT_EQ(live.num_dirty, replay.num_dirty);
}

TEST(DeltaTest, DecodeRejectsCorruptInput) {
  EXPECT_FALSE(DecodeIncrementalStateString("").ok());
  EXPECT_FALSE(DecodeIncrementalStateString("not-incstate 1 2 3").ok());
  EXPECT_FALSE(DecodeIncrementalStateString("incstate-v1 1 42 5 4").ok());
  // Absurd subproblem count must be rejected before any allocation.
  EXPECT_FALSE(
      DecodeIncrementalStateString("incstate-v1 1 42 5 4 1 0.5 0.1 99999999")
          .ok());
  EXPECT_FALSE(
      DecodeIncrementalStateString("incstate-v1 1 42 -5 4 1 0.5 0.1 0").ok());

  // Well-framed states whose values index past the header's cluster: each
  // would write out of bounds in DiffSnapshot or the merge.
  const ClusterSnapshot snapshot = MakeCluster(7);
  const RasaOptimizer optimizer(TestOptions(23),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  IncrementalState state;
  ASSERT_TRUE(optimizer
                  .Optimize(*snapshot.cluster, snapshot.original_placement,
                            OptimizeContext(nullptr, &state))
                  .ok());
  std::vector<std::string> tokens;
  {
    std::istringstream is(EncodeIncrementalStateString(state));
    for (std::string token; is >> token;) tokens.push_back(token);
  }
  // Token offsets of the first cached subproblem's fields (see
  // EncodeIncrementalState): "sp", services, machines, affinity, edges,
  // assignments, then the solve's outcome.
  size_t at = 10;
  const size_t service = at + 1;
  at += 1 + std::stoul(tokens[at]);
  const size_t machine = at + 1;
  at += 1 + std::stoul(tokens[at]) + 1;
  ASSERT_GT(std::stoul(tokens[at]), 0u) << "first subproblem has no edges";
  const size_t edge_v = at + 2;
  at += 1 + 3 * std::stoul(tokens[at]);
  ASSERT_GT(std::stoul(tokens[at]), 0u) << "first subproblem placed nothing";
  const size_t assignment_service = at + 1;
  const size_t assignment_machine = at + 2;
  const size_t assignment_count = at + 3;
  at += 1 + 3 * std::stoul(tokens[at]);
  const size_t algorithm = at + 5;
  const size_t ladder_rung = at + 8;
  const std::pair<size_t, const char*> corruptions[] = {
      {service, "99999999"},       {service, "-1"},
      {machine, "99999999"},       {edge_v, "99999999"},
      {assignment_service, "-1"},  {assignment_machine, "99999999"},
      {assignment_count, "-2"},    {algorithm, "2"},
      {algorithm, "-1"},           {ladder_rung, "3"},
      {ladder_rung, "-1"},
  };
  auto join = [](const std::vector<std::string>& parts) {
    std::string text;
    for (const std::string& part : parts) text += part + " ";
    return text;
  };
  ASSERT_TRUE(DecodeIncrementalStateString(join(tokens)).ok());
  for (const auto& [offset, value] : corruptions) {
    SCOPED_TRACE(::testing::Message() << "token " << offset << " = " << value);
    std::vector<std::string> corrupt = tokens;
    corrupt[offset] = value;
    EXPECT_FALSE(DecodeIncrementalStateString(join(corrupt)).ok());
  }
}

TEST(DeltaTest, JournalRecordRoundTripsIncrementalState) {
  const ClusterSnapshot snapshot = MakeCluster(7);
  const RasaOptimizer optimizer(TestOptions(23),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  IncrementalState state;
  ASSERT_TRUE(optimizer
                  .Optimize(*snapshot.cluster, snapshot.original_placement,
                            OptimizeContext(nullptr, &state))
                  .ok());
  JournalRecord rec;
  rec.type = JournalRecordType::kIncrementalState;
  rec.cycle = 4;
  rec.incremental_state = EncodeIncrementalStateString(state);
  StatusOr<JournalRecord> decoded = DecodeJournalRecord(EncodeJournalRecord(rec));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->type, JournalRecordType::kIncrementalState);
  EXPECT_EQ(decoded->cycle, 4);
  EXPECT_EQ(decoded->incremental_state, rec.incremental_state);
}

TEST(DeltaTest, CheckpointCarriesIncrementalStateAndStaysBackwardCompatible) {
  const ClusterSnapshot snapshot = MakeCluster(7);
  const RasaOptimizer optimizer(TestOptions(23),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  WorkflowCheckpoint c;
  c.next_cycle = 2;
  c.rng_state = Rng(9).SerializeState();
  c.frozen_cooldown.assign(snapshot.cluster->num_services(), 0);
  c.snapshot = snapshot;
  ASSERT_TRUE(optimizer
                  .Optimize(*snapshot.cluster, snapshot.original_placement,
                            OptimizeContext(nullptr, &c.incremental))
                  .ok());
  ASSERT_TRUE(c.incremental.valid);
  StatusOr<WorkflowCheckpoint> decoded =
      DecodeWorkflowCheckpoint(EncodeWorkflowCheckpoint(c));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->incremental.valid);
  EXPECT_EQ(EncodeIncrementalStateString(decoded->incremental),
            EncodeIncrementalStateString(c.incremental));

  // A checkpoint without the section (what every pre-incremental run
  // wrote) still decodes, with the state left invalid.
  c.incremental = IncrementalState();
  decoded = DecodeWorkflowCheckpoint(EncodeWorkflowCheckpoint(c));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->incremental.valid);
}

// ---------------------------------------------------------- optimizer ----

TEST(IncrementalOptimizeTest, FirstCallIsColdStartThenSteadyStateReuses) {
  const ClusterSnapshot snapshot = MakeCluster(11);
  const RasaOptimizer optimizer(TestOptions(29),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  // One solve-time sample per subproblem whose solvers ran.
  const Histogram& solve_seconds =
      MetricRegistry::Default().GetHistogram("rasa.subproblem_seconds");
  uint64_t samples = solve_seconds.Scrape().count;
  IncrementalState state;
  StatusOr<RasaResult> first = optimizer.Optimize(
      *snapshot.cluster, snapshot.original_placement,
      OptimizeContext(nullptr, &state));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->incremental);
  EXPECT_EQ(first->incremental_reason, "cold-start");
  EXPECT_EQ(first->reused_subproblems, 0);
  EXPECT_EQ(solve_seconds.Scrape().count - samples,
            first->subproblems.size());
  samples = solve_seconds.Scrape().count;
  ASSERT_TRUE(state.valid);

  // Re-optimizing the optimizer's own output with unchanged inputs: every
  // subproblem is clean and the realized placement is reproduced exactly.
  StatusOr<RasaResult> second = optimizer.Optimize(
      *snapshot.cluster, first->new_placement,
      OptimizeContext(nullptr, &state));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->incremental);
  EXPECT_EQ(second->dirty_subproblems, 0);
  ASSERT_GT(second->reused_subproblems, 0);
  // Reused subproblems ran no solver, so they add no sample.
  EXPECT_EQ(solve_seconds.Scrape().count - samples,
            static_cast<uint64_t>(second->dirty_subproblems));
  EXPECT_EQ(second->reused_subproblems,
            static_cast<int>(second->subproblems.size()));
  EXPECT_EQ(second->new_placement.DiffCount(first->new_placement), 0);
  EXPECT_EQ(first->new_placement.DiffCount(second->new_placement), 0);
  EXPECT_TRUE(second->new_placement.CheckFeasible(false).ok());
  // Reused rows are flagged in the solve ledger.
  ASSERT_TRUE(second->report.populated);
  for (const LedgerRecord& rec : second->report.records) {
    EXPECT_TRUE(rec.reused);
  }
}

TEST(IncrementalOptimizeTest, StructureChangeFallsBackToFullResolve) {
  const ClusterSnapshot snapshot = MakeCluster(11);
  const RasaOptimizer optimizer(TestOptions(29),
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  IncrementalState state;
  ASSERT_TRUE(optimizer
                  .Optimize(*snapshot.cluster, snapshot.original_placement,
                            OptimizeContext(nullptr, &state))
                  .ok());
  std::vector<Machine> machines = snapshot.cluster->machines();
  machines[0].capacity[0] *= 2.0;
  const Cluster resized(snapshot.cluster->resource_names(),
                        snapshot.cluster->services(), std::move(machines),
                        snapshot.cluster->affinity(),
                        snapshot.cluster->anti_affinity());
  const Placement rebound = [&] {
    Placement p(resized);
    for (int m = 0; m < resized.num_machines(); ++m) {
      for (const auto& [s, count] :
           snapshot.original_placement.ServicesOn(m)) {
        p.Add(m, s, count);
      }
    }
    return p;
  }();
  StatusOr<RasaResult> result =
      optimizer.Optimize(resized, rebound, OptimizeContext(nullptr, &state));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->incremental);
  EXPECT_EQ(result->incremental_reason, "structure");
  // The refreshed state binds to the new structure.
  EXPECT_EQ(state.structure_signature, ClusterStructureSignature(resized));
}

// ------------------------------------------------------------ workflow ----

TEST(IncrementalWorkflowTest, CyclesReportReuseAndStayFeasible) {
  const ClusterSnapshot snapshot = MakeCluster(13);
  WorkflowOptions options;
  options.cycles = 4;
  options.drift_fraction = 0.02;
  // Measurement noise re-randomizes every edge weight per cycle, which the
  // differ rightly reports as full drift; reuse needs exact measurement
  // (or a weight_tolerance sized to the noise).
  options.measurement_noise = 0.0;
  options.rasa.timeout_seconds = 15.0;
  options.rasa.partitioning.max_subproblem_services = 12;
  options.incremental = true;
  options.seed = 515;
  StatusOr<WorkflowReport> report = RunWorkflow(
      *snapshot.cluster, snapshot.original_placement,
      AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->cycles.size(), 4u);
  EXPECT_FALSE(report->cycles[0].incremental);
  EXPECT_EQ(report->cycles[0].incremental_reason, "cold-start");
  // Later cycles either reuse or record an explicit fallback reason; at 2%
  // drift the steady state must reuse at least once.
  int reused_cycles = 0;
  for (size_t c = 1; c < report->cycles.size(); ++c) {
    const CycleReport& cr = report->cycles[c];
    if (cr.solver_failed) continue;
    if (cr.incremental) {
      ++reused_cycles;
      EXPECT_GT(cr.reused_subproblems, 0) << "cycle " << c;
    } else {
      EXPECT_FALSE(cr.incremental_reason.empty()) << "cycle " << c;
    }
  }
  EXPECT_GT(reused_cycles, 0);
  EXPECT_TRUE(report->final_placement.CheckFeasible(false).ok());
  EXPECT_EQ(report->sla_violations, 0);
  EXPECT_EQ(report->feasibility_violations, 0);
}

TEST(IncrementalWorkflowTest, IncrementalOffLeavesReportsUntouched) {
  const ClusterSnapshot snapshot = MakeCluster(13);
  WorkflowOptions options;
  options.cycles = 2;
  options.rasa.timeout_seconds = 15.0;
  options.rasa.partitioning.max_subproblem_services = 12;
  options.seed = 515;  // incremental defaults to off
  StatusOr<WorkflowReport> report = RunWorkflow(
      *snapshot.cluster, snapshot.original_placement,
      AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const CycleReport& cr : report->cycles) {
    EXPECT_FALSE(cr.incremental);
    EXPECT_EQ(cr.reused_subproblems, 0);
    EXPECT_TRUE(cr.incremental_reason.empty());
  }
}

}  // namespace
}  // namespace rasa
