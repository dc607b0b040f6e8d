#include <algorithm>
#include <string>

#include "cluster/cluster.h"
#include "cluster/first_fit.h"
#include "cluster/generator.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "common/strings.h"
#include "graph/powerlaw_fit.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

// A small hand-built cluster: 3 services, 2 machines, one anti-affinity
// rule, two platforms.
Cluster TinyCluster() {
  std::vector<Service> services(3);
  services[0] = {"a", 4, {1.0, 2.0}, 0};
  services[1] = {"b", 2, {2.0, 1.0}, 0};
  services[2] = {"c", 1, {1.0, 1.0}, 1};
  std::vector<Machine> machines(3);
  machines[0] = {"m0", 0, {8.0, 12.0}, 0};
  machines[1] = {"m1", 0, {8.0, 12.0}, 0};
  machines[2] = {"m2", 1, {4.0, 6.0}, 1};
  AffinityGraph affinity(3);
  affinity.AddEdge(0, 1, 1.0);
  std::vector<AntiAffinityRule> rules = {{{0}, 2}};  // at most 2 of a/machine
  return Cluster({"cpu", "mem"}, std::move(services), std::move(machines),
                 std::move(affinity), std::move(rules));
}

TEST(ClusterTest, AccessorsAndValidation) {
  Cluster c = TinyCluster();
  EXPECT_EQ(c.num_services(), 3);
  EXPECT_EQ(c.num_machines(), 3);
  EXPECT_EQ(c.num_resources(), 2);
  EXPECT_EQ(c.num_containers(), 7);
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.RulesOfService(0), (std::vector<int>{0}));
  EXPECT_TRUE(c.RulesOfService(1).empty());
}

TEST(ClusterTest, CanHostFollowsPlatform) {
  Cluster c = TinyCluster();
  EXPECT_TRUE(c.CanHost(0, 0));
  EXPECT_TRUE(c.CanHost(1, 1));
  EXPECT_FALSE(c.CanHost(2, 0));  // platform mismatch
  EXPECT_FALSE(c.CanHost(0, 2));
  EXPECT_TRUE(c.CanHost(2, 2));
}

TEST(ClusterTest, MachineSpecQueries) {
  Cluster c = TinyCluster();
  EXPECT_EQ(c.MachineSpecIds(), (std::vector<int>{0, 1}));
  EXPECT_EQ(c.MachinesWithSpec(0), (std::vector<int>{0, 1}));
  EXPECT_EQ(c.MachinesWithSpec(1), (std::vector<int>{2}));
}

TEST(ClusterTest, ValidationCatchesDimensionMismatch) {
  std::vector<Service> services = {{"a", 1, {1.0}, 0}};  // 1 resource
  std::vector<Machine> machines = {{"m", 0, {4.0, 4.0}, 0}};
  Cluster c({"cpu", "mem"}, services, machines, AffinityGraph(1), {});
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ClusterTest, ValidationCatchesBadAffinitySize) {
  std::vector<Service> services = {{"a", 1, {1.0, 1.0}, 0}};
  std::vector<Machine> machines = {{"m", 0, {4.0, 4.0}, 0}};
  Cluster c({"cpu", "mem"}, services, machines, AffinityGraph(5), {});
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ClusterTest, ValidationCatchesBadRule) {
  std::vector<Service> services = {{"a", 1, {1.0, 1.0}, 0}};
  std::vector<Machine> machines = {{"m", 0, {4.0, 4.0}, 0}};
  Cluster c({"cpu", "mem"}, services, machines, AffinityGraph(1),
            {{{7}, 1}});
  EXPECT_FALSE(c.Validate().ok());
}

TEST(ClusterTest, ValidationCatchesRuleListingAServiceTwice) {
  std::vector<Service> services = {{"a", 2, {1.0}, 0}, {"b", 2, {1.0}, 0}};
  std::vector<Machine> machines = {{"m", 0, {4.0}, 0}};
  Cluster c({"cpu"}, services, machines, AffinityGraph(2),
            {{{0, 1}, 2}, {{1, 0, 1}, 2}});
  const Status status = c.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("rule 1 lists service 1 twice"),
            std::string::npos)
      << status.ToString();
  // Listing one service in two different rules is fine.
  Cluster ok({"cpu"}, services, machines, AffinityGraph(2),
             {{{0, 1}, 2}, {{1}, 1}});
  EXPECT_TRUE(ok.Validate().ok());
}

// ------------------------------------------------------------ Placement ---

TEST(PlacementTest, AddRemoveBookkeeping) {
  Cluster c = TinyCluster();
  Placement p(c);
  p.Add(0, 0, 2);
  p.Add(1, 0, 1);
  EXPECT_EQ(p.CountOn(0, 0), 2);
  EXPECT_EQ(p.TotalOf(0), 3);
  EXPECT_EQ(p.ContainersOn(0), 2);
  EXPECT_DOUBLE_EQ(p.UsedResource(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(p.UsedResource(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(p.FreeResource(0, 0), 6.0);
  ASSERT_TRUE(p.Remove(0, 0, 1).ok());
  EXPECT_EQ(p.CountOn(0, 0), 1);
  EXPECT_EQ(p.TotalOf(0), 2);
  EXPECT_DOUBLE_EQ(p.UsedResource(0, 0), 1.0);
}

TEST(PlacementTest, RemoveTooManyFails) {
  Cluster c = TinyCluster();
  Placement p(c);
  p.Add(0, 0, 1);
  EXPECT_FALSE(p.Remove(0, 0, 2).ok());
  EXPECT_FALSE(p.Remove(1, 0, 1).ok());
}

TEST(PlacementTest, CanPlaceChecksResources) {
  Cluster c = TinyCluster();
  Placement p(c);
  // m0 has 8 cpu; service b needs 2 cpu -> at most 4 of b.
  EXPECT_TRUE(p.CanPlace(0, 1, 4));
  EXPECT_FALSE(p.CanPlace(0, 1, 5));
}

TEST(PlacementTest, CanPlaceChecksAntiAffinity) {
  Cluster c = TinyCluster();
  Placement p(c);
  EXPECT_TRUE(p.CanPlace(0, 0, 2));
  EXPECT_FALSE(p.CanPlace(0, 0, 3));  // rule caps at 2 per machine
  p.Add(0, 0, 2);
  EXPECT_FALSE(p.CanPlace(0, 0, 1));
}

TEST(PlacementTest, CanPlaceChecksPlatform) {
  Cluster c = TinyCluster();
  Placement p(c);
  EXPECT_FALSE(p.CanPlace(2, 0));  // service 0 is platform 0, m2 platform 1
  EXPECT_TRUE(p.CanPlace(2, 2));
}

TEST(PlacementTest, CheckFeasibleFullAudit) {
  Cluster c = TinyCluster();
  Placement p(c);
  // Deploy everything feasibly: a: 2+2, b: 1+1, c: 1.
  p.Add(0, 0, 2);
  p.Add(1, 0, 2);
  p.Add(0, 1, 1);
  p.Add(1, 1, 1);
  p.Add(2, 2, 1);
  EXPECT_TRUE(p.CheckFeasible(true).ok());
}

TEST(PlacementTest, CheckFeasibleCatchesSlaShortfall) {
  Cluster c = TinyCluster();
  Placement p(c);
  p.Add(0, 0, 2);
  EXPECT_FALSE(p.CheckFeasible(true).ok());
  EXPECT_TRUE(p.CheckFeasible(false).ok());
}

TEST(PlacementTest, CheckFeasibleCatchesOverCapacity) {
  Cluster c = TinyCluster();
  Placement p(c);
  p.Add(2, 2, 1);
  p.Add(2, 2, 4);  // Add() does not check; audit must catch it
  EXPECT_FALSE(p.CheckFeasible(false).ok());
}

// CanPlace and CheckFeasible share kCapacityTolerance: the audit accepts
// exactly what admission accepts, on both sides of the boundary.
TEST(PlacementTest, AdmissionAndAuditShareTheCapacityTolerance) {
  // One resource, capacity 1.0; two containers of the service fill it to
  // 1.0 + 2*excess.
  auto make = [](double excess) {
    std::vector<Service> services = {{"s", 2, {0.5 + excess}, 0}};
    std::vector<Machine> machines = {{"m", 0, {1.0}, 0}};
    return Cluster({"cpu"}, std::move(services), std::move(machines),
                   AffinityGraph(1), {});
  };

  // Overshoot well inside the tolerance: admitted, and the audit agrees.
  const Cluster fits = make(kCapacityTolerance / 20.0);
  Placement p_fits(fits);
  ASSERT_TRUE(p_fits.CanPlace(0, 0));
  p_fits.Add(0, 0);
  EXPECT_TRUE(p_fits.CanPlace(0, 0));
  p_fits.Add(0, 0);
  EXPECT_TRUE(p_fits.CheckFeasible(false).ok());

  // Overshoot past the tolerance: refused — and after forcing the second
  // container in anyway (Add does not check), the audit catches exactly
  // what admission refused. With split tolerances one of these two
  // expectations would fail.
  const Cluster overflows = make(kCapacityTolerance);
  Placement p_over(overflows);
  ASSERT_TRUE(p_over.CanPlace(0, 0));
  p_over.Add(0, 0);
  EXPECT_FALSE(p_over.CanPlace(0, 0));
  p_over.Add(0, 0);
  EXPECT_FALSE(p_over.CheckFeasible(false).ok());
}

TEST(PlacementTest, RuleCountAggregatesAcrossRuleMembers) {
  std::vector<Service> services = {{"a", 2, {1.0}, 0}, {"b", 2, {1.0}, 0}};
  std::vector<Machine> machines = {{"m", 0, {10.0}, 0}};
  Cluster c({"cpu"}, services, machines, AffinityGraph(2), {{{0, 1}, 3}});
  Placement p(c);
  p.Add(0, 0, 2);
  p.Add(0, 1, 1);
  EXPECT_EQ(p.RuleCount(0, 0), 3);
  EXPECT_FALSE(p.CanPlace(0, 1));
}

// CheckMachineFeasible audits only the rules of services on the machine.
TEST(PlacementTest, MachineAuditNamesTheLowerViolatedRule) {
  // Service 0 is listed first on the machine but sits in the higher rule.
  std::vector<Service> services = {{"a", 2, {1.0}, 0}, {"b", 2, {1.0}, 0}};
  std::vector<Machine> machines = {{"m", 0, {10.0}, 0}};
  Cluster c({"cpu"}, services, machines, AffinityGraph(2),
            {{{1}, 1}, {{0}, 1}});
  Placement p(c);
  p.Add(0, 0, 2);
  p.Add(0, 1, 2);
  const Status status = p.CheckMachineFeasible(0);
  EXPECT_EQ(status.message(),
            "machine 0 violates anti-affinity rule 0 (2 > 1)");
}

TEST(PlacementTest, MachineAuditReportsResourcesBeforeRules) {
  std::vector<Service> services = {{"a", 3, {4.0}, 0}};
  std::vector<Machine> machines = {{"m", 0, {10.0}, 0}};
  Cluster c({"cpu"}, services, machines, AffinityGraph(1), {{{0}, 1}});
  Placement p(c);
  p.Add(0, 0, 3);
  const Status status = p.CheckMachineFeasible(0);
  EXPECT_EQ(status.message(),
            "machine 0 over capacity on resource 0: 12 > 10");
}

TEST(PlacementTest, MachineAuditIgnoresRulesWithNoMemberPresent) {
  // A limit of 0 bans service 1 outright; machine 0 hosts none of it.
  std::vector<Service> services = {{"a", 2, {1.0}, 0}, {"b", 1, {1.0}, 0}};
  std::vector<Machine> machines = {{"m0", 0, {10.0}, 0},
                                   {"m1", 0, {10.0}, 0}};
  Cluster c({"cpu"}, services, machines, AffinityGraph(2), {{{1}, 0}});
  ASSERT_TRUE(c.Validate().ok());
  Placement p(c);
  p.Add(0, 0, 2);
  p.Add(1, 1, 1);
  EXPECT_TRUE(p.CheckMachineFeasible(0).ok());
  EXPECT_EQ(p.CheckMachineFeasible(1).message(),
            "machine 1 violates anti-affinity rule 0 (1 > 0)");
}

// The machine audit by its definition: resources, hosting, then every
// anti-affinity rule of the cluster in id order.
Status FullRuleScanAudit(const Cluster& c, const Placement& p, int m) {
  for (int r = 0; r < c.num_resources(); ++r) {
    if (p.UsedResource(m, r) > c.machine(m).capacity[r] + kCapacityTolerance) {
      return FailedPreconditionError(StrFormat(
          "machine %d over capacity on resource %d: %g > %g", m, r,
          p.UsedResource(m, r), c.machine(m).capacity[r]));
    }
  }
  for (const auto& [s, count] : p.ServicesOn(m)) {
    if (count > 0 && !c.CanHost(m, s)) {
      return FailedPreconditionError(
          StrFormat("machine %d cannot host service %d", m, s));
    }
  }
  for (size_t k = 0; k < c.anti_affinity().size(); ++k) {
    const int count = p.RuleCount(m, static_cast<int>(k));
    if (count > c.anti_affinity()[k].max_per_machine) {
      return FailedPreconditionError(StrFormat(
          "machine %d violates anti-affinity rule %zu (%d > %d)", m, k, count,
          c.anti_affinity()[k].max_per_machine));
    }
  }
  return Status::OK();
}

TEST(PlacementTest, MachineAuditMatchesFullRuleScanOnPerturbedPlacements) {
  int rule_violations = 0;
  for (const ClusterSpec& spec :
       {M1Spec(32.0), M2Spec(32.0), M3Spec(32.0), M4Spec(32.0)}) {
    SCOPED_TRACE(spec.name);
    StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const Cluster& c = *snapshot->cluster;
    ASSERT_FALSE(c.anti_affinity().empty());
    Placement p = snapshot->original_placement;
    Rng rng(41);
    const auto pick = [&rng](size_t n) {
      return static_cast<int>(rng.NextUint64(n));
    };
    // Unchecked adds of random services, adds that push one anti-affinity
    // rule to its limit, and removals.
    for (int i = 0; i < c.num_machines(); ++i) {
      const int m = pick(c.num_machines());
      switch (pick(3)) {
        case 0:
          p.Add(m, pick(c.num_services()));
          break;
        case 1: {
          const AntiAffinityRule& rule = c.anti_affinity()[pick(
              c.anti_affinity().size())];
          p.Add(m, rule.services[pick(rule.services.size())],
                rule.max_per_machine);
          break;
        }
        default:
          if (!p.ServicesOn(m).empty()) {
            ASSERT_TRUE(p.Remove(m, p.ServicesOn(m).begin()->first).ok());
          }
      }
    }
    Status first_violation = Status::OK();
    for (int m = 0; m < c.num_machines(); ++m) {
      const Status want = FullRuleScanAudit(c, p, m);
      EXPECT_EQ(p.CheckMachineFeasible(m).ToString(), want.ToString())
          << "machine " << m;
      if (want.message().find("anti-affinity") != std::string::npos) {
        ++rule_violations;
      }
      if (first_violation.ok()) first_violation = want;
    }
    EXPECT_EQ(p.CheckFeasible(false).ToString(), first_violation.ToString());
  }
  EXPECT_GT(rule_violations, 0);
}

TEST(PlacementTest, DiffCountCountsMoves) {
  Cluster c = TinyCluster();
  Placement p(c), q(c);
  p.Add(0, 0, 2);
  q.Add(1, 0, 2);
  EXPECT_EQ(p.DiffCount(q), 2);
  EXPECT_EQ(q.DiffCount(p), 2);
  EXPECT_EQ(p.DiffCount(p), 0);
}

// ------------------------------------------------------------- FirstFit ---

TEST(FirstFitTest, ProducesFullyFeasiblePlacement) {
  Cluster c = TinyCluster();
  Rng rng(1);
  StatusOr<Placement> p = FirstFitPlace(c, rng);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->CheckFeasible(true).ok());
}

TEST(FirstFitTest, FailsWhenCapacityIsInsufficient) {
  std::vector<Service> services = {{"a", 10, {4.0}, 0}};
  std::vector<Machine> machines = {{"m", 0, {8.0}, 0}};
  Cluster c({"cpu"}, services, machines, AffinityGraph(1), {});
  Rng rng(2);
  EXPECT_FALSE(FirstFitPlace(c, rng).ok());
}

TEST(FirstFitTest, PackingModePacksTighter) {
  // Without anti-affinity: packing must always succeed when spreading does.
  ClusterSpec spec = M3Spec(8.0);
  spec.anti_affinity_probability = 0.0;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  ASSERT_TRUE(snapshot.ok());
  Rng r1(4), r2(4);
  StatusOr<Placement> spread = FirstFitPlace(
      *snapshot->cluster, r1, FirstFitScore::kLeastAllocated, false);
  StatusOr<Placement> packed = FirstFitPlace(
      *snapshot->cluster, r2, FirstFitScore::kMostAllocated, false);
  ASSERT_TRUE(spread.ok());
  ASSERT_TRUE(packed.ok());
  // Packing should leave at least as many machines completely empty.
  auto empty_machines = [&](const Placement& p) {
    int count = 0;
    for (int m = 0; m < snapshot->cluster->num_machines(); ++m) {
      count += p.ContainersOn(m) == 0;
    }
    return count;
  };
  EXPECT_GE(empty_machines(*packed), empty_machines(*spread));
}

// ------------------------------------------------------------ Generator ---

TEST(GeneratorTest, GeneratesValidSchedulableCluster) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(32.0));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->cluster->Validate().ok());
  EXPECT_TRUE(snapshot->original_placement.CheckFeasible(true).ok());
}

TEST(GeneratorTest, IsDeterministicInSeed) {
  StatusOr<ClusterSnapshot> a = GenerateCluster(M1Spec(32.0));
  StatusOr<ClusterSnapshot> b = GenerateCluster(M1Spec(32.0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->cluster->num_services(), b->cluster->num_services());
  EXPECT_EQ(a->cluster->affinity().num_edges(),
            b->cluster->affinity().num_edges());
  EXPECT_EQ(a->original_placement.DiffCount(b->original_placement), 0);
}

TEST(GeneratorTest, AffinityIsNormalizedToOne) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M2Spec(64.0));
  ASSERT_TRUE(snapshot.ok());
  EXPECT_NEAR(snapshot->cluster->affinity().TotalWeight(), 1.0, 1e-9);
}

TEST(GeneratorTest, AffinityIsSkewedPerAssumption41) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(16.0));
  ASSERT_TRUE(snapshot.ok());
  const int top = snapshot->cluster->num_services() / 10;
  EXPECT_GT(TopKAffinityShare(snapshot->cluster->affinity(), top), 0.45);
}

TEST(GeneratorTest, TableTwoSpecsScaleProportionally) {
  std::vector<ClusterSpec> specs = TableTwoSpecs(16.0);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "M1");
  EXPECT_EQ(specs[1].name, "M2");
  // M2 is the biggest cluster in Table II.
  EXPECT_GT(specs[1].num_services, specs[0].num_services);
  EXPECT_GT(specs[1].num_machines, specs[3].num_machines / 2);
  // M3 is the small cluster.
  EXPECT_LT(specs[2].num_services, specs[0].num_services);
}

TEST(GeneratorTest, ScaleStatsMatchCluster) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M3Spec(8.0));
  ASSERT_TRUE(snapshot.ok());
  ClusterScaleStats stats = ComputeScaleStats(*snapshot);
  EXPECT_EQ(stats.name, "M3");
  EXPECT_EQ(stats.num_services, snapshot->cluster->num_services());
  EXPECT_EQ(stats.num_containers, snapshot->cluster->num_containers());
  EXPECT_EQ(stats.num_machines, snapshot->cluster->num_machines());
}

TEST(GeneratorTest, MinorityPlatformGetsMachines) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(16.0));
  ASSERT_TRUE(snapshot.ok());
  int minority_machines = 0;
  for (const Machine& m : snapshot->cluster->machines()) {
    minority_machines += m.platform == 1;
  }
  int minority_services = 0;
  for (const Service& s : snapshot->cluster->services()) {
    minority_services += s.platform == 1;
  }
  EXPECT_GT(minority_services, 0);
  EXPECT_GT(minority_machines, 0);
}

TEST(GeneratorTest, RejectsBadSpec) {
  ClusterSpec spec;
  spec.num_services = 0;
  EXPECT_FALSE(GenerateCluster(spec).ok());
}

TEST(GeneratorTest, UtilizationIsModerate) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(16.0));
  ASSERT_TRUE(snapshot.ok());
  const double util = AverageUtilization(snapshot->original_placement);
  EXPECT_GT(util, 0.3);
  EXPECT_LT(util, 0.98);
}

}  // namespace
}  // namespace rasa
