// First-fit differential suite (`scale` ctest label): FirstFitPlace keeps
// its machines ranked by score and takes the first one that can host each
// container; this suite checks it against the plain definition, one
// PickMachine scan of every machine per container, on generated Table II
// shapes and on hand-built clusters aimed at the ranking's edge cases.

#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/first_fit.h"
#include "cluster/generator.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

constexpr FirstFitScore kScores[] = {FirstFitScore::kLeastAllocated,
                                     FirstFitScore::kMostAllocated};

// FirstFitPlace by its definition: every container goes where PickMachine
// puts it.
StatusOr<Placement> ReferenceFirstFit(const Cluster& cluster, Rng& rng,
                                      FirstFitScore score, bool shuffle) {
  Placement placement(cluster);
  std::vector<int> order(cluster.num_services());
  for (int s = 0; s < cluster.num_services(); ++s) order[s] = s;
  if (shuffle) rng.Shuffle(order);
  for (int s : order) {
    const Service& svc = cluster.service(s);
    for (int c = 0; c < svc.demand; ++c) {
      const int m = PickMachine(placement, s, score);
      if (m < 0) {
        return ResourceExhaustedError(StrFormat(
            "no feasible machine for container %d of service %s", c,
            svc.name.c_str()));
      }
      placement.Add(m, s);
    }
  }
  return placement;
}

// Both placements, under every score and with shuffle on and off, agree
// container for container, or fail with the same status. Returns how many
// of the four runs placed every container.
int ExpectSameAsReference(const Cluster& cluster) {
  int placed = 0;
  for (FirstFitScore score : kScores) {
    for (bool shuffle : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "score " << static_cast<int>(score)
                                        << " shuffle " << shuffle);
      Rng indexed_rng(7);
      Rng reference_rng(7);
      const StatusOr<Placement> indexed =
          FirstFitPlace(cluster, indexed_rng, score, shuffle);
      const StatusOr<Placement> reference =
          ReferenceFirstFit(cluster, reference_rng, score, shuffle);
      EXPECT_EQ(indexed.status().ToString(), reference.status().ToString());
      if (indexed.ok() && reference.ok()) {
        EXPECT_EQ(indexed->SymmetricDiff(*reference), 0);
        ++placed;
      }
    }
  }
  return placed;
}

TEST(FirstFitDifferentialTest, TableTwoShapesScaledDown) {
  for (double scale : {32.0, 16.0}) {
    for (const ClusterSpec& spec : TableTwoSpecs(scale)) {
      SCOPED_TRACE(::testing::Message() << spec.name << " at 1/" << scale);
      StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      EXPECT_GT(ExpectSameAsReference(*snapshot->cluster), 0);
    }
  }
}

TEST(FirstFitDifferentialTest, M1AndM3AtFactorOne) {
  for (const ClusterSpec& spec : {M1Spec(1.0), M3Spec(1.0)}) {
    SCOPED_TRACE(spec.name);
    StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    EXPECT_GT(ExpectSameAsReference(*snapshot->cluster), 0);
  }
}

// Identical machines score the same until one is used: every tie must go
// to the lowest id, on both platforms.
TEST(FirstFitDifferentialTest, IdenticalMachinesTieToLowestId) {
  std::vector<Service> services = {{"a", 5, {1.0, 2.0}, 0},
                                   {"b", 3, {2.0, 1.0}, 0},
                                   {"c", 4, {1.0, 1.0}, 1},
                                   {"d", 2, {3.0, 3.0}, 1}};
  std::vector<Machine> machines;
  for (int m = 0; m < 8; ++m) {
    machines.push_back(
        {"m" + std::to_string(m), m % 2, {8.0, 8.0}, m % 2});
  }
  const Cluster cluster({"cpu", "mem"}, services, machines,
                        AffinityGraph(4), {});
  EXPECT_EQ(ExpectSameAsReference(cluster), 4);

  // The first container of each platform lands on its lowest machine id.
  Rng rng(1);
  StatusOr<Placement> p =
      FirstFitPlace(cluster, rng, FirstFitScore::kLeastAllocated, false);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->MachinesOf(0).begin()->first, 0);
  EXPECT_EQ(p->MachinesOf(2).begin()->first, 1);
}

// A resource some machines lack entirely (capacity 0) plays no part in
// their score; only services that request none of it may land there.
TEST(FirstFitDifferentialTest, ZeroCapacityResource) {
  std::vector<Service> services = {{"gpu-job", 3, {1.0, 1.0}, 0},
                                   {"web", 6, {1.0, 0.0}, 0},
                                   {"batch", 4, {2.0, 0.0}, 0}};
  std::vector<Machine> machines = {{"plain-0", 0, {6.0, 0.0}, 0},
                                   {"gpu-0", 1, {12.0, 2.0}, 0},
                                   {"plain-1", 0, {6.0, 0.0}, 0},
                                   {"gpu-1", 1, {12.0, 2.0}, 0}};
  const Cluster cluster({"cpu", "gpu"}, services, machines, AffinityGraph(3),
                        {});
  EXPECT_EQ(ExpectSameAsReference(cluster), 4);
}

// An anti-affinity cap on the machine ranked first: the container must go
// to the next machine in rank order.
TEST(FirstFitDifferentialTest, AntiAffinityBlocksTopRankedMachine) {
  // Without shuffling, x lands on the big machine and y on the small one,
  // which leaves the big machine ranked first for a; the rule keeps a off
  // it.
  std::vector<Service> services = {{"x", 1, {5.0}, 0},
                                   {"y", 1, {5.0}, 0},
                                   {"a", 1, {1.0}, 0}};
  std::vector<Machine> machines = {{"big", 0, {100.0}, 0},
                                   {"small", 1, {10.0}, 0}};
  const std::vector<AntiAffinityRule> rules = {{{0, 2}, 1}};
  const Cluster cluster({"cpu"}, services, machines, AffinityGraph(3), rules);
  EXPECT_EQ(ExpectSameAsReference(cluster), 4);

  Rng rng(1);
  StatusOr<Placement> p =
      FirstFitPlace(cluster, rng, FirstFitScore::kLeastAllocated, false);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->CountOn(0, 0), 1);
  EXPECT_EQ(p->CountOn(1, 1), 1);
  EXPECT_EQ(p->CountOn(1, 2), 1);
}

// A container that fits nowhere fails both ways with the same message:
// one too large for any machine, and one whose platform has no machines.
TEST(FirstFitDifferentialTest, UnschedulableContainerSameError) {
  std::vector<Machine> machines = {{"m0", 0, {8.0}, 0}, {"m1", 0, {8.0}, 0}};
  const Cluster too_large({"cpu"},
                          {{"ok", 2, {2.0}, 0}, {"huge", 1, {9.0}, 0}},
                          machines, AffinityGraph(2), {});
  EXPECT_EQ(ExpectSameAsReference(too_large), 0);
  const Cluster no_platform({"cpu"},
                            {{"ok", 2, {2.0}, 0}, {"orphan", 1, {1.0}, 1}},
                            machines, AffinityGraph(2), {});
  EXPECT_EQ(ExpectSameAsReference(no_platform), 0);

  Rng rng(1);
  const StatusOr<Placement> p = FirstFitPlace(too_large, rng);
  ASSERT_FALSE(p.ok());
  EXPECT_EQ(p.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace rasa
