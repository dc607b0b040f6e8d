// Golden migration-command digests. The other golden suites hash only a
// plan's batch and command counts, so a change that reorders commands
// inside a batch, or moves one to another machine, passes them. This suite
// pins every command of ComputeMigrationPath on Table II shapes at 1/32 and
// 1/16: each from the generated placement to FirstFitPlace targets under
// both scores and two shuffle seeds.
//
// Each digest is FNV-1a over the text of the four plans of one cluster:
// per plan its batches, each as its list of (type, service, machine), and
// `stranded_deletes`. A deliberate behaviour change re-pins a digest: the
// failure message prints the new value; say in the change description why
// it moved.

#include <string>

#include "cluster/first_fit.h"
#include "cluster/generator.h"
#include "core/migration.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa {
namespace {

void AppendPlan(const MigrationPlan& plan, std::string* text) {
  for (const std::vector<MigrationCommand>& batch : plan.batches) {
    *text += '[';
    for (const MigrationCommand& cmd : batch) {
      *text += cmd.type == MigrationCommandType::kDelete ? 'd' : 'c';
      *text += std::to_string(cmd.service) + '@' +
               std::to_string(cmd.machine) + ';';
    }
    *text += ']';
  }
  *text += "stranded=" + std::to_string(plan.stranded_deletes) + '\n';
}

// The digest of the four paths from `spec`'s generated placement to its
// first-fit targets, or of the first-fit failure where a target does not
// place; every plan must also pass ValidateMigrationPlan.
std::string DigestOfPaths(const ClusterSpec& spec) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(spec, spec.seed);
  const Cluster& cluster = *snapshot.cluster;
  std::string text;
  for (FirstFitScore score :
       {FirstFitScore::kLeastAllocated, FirstFitScore::kMostAllocated}) {
    for (uint64_t seed : {3u, 11u}) {
      SCOPED_TRACE(::testing::Message()
                   << "score " << static_cast<int>(score) << " seed " << seed);
      Rng rng(seed);
      StatusOr<Placement> target = FirstFitPlace(cluster, rng, score);
      if (!target.ok()) {
        // Packing can strand a container; the message is pinned too.
        text += target.status().ToString() + '\n';
        continue;
      }
      StatusOr<MigrationPlan> plan = ComputeMigrationPath(
          cluster, snapshot.original_placement, *target);
      EXPECT_TRUE(plan.ok()) << plan.status().ToString();
      if (!plan.ok()) return "";
      EXPECT_TRUE(ValidateMigrationPlan(cluster, snapshot.original_placement,
                                        *target, *plan)
                      .ok());
      AppendPlan(*plan, &text);
    }
  }
  return testing::Fnv1a(text);
}

struct Pinned {
  ClusterSpec spec;
  const char* digest;
};

TEST(GoldenMigrationDigestTest, FirstFitTargetsOnTableTwoShapes) {
  const Pinned pinned[] = {
      {M1Spec(32.0), "e913bb46c3a0e67f"}, {M2Spec(32.0), "b4ff4103c32e645f"},
      {M3Spec(32.0), "02743e195d44e26a"}, {M4Spec(32.0), "e0ebec790e340488"},
      {M1Spec(16.0), "da08578faa67491b"}, {M2Spec(16.0), "c7ac2f68808ba733"},
      {M3Spec(16.0), "65fee5510e02e5cb"}, {M4Spec(16.0), "bd24e1a04e11953b"},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(::testing::Message()
                 << p.spec.name << " " << p.spec.num_machines << " machines");
    EXPECT_EQ(DigestOfPaths(p.spec), p.digest);
  }
}

}  // namespace
}  // namespace rasa
