#include "cluster/serialization.h"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "core/objective.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rasa {
namespace {

// Helper: copy a placement's counts onto another (identical) cluster.
Placement RebindForTest(const Cluster& cluster, const Placement& placement) {
  Placement out(cluster);
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& [s, count] : placement.ServicesOn(m)) {
      out.Add(m, s, count);
    }
  }
  return out;
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  StatusOr<ClusterSnapshot> original = GenerateCluster(M1Spec(48.0));
  ASSERT_TRUE(original.ok());
  const std::string text = SerializeSnapshot(*original);
  StatusOr<ClusterSnapshot> restored = DeserializeSnapshot(text);
  ASSERT_TRUE(restored.ok()) << restored.status();

  const Cluster& a = *original->cluster;
  const Cluster& b = *restored->cluster;
  EXPECT_EQ(restored->name, original->name);
  EXPECT_EQ(b.num_services(), a.num_services());
  EXPECT_EQ(b.num_machines(), a.num_machines());
  EXPECT_EQ(b.num_resources(), a.num_resources());
  EXPECT_EQ(b.affinity().num_edges(), a.affinity().num_edges());
  EXPECT_EQ(b.anti_affinity().size(), a.anti_affinity().size());
  for (int s = 0; s < a.num_services(); ++s) {
    EXPECT_EQ(b.service(s).name, a.service(s).name);
    EXPECT_EQ(b.service(s).demand, a.service(s).demand);
    EXPECT_EQ(b.service(s).platform, a.service(s).platform);
    EXPECT_EQ(b.service(s).request, a.service(s).request);
  }
  for (int m = 0; m < a.num_machines(); ++m) {
    EXPECT_EQ(b.machine(m).capacity, a.machine(m).capacity);
    EXPECT_EQ(b.machine(m).spec_id, a.machine(m).spec_id);
  }
  // Edge weights to full precision.
  for (const AffinityEdge& e : a.affinity().edges()) {
    EXPECT_DOUBLE_EQ(testing::EdgeWeightOf(b.affinity(), e.u, e.v), e.weight);
  }
  // Placement identical, so the objective matches bit-for-bit.
  EXPECT_EQ(restored->original_placement.DiffCount(
                RebindForTest(b, original->original_placement)),
            0);
  EXPECT_DOUBLE_EQ(GainedAffinity(b, restored->original_placement),
                   GainedAffinity(a, original->original_placement));
}

TEST(SerializationTest, FileRoundTrip) {
  StatusOr<ClusterSnapshot> original = GenerateCluster(M3Spec(16.0));
  ASSERT_TRUE(original.ok());
  const std::string path = "/tmp/rasa_serialization_test.snapshot";
  ASSERT_TRUE(SaveSnapshotToFile(*original, path).ok());
  StatusOr<ClusterSnapshot> restored = LoadSnapshotFromFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->cluster->num_containers(),
            original->cluster->num_containers());
  std::remove(path.c_str());
}

TEST(SerializationTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeSnapshot("").ok());
  EXPECT_FALSE(DeserializeSnapshot("not-a-snapshot").ok());
  EXPECT_FALSE(DeserializeSnapshot("rasa-snapshot-v1\nname x\n").ok());
}

TEST(SerializationTest, RejectsTruncatedBody) {
  StatusOr<ClusterSnapshot> original = GenerateCluster(M3Spec(32.0));
  ASSERT_TRUE(original.ok());
  std::string text = SerializeSnapshot(*original);
  text.resize(text.size() / 2);
  EXPECT_FALSE(DeserializeSnapshot(text).ok());
}

TEST(SerializationTest, RejectsBadPlacementIndices) {
  StatusOr<ClusterSnapshot> original = GenerateCluster(M3Spec(32.0));
  ASSERT_TRUE(original.ok());
  std::string text = SerializeSnapshot(*original);
  // Corrupt: replace the placement block with one bogus entry.
  const size_t pos = text.find("placement ");
  ASSERT_NE(pos, std::string::npos);
  text = text.substr(0, pos) + "placement 1\n99999 0 1\nend\n";
  EXPECT_FALSE(DeserializeSnapshot(text).ok());
}

TEST(SerializationTest, MissingFileFails) {
  EXPECT_FALSE(LoadSnapshotFromFile("/nonexistent/foo.snapshot").ok());
}

// Exhaustive torn-write check: a snapshot file truncated at EVERY byte
// prefix must load as a clear error (the checksum footer catches what the
// grammar alone cannot), and the error is an explicit Status — never a
// crash, never a silently half-loaded cluster.
TEST(SerializationTest, EveryTruncationPrefixFailsToLoad) {
  // Small cluster so the byte sweep stays cheap.
  ClusterSpec spec = M3Spec(512.0);
  StatusOr<ClusterSnapshot> original = GenerateCluster(spec);
  ASSERT_TRUE(original.ok());
  const std::string path =
      ::testing::TempDir() + "/rasa_serialization_torn.snapshot";
  ASSERT_TRUE(SaveSnapshotToFile(*original, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string full((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  ASSERT_FALSE(full.empty());

  for (size_t cut = 0; cut < full.size(); ++cut) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(cut));
    out.close();
    StatusOr<ClusterSnapshot> loaded = LoadSnapshotFromFile(path);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << cut << " bytes loaded";
  }
  // The intact file still loads.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  EXPECT_TRUE(LoadSnapshotFromFile(path).ok());
  std::remove(path.c_str());
}

// Replaces the first occurrence of `from` in a serialized snapshot.
std::string Corrupt(std::string text, const std::string& from,
                    const std::string& to) {
  const size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  return text.replace(pos, from.size(), to);
}

TEST(SerializationTest, RejectsLyingHugeHeaderCounts) {
  StatusOr<ClusterSnapshot> original = GenerateCluster(M3Spec(16.0));
  ASSERT_TRUE(original.ok());
  const std::string text = SerializeSnapshot(*original);
  const std::string services =
      "services " + std::to_string(original->cluster->num_services());
  const std::string machines =
      "machines " + std::to_string(original->cluster->num_machines());
  // A header claiming billions of records must fail cleanly (on the bound
  // check or the first missing record), never allocate first.
  EXPECT_FALSE(
      DeserializeSnapshot(Corrupt(text, services, "services 2000000000"))
          .ok());
  EXPECT_FALSE(
      DeserializeSnapshot(Corrupt(text, services, "services 900000")).ok());
  EXPECT_FALSE(
      DeserializeSnapshot(Corrupt(text, machines, "machines 900000")).ok());
  EXPECT_FALSE(
      DeserializeSnapshot(Corrupt(text, services, "services -3")).ok());
}

TEST(SerializationTest, RejectsAbsurdDemand) {
  const std::string text =
      "rasa-snapshot-v1\n"
      "name t\n"
      "resources 1 cpu\n"
      "services 2\n"
      "svc0 2000000000 0 1.0\n"  // demand overflows the container count
      "svc1 2 0 1.0\n"
      "machines 1\n"
      "m0 0 0 8.0\n"
      "affinity 0\n"
      "anti_affinity 0\n"
      "placement 0\n"
      "end\n";
  EXPECT_FALSE(DeserializeSnapshot(text).ok());
}

TEST(SerializationTest, RejectsNonFiniteValues) {
  StatusOr<ClusterSnapshot> original = GenerateCluster(M3Spec(16.0));
  ASSERT_TRUE(original.ok());
  const std::string text = SerializeSnapshot(*original);
  // Break one machine's first capacity value.
  const Machine& m0 = original->cluster->machine(0);
  const std::string record = "\n" + m0.name + " ";
  const size_t pos = text.find(record);
  ASSERT_NE(pos, std::string::npos);
  const size_t cap = text.find(' ', text.find(' ', pos + record.size()) + 1);
  ASSERT_NE(cap, std::string::npos);
  for (const char* bad : {"nan", "inf", "-1.0", "1e999"}) {
    std::string mutated = text;
    mutated.replace(cap + 1, mutated.find_first_of(" \n", cap + 1) - cap - 1,
                    bad);
    EXPECT_FALSE(DeserializeSnapshot(mutated).ok()) << bad;
  }
}

TEST(SerializationTest, RejectsDimensionMismatchedRows) {
  // Two resources declared, but records carry only one value: the parser
  // must detect the misalignment instead of consuming the next record.
  const std::string text =
      "rasa-snapshot-v1\n"
      "name t\n"
      "resources 2 cpu mem\n"
      "services 1\n"
      "svc0 2 0 1.0\n"  // missing the mem request
      "machines 1\n"
      "m0 0 0 8.0 8.0\n"
      "affinity 0\n"
      "anti_affinity 0\n"
      "placement 0\n"
      "end\n";
  EXPECT_FALSE(DeserializeSnapshot(text).ok());
}

TEST(SerializationTest, RejectsRuleListingAServiceTwice) {
  const std::string text =
      "rasa-snapshot-v1\n"
      "name t\n"
      "resources 1 cpu\n"
      "services 2\n"
      "svc0 2 0 1.0\n"
      "svc1 2 0 1.0\n"
      "machines 1\n"
      "m0 0 0 8.0\n"
      "affinity 0\n"
      "anti_affinity 1\n"
      "3 3 0 1 0\n"  // limit 3, members {0, 1, 0}
      "placement 0\n"
      "end\n";
  StatusOr<ClusterSnapshot> snapshot = DeserializeSnapshot(text);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializationTest, RejectsPlacementOverCapacityTotals) {
  const std::string text =
      "rasa-snapshot-v1\n"
      "name t\n"
      "resources 1 cpu\n"
      "services 1\n"
      "svc0 4 0 1.0\n"
      "machines 1\n"
      "m0 0 0 8.0\n"
      "affinity 0\n"
      "anti_affinity 0\n"
      "placement 1\n"
      "0 0 -7\n"  // negative count
      "end\n";
  EXPECT_FALSE(DeserializeSnapshot(text).ok());
}

}  // namespace
}  // namespace rasa
