// Ablation bench (DESIGN.md): quantifies the design choices inside the
// algorithm pool on the M1 subproblems, plus B&B warm starts underneath
// them.
//
// Section "algorithm" (per-subproblem gained affinity):
//   - MIP per-machine (exact formulation, ours) vs MIP grouped (the
//     literal a_{s,s',g} formulation over machine groups g in F, which is
//     smaller but over-counts and must be disaggregated);
//   - CG full (ours) vs CG without pair pricing, without column
//     management, and without greedy completion;
//   - plain affinity greedy as the floor.
//
// Section "mip_warm_start": branch-and-bound on the largest fig-10-scale
// subproblem model with parent-basis warm starts on vs off (informational;
// the speedup comes from dual-simplex repair needing a handful of pivots
// per node instead of a full cold solve).
//
// Machine-readable output: BENCH_ablation_solvers.json.

#include <algorithm>
#include <optional>

#include "bench_util.h"
#include "core/cg.h"
#include "core/greedy.h"
#include "core/mip_algorithm.h"
#include "core/partitioning.h"
#include "mip/solver.h"

int main() {
  using namespace rasa;
  using namespace rasa::bench;

  PrintHeader("Ablation — algorithm pool and solver core",
              "per-subproblem gained affinity on M1; B&B warm starts");

  std::vector<ClusterSnapshot> clusters = BenchClusters();
  const ClusterSnapshot& snapshot = clusters[0];  // M1
  PartitionResult partition = PartitionServices(
      *snapshot.cluster, snapshot.original_placement, {});
  BenchJsonWriter json("ablation_solvers");

  struct Variant {
    const char* name;
    double total = 0.0;
    double seconds = 0.0;
  };
  Variant variants[] = {{"GREEDY"},
                        {"MIP per-machine"},
                        {"MIP grouped (g in F)"},
                        {"CG full (ours)"},
                        {"CG no pair pricing"},
                        {"CG no column mgmt"},
                        {"CG no completion"}};
  double total_affinity = 0.0;

  for (const Subproblem& sp : partition.subproblems) {
    if (sp.services.empty() || sp.machines.empty()) continue;
    total_affinity += sp.internal_affinity;
    const double timeout = BenchTimeout();

    auto record = [&](Variant& v, double gained, double secs) {
      v.total += gained;
      v.seconds += secs;
    };

    {
      Stopwatch sw;
      Placement scratch = partition.base_placement;
      SubproblemSolution g =
          GreedyAffinityPlace(*snapshot.cluster, sp, scratch);
      record(variants[0], g.gained_affinity, sw.ElapsedSeconds());
    }
    {
      Stopwatch sw;
      MipAlgorithmOptions o;
      o.deadline = Deadline::AfterSeconds(timeout);
      StatusOr<SubproblemSolution> r = SolveSubproblemMip(
          *snapshot.cluster, sp, partition.base_placement, o);
      record(variants[1], r.ok() ? r->gained_affinity : 0.0,
             sw.ElapsedSeconds());
    }
    {
      Stopwatch sw;
      MipAlgorithmOptions o;
      o.deadline = Deadline::AfterSeconds(timeout);
      StatusOr<SubproblemSolution> r = SolveSubproblemMipGrouped(
          *snapshot.cluster, sp, partition.base_placement, o);
      record(variants[2], r.ok() ? r->gained_affinity : 0.0,
             sw.ElapsedSeconds());
    }
    for (int variant = 0; variant < 4; ++variant) {
      Stopwatch sw;
      CgOptions o;
      o.deadline = Deadline::AfterSeconds(timeout);
      if (variant == 1) o.pair_pricing = false;
      if (variant == 2) o.max_patterns_per_machine = 0;
      if (variant == 3) o.greedy_completion = false;
      StatusOr<SubproblemSolution> r = SolveSubproblemCg(
          *snapshot.cluster, sp, partition.base_placement,
          snapshot.original_placement, o);
      record(variants[3 + variant], r.ok() ? r->gained_affinity : 0.0,
             sw.ElapsedSeconds());
    }
  }

  std::printf("total crucial affinity available: %.4f\n\n", total_affinity);
  std::printf("%-22s %14s %10s %10s\n", "variant", "gained", "of avail",
              "seconds");
  PrintRule();
  for (const Variant& v : variants) {
    std::printf("%-22s %14.4f %9.1f%% %10.2f\n", v.name, v.total,
                100.0 * v.total / std::max(1e-12, total_affinity), v.seconds);
    json.BeginRow()
        .Field("section", "algorithm")
        .Field("variant", v.name)
        .Field("gained_affinity", v.total)
        .Field("seconds", v.seconds);
  }

  // ---- MIP warm starts: parent basis reuse across B&B nodes ----------
  // The largest subproblem model of M1 at 1/48, 1/40 and 1/32 scale (the
  // fig-10 scales, independent of RASA_BENCH_SCALE) within 200-1200 rows.
  std::optional<SubproblemMip> largest;  // kept while scanning
  for (const double scale : {48.0, 40.0, 32.0}) {
    StatusOr<ClusterSnapshot> fig10 = GenerateCluster(M1Spec(scale));
    RASA_CHECK(fig10.ok()) << fig10.status().ToString();
    PartitionResult fig10_partition = PartitionServices(
        *fig10->cluster, fig10->original_placement, {});
    for (const Subproblem& sp : fig10_partition.subproblems) {
      if (sp.services.empty() || sp.machines.empty()) continue;
      StatusOr<SubproblemMip> mip = BuildSubproblemMip(
          *fig10->cluster, sp, fig10_partition.base_placement,
          MipAlgorithmOptions().max_model_rows);
      if (!mip.ok()) continue;
      const int rows = mip->model.num_constraints();
      if (rows < 200 || rows > 1200) continue;
      if (largest && rows <= largest->model.num_constraints()) continue;
      largest = std::move(mip).value();
    }
  }

  int cold_nodes = 0, warm_nodes = 0;
  if (largest) {
    const LpModel& model = largest->model;
    std::printf("\nB&B warm starts on the largest model (%d rows, %d cols):\n",
                model.num_constraints(), model.num_variables());
    std::printf("%-22s %10s %8s %12s %10s\n", "variant", "seconds", "nodes",
                "pivots", "warm");
    PrintRule();
    for (const bool warm : {false, true}) {
      MipOptions o;
      o.deadline = Deadline::AfterSeconds(10.0 * BenchTimeout());
      o.warm_start_nodes = warm;
      Stopwatch sw;
      MipResult r = SolveMip(model, o);
      const double seconds = sw.ElapsedSeconds();
      (warm ? warm_nodes : cold_nodes) = r.nodes_explored;
      // Both runs are deadline-bound at this scale, so the warm win shows
      // up as node throughput within the same budget, not wall time.
      const double node_ratio =
          warm && cold_nodes > 0
              ? static_cast<double>(r.nodes_explored) / cold_nodes
              : 1.0;
      std::printf("%-22s %10.3f %8d %12d %6d/%d\n",
                  warm ? "warm (ours)" : "cold", seconds, r.nodes_explored,
                  r.lp_iterations, r.warm_started_nodes, r.nodes_explored);
      json.BeginRow()
          .Field("section", "mip_warm_start")
          .Field("variant", warm ? "warm" : "cold")
          .Field("seconds", seconds)
          .Field("nodes", r.nodes_explored)
          .Field("pivots", r.lp_iterations)
          .Field("warm_started_nodes", r.warm_started_nodes)
          .Field("speedup", node_ratio);
    }
  }

  std::printf(
      "\nnotes: a failed solve (model over the row cap / OOT) counts as 0 "
      "here — in the full RASA pipeline it falls back to GREEDY instead.\n"
      "expected: CG full >= its ablations; the grouped (g in F) MIP stays "
      "tractable where the exact per-machine model OOTs, at the cost of "
      "disaggregation losses; pair pricing is the biggest CG ingredient; "
      "warm B&B explores more nodes than cold in the same budget.\n");
  std::printf("warm B&B: %d vs %d nodes in the same budget\n", warm_nodes,
              cold_nodes);
  return 0;
}
