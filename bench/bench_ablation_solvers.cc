// Ablation bench (DESIGN.md): quantifies the design choices inside the
// algorithm pool on the M1 subproblems, plus the solver core underneath
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
// Section "lp_kernel" (wall time on the largest subproblem LP
// relaxations, the fig-10-scale models): dense tableau (the seed solver)
// vs sparse revised simplex with the maintained eta-file factorization.
// Unless RASA_BENCH_NO_THRESHOLD is set, the revised kernel must be
// >= 5x faster in aggregate — the headline claim of the solver-core PR.
//
// Section "mip_warm_start": branch-and-bound on the largest subproblem
// model with parent-basis warm starts on vs off (informational; the
// speedup comes from dual-simplex repair needing a handful of pivots
// per node instead of a full cold solve).
//
// Machine-readable output: BENCH_ablation_solvers.json.

#include <algorithm>

#include "bench_util.h"
#include "core/cg.h"
#include "core/greedy.h"
#include "core/mip_algorithm.h"
#include "core/partitioning.h"
#include "lp/revised_simplex.h"
#include "lp/simplex.h"
#include "mip/solver.h"

int main() {
  using namespace rasa;
  using namespace rasa::bench;

  PrintHeader("Ablation — algorithm pool and solver core",
              "per-subproblem gained affinity on M1; LP kernel wall time");

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

  // ---- Solver core: dense tableau vs revised simplex -----------------
  // Fixed fig-10-scale instances — M1 at 1/48, 1/40, and 1/32 scale,
  // independent of RASA_BENCH_SCALE — so the kernel comparison always
  // runs at the scale the >= 5x claim is made for. Each model is solved
  // under a bounded iteration probe: a couple of heavily degenerate
  // instances stall BOTH kernels into the iteration limit (a seed
  // pathology the revised kernel reproduces faithfully), and timing an
  // iteration limit measures the limit, not the kernel, so those models
  // are skipped and logged instead.
  std::vector<SubproblemMip> models;
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
      models.push_back(std::move(mip).value());
    }
  }
  std::sort(models.begin(), models.end(),
            [](const SubproblemMip& a, const SubproblemMip& b) {
              return a.model.num_constraints() > b.model.num_constraints();
            });

  std::printf("\nLP kernel on %d fig-10-scale subproblem relaxations:\n",
              static_cast<int>(models.size()));
  std::printf("%-22s %10s %12s %10s\n", "kernel", "seconds", "pivots",
              "speedup");
  PrintRule();
  // Generous for every solvable instance in the band (they need < 4k
  // pivots); bounds the cost of detecting a stalled one.
  constexpr int kProbeIterations = 8000;
  double dense_seconds = 0.0, revised_seconds = 0.0;
  int dense_pivots = 0, revised_pivots = 0;
  int refactorizations = 0, max_eta = 0;
  int objective_mismatches = 0, timed_models = 0;
  for (const SubproblemMip& m : models) {
    LpOptions probe;
    probe.max_iterations = kProbeIterations;
    Stopwatch sw_dense;
    LpResult rd = SolveLpDenseTableau(m.model, probe);
    const double dsecs = sw_dense.ElapsedSeconds();

    Stopwatch sw_revised;
    LpResult rr = SolveLpRevised(m.model, probe);
    const double rsecs = sw_revised.ElapsedSeconds();

    if (rd.status == LpStatus::kIterationLimit ||
        rr.status == LpStatus::kIterationLimit) {
      // One-sided stalls are reported but not timed: the stalled side's
      // cost is the probe cap, not the kernel. (A dense-only stall is the
      // revised kernel winning outright; the reverse would be a pivot-path
      // regression worth seeing in the log.)
      const char* who = rd.status == LpStatus::kIterationLimit
                            ? (rr.status == LpStatus::kIterationLimit
                                   ? "both kernels stall"
                                   : "only the dense tableau stalls")
                            : "only the revised simplex stalls";
      std::printf("  (skipped %d-row model: %s past %d iterations)\n",
                  m.model.num_constraints(), who, kProbeIterations);
      continue;
    }
    ++timed_models;
    dense_seconds += dsecs;
    dense_pivots += rd.iterations;
    revised_seconds += rsecs;
    revised_pivots += rr.iterations;
    refactorizations += rr.refactorizations;
    max_eta = std::max(max_eta, rr.max_eta_length);

    if (rd.status != rr.status ||
        (rd.status == LpStatus::kOptimal &&
         std::abs(rd.objective - rr.objective) >
             1e-6 * std::max(1.0, std::abs(rd.objective)))) {
      ++objective_mismatches;
    }
  }
  const double lp_speedup =
      revised_seconds > 0.0 ? dense_seconds / revised_seconds : 0.0;
  std::printf("%-22s %10.3f %12d %10s\n", "dense tableau (seed)",
              dense_seconds, dense_pivots, "1.00x");
  std::printf("%-22s %10.3f %12d %9.2fx\n", "revised simplex (ours)",
              revised_seconds, revised_pivots, lp_speedup);
  std::printf("  refactorizations=%d max_eta_length=%d\n", refactorizations,
              max_eta);
  json.BeginRow()
      .Field("section", "lp_kernel")
      .Field("variant", "dense tableau")
      .Field("seconds", dense_seconds)
      .Field("pivots", dense_pivots)
      .Field("models", timed_models);
  json.BeginRow()
      .Field("section", "lp_kernel")
      .Field("variant", "revised simplex")
      .Field("seconds", revised_seconds)
      .Field("pivots", revised_pivots)
      .Field("speedup", lp_speedup)
      .Field("refactorizations", refactorizations)
      .Field("max_eta_length", max_eta);

  // ---- MIP warm starts: parent basis reuse across B&B nodes ----------
  int cold_nodes = 0, warm_nodes = 0;
  if (!models.empty()) {
    const LpModel& model = models.front().model;
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
      "the revised LP kernel dominates dense at fig-10 scale.\n");

  if (objective_mismatches > 0) {
    std::fprintf(stderr, "FAIL: %d dense/revised LP disagreement(s)\n",
                 objective_mismatches);
    return 1;
  }
  if (std::getenv("RASA_BENCH_NO_THRESHOLD") != nullptr) {
    // Smoke mode: clusters are too small for the factorization to pay for
    // itself, so only the agreement check is asserted and the timing rows
    // are recorded for bench_compare.
    std::printf("speedup threshold skipped: RASA_BENCH_NO_THRESHOLD set\n");
    return 0;
  }
  if (lp_speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: revised simplex reached only %.2fx over the dense "
                 "tableau on fig-10-scale LPs (need >= 5x)\n",
                 lp_speedup);
    return 1;
  }
  std::printf("revised simplex: %.2fx over dense (>= 5x required); "
              "warm B&B: %d vs %d nodes in the same budget\n",
              lp_speedup, warm_nodes, cold_nodes);
  return 0;
}
