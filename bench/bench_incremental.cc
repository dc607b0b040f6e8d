// Incremental re-optimization bench (not a paper figure): steady-state
// cycle cost of the incremental Optimize path vs a cold Optimize on the fig-10-scale
// M1 instance under seeded container churn.
//
// Protocol, per drift level: both tracks start from the same optimized
// placement (the incremental track's cold start is bit-identical to the
// full solve). Each cycle relocates `drift` of all containers to random
// feasible machines — the workflow's drift policy — then re-optimizes; the
// track adopts the returned placement, and the incremental track re-bases
// its delta cache on it exactly as the control loop does.
//
// Two claims are checked:
//   1. Determinism — with a fully re-weighted input (every edge past the
//      weight tolerance) the incremental path must fall back and match the
//      plain Optimize bit for bit. Always asserted, even in smoke mode.
//   2. Speedup — at 4% drift the mean steady-state incremental cycle must
//      be >= 3x faster than the mean full-resolve cycle. Skipped under
//      RASA_BENCH_NO_THRESHOLD (smoke runs are deadline-bound, not
//      solver-bound).
//
// Machine-readable output: BENCH_incremental.json (per-cycle rows for both
// tracks plus a summary row per drift level).

#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/delta.h"
#include "core/objective.h"
#include "core/rasa.h"

namespace {

using namespace rasa;
using namespace rasa::bench;

// The workflow's relocation policy (application updates between cycles):
// ~fraction of all containers move to a random feasible machine.
void Churn(const Cluster& cluster, Placement& placement, double fraction,
           Rng& rng) {
  const int moves = static_cast<int>(fraction * cluster.num_containers());
  for (int i = 0; i < moves; ++i) {
    const int s = static_cast<int>(rng.NextUint64(cluster.num_services()));
    const auto& machines = placement.MachinesOf(s);
    if (machines.empty()) continue;
    const int pick = static_cast<int>(rng.NextUint64(machines.size()));
    auto it = machines.begin();
    std::advance(it, pick);
    const int from = it->first;
    std::vector<int> feasible;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      if (m != from && placement.CanPlace(m, s)) feasible.push_back(m);
    }
    if (feasible.empty()) continue;
    const int to = feasible[rng.NextUint64(feasible.size())];
    RASA_CHECK(placement.Remove(from, s).ok());
    placement.Add(to, s);
  }
}

bool Identical(const RasaResult& a, const RasaResult& b) {
  return a.new_gained_affinity == b.new_gained_affinity &&
         a.new_placement.DiffCount(b.new_placement) == 0 &&
         b.new_placement.DiffCount(a.new_placement) == 0;
}

}  // namespace

int main() {
  PrintHeader("Incremental re-optimization — delta-aware control loop",
              "steady-state incremental Optimize vs full Optimize under churn");

  const AlgorithmSelector selector(SelectorPolicy::kHeuristic);
  RasaOptions options;
  // Solver-bound, not deadline-bound: the timing comparison must measure
  // the work skipped, not a budget cap. Subproblems must be small enough to
  // *converge* inside the budget — a non-convergent MIP runs until its
  // planned work cap, which grows with the budget, and would make every
  // cycle cost that cap no matter how many partitions are reused.
  options.timeout_seconds = 10.0 * BenchTimeout();
  options.partitioning.max_subproblem_services = 12;
  options.compute_migration = false;
  const RasaOptimizer optimizer(options, selector);

  ClusterSpec spec = M1Spec(BenchScale());
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  RASA_CHECK(snapshot.ok()) << snapshot.status().ToString();
  const Cluster& cluster = *snapshot->cluster;
  std::printf("%s: %d services, %d machines, %d containers\n",
              snapshot->name.c_str(), cluster.num_services(),
              cluster.num_machines(), cluster.num_containers());
  PrintRule();

  // Shared starting point: one full solve, adopted.
  StatusOr<RasaResult> warm =
      optimizer.Optimize(cluster, snapshot->original_placement);
  RASA_CHECK(warm.ok()) << warm.status().ToString();
  const Placement steady = warm->new_placement;

  // Claim 1: full-drift input => fallback, bit-identical to plain Optimize.
  {
    AffinityGraph skewed(cluster.num_services());
    int i = 0;
    for (const AffinityEdge& e : cluster.affinity().edges()) {
      skewed.AddEdge(e.u, e.v, e.weight * (1.0 + 0.2 * (++i % 5) + 0.01));
    }
    skewed.NormalizeWeights();
    const Cluster drifted(cluster.resource_names(), cluster.services(),
                          cluster.machines(), std::move(skewed),
                          cluster.anti_affinity());
    Placement rebound(drifted);
    for (int m = 0; m < drifted.num_machines(); ++m) {
      for (const auto& [s, count] : steady.ServicesOn(m)) {
        rebound.Add(m, s, count);
      }
    }
    IncrementalState state;
    StatusOr<RasaResult> prime =
        optimizer.Optimize(cluster, steady, OptimizeContext(nullptr, &state));
    RASA_CHECK(prime.ok()) << prime.status().ToString();
    StatusOr<RasaResult> full = optimizer.Optimize(drifted, rebound);
    RASA_CHECK(full.ok()) << full.status().ToString();
    StatusOr<RasaResult> inc =
        optimizer.Optimize(drifted, rebound, OptimizeContext(nullptr, &state));
    RASA_CHECK(inc.ok()) << inc.status().ToString();
    if (inc->incremental || !Identical(*full, *inc)) {
      std::fprintf(stderr,
                   "FAIL: full-drift incremental run diverged from the full "
                   "resolve (reason='%s')\n",
                   inc->incremental_reason.c_str());
      return 1;
    }
    std::printf("full-drift input falls back (%s), bit-identical: yes\n",
                inc->incremental_reason.c_str());
    PrintRule();
  }

  BenchJsonWriter json("incremental");
  const double drift_levels[] = {0.01, 0.04, 0.16};
  const int cycles = 5;
  double speedup_at_gate = 0.0;
  bool feasibility_ok = true;

  for (const double drift : drift_levels) {
    std::printf("drift %.0f%% per cycle:\n", 100.0 * drift);
    std::printf("  %5s %12s %12s %8s %8s %8s\n", "cycle", "full_s", "inc_s",
                "dirty", "reused", "speedup");
    // Both tracks draw the same churn seed; the placements they churn are
    // the ones they each adopted, exactly like two controllers running the
    // two policies side by side.
    const uint64_t churn_seed =
        7000 + static_cast<uint64_t>(1000.0 * drift);
    Rng full_rng(churn_seed);
    Rng inc_rng(churn_seed);
    Placement full_live = steady;
    Placement inc_live = steady;
    IncrementalState state;
    StatusOr<RasaResult> prime =
        optimizer.Optimize(cluster, inc_live, OptimizeContext(nullptr, &state));
    RASA_CHECK(prime.ok()) << prime.status().ToString();
    inc_live = prime->new_placement;
    RebaseIncrementalState(cluster, inc_live, &state);

    double full_total = 0.0;
    double inc_total = 0.0;
    for (int cycle = 1; cycle <= cycles; ++cycle) {
      Churn(cluster, full_live, drift, full_rng);
      Stopwatch full_timer;
      StatusOr<RasaResult> full = optimizer.Optimize(cluster, full_live);
      const double full_seconds = full_timer.ElapsedSeconds();
      RASA_CHECK(full.ok()) << full.status().ToString();
      full_live = full->new_placement;
      full_total += full_seconds;

      Churn(cluster, inc_live, drift, inc_rng);
      Stopwatch inc_timer;
      StatusOr<RasaResult> inc =
          optimizer.Optimize(cluster, inc_live, OptimizeContext(nullptr, &state));
      const double inc_seconds = inc_timer.ElapsedSeconds();
      RASA_CHECK(inc.ok()) << inc.status().ToString();
      inc_live = inc->new_placement;
      RebaseIncrementalState(cluster, inc_live, &state);
      inc_total += inc_seconds;
      feasibility_ok &= inc_live.CheckFeasible().ok();

      std::printf("  %5d %12.3f %12.3f %8d %8d %7.1fx\n", cycle,
                  full_seconds, inc_seconds, inc->dirty_subproblems,
                  inc->reused_subproblems,
                  inc_seconds > 0.0 ? full_seconds / inc_seconds : 0.0);
      json.BeginRow()
          .Field("drift", StrFormat("%.0f%%", 100.0 * drift))
          .Field("cycle", cycle)
          .Field("full_seconds", full_seconds)
          .Field("incremental_seconds", inc_seconds)
          .Field("dirty_subproblems", inc->dirty_subproblems)
          .Field("reused_subproblems", inc->reused_subproblems)
          .Field("incremental", inc->incremental)
          .Field("reason", inc->incremental_reason)
          .Field("full_gained_affinity",
                 GainedAffinity(cluster, full_live))
          .Field("incremental_gained_affinity",
                 GainedAffinity(cluster, inc_live));
    }
    const double speedup = inc_total > 0.0 ? full_total / inc_total : 0.0;
    std::printf("  mean: full %.3fs, incremental %.3fs, speedup %.1fx\n",
                full_total / cycles, inc_total / cycles, speedup);
    json.BeginRow()
        .Field("drift", StrFormat("%.0f%%", 100.0 * drift))
        .Field("summary", true)
        .Field("mean_full_seconds", full_total / cycles)
        .Field("mean_incremental_seconds", inc_total / cycles)
        .Field("speedup", speedup);
    if (drift == 0.04) speedup_at_gate = speedup;
    PrintRule();
  }

  if (!feasibility_ok) {
    std::fprintf(stderr, "FAIL: an incremental placement was infeasible\n");
    return 1;
  }
  if (std::getenv("RASA_BENCH_NO_THRESHOLD") != nullptr) {
    std::printf("speedup threshold skipped: RASA_BENCH_NO_THRESHOLD set\n");
    return 0;
  }
  if (speedup_at_gate < 3.0) {
    std::fprintf(stderr,
                 "FAIL: expected >= 3x steady-state speedup at 4%% drift, "
                 "got %.1fx\n",
                 speedup_at_gate);
    return 1;
  }
  std::printf("speedup threshold (>= 3x at 4%% drift): PASS (%.1fx)\n",
              speedup_at_gate);
  return 0;
}
