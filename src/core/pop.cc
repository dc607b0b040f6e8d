#include "core/pop.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"

namespace rasa {

bool ShouldUsePop(const PopOptions& options, const Subproblem& subproblem) {
  return options.max_services > 0 &&
         static_cast<int>(subproblem.services.size()) > options.max_services;
}

namespace {

// The seeded replica split RunPoolAlgorithmPop solves: the replicas with
// their edges and the affinity cut between replicas. Empty when the
// subproblem is solved directly (not oversized, or nothing to split).
struct PopSplit {
  std::vector<Subproblem> replicas;
  double cut_affinity = 0.0;
};

PopSplit SplitForPop(const Cluster& cluster, const Subproblem& subproblem,
                     uint64_t seed, const PopOptions& options) {
  PopSplit split;
  const int num_services = static_cast<int>(subproblem.services.size());
  const int num_machines = static_cast<int>(subproblem.machines.size());
  if (!ShouldUsePop(options, subproblem) || num_services < 2 ||
      num_machines < 2) {
    return split;
  }
  const int k = std::max(
      2, std::min({options.num_replicas, num_services, num_machines}));

  // Seeded split: shuffle, then deal round-robin. Services and machines use
  // one stream drawn in a fixed order, so the split depends on `seed` alone.
  Rng rng(seed);
  std::vector<int> services = subproblem.services;
  std::vector<int> machines = subproblem.machines;
  rng.Shuffle(services);
  rng.Shuffle(machines);

  split.replicas.resize(static_cast<size_t>(k));
  for (int i = 0; i < num_services; ++i) {
    split.replicas[i % k].services.push_back(services[i]);
  }
  for (int j = 0; j < num_machines; ++j) {
    split.replicas[j % k].machines.push_back(machines[j]);
  }
  double internal_sum = 0.0;
  for (Subproblem& replica : split.replicas) {
    // Canonical order within a replica, matching the partitioner's output
    // shape (solvers index services/machines positionally either way, but
    // sorted ids keep logs and caches comparable).
    std::sort(replica.services.begin(), replica.services.end());
    std::sort(replica.machines.begin(), replica.machines.end());
    PopulateSubproblemEdges(cluster, replica);
    internal_sum += replica.internal_affinity;
  }
  split.cut_affinity =
      std::max(0.0, subproblem.internal_affinity - internal_sum);
  return split;
}

// Adds one replica's solver work into the split's attempt: counters sum,
// max_* fields take the max, `hit_deadline` and `solved` say whether any
// replica did, and `stop` is the first stopped replica's. Bound and
// objective fields stay unset, because a replica-local bound does not bound
// the full subproblem.
void AddReplicaWork(const SolveAttempt& replica, SolveAttempt& split) {
  if (replica.has_cg) {
    const CgStats& r = replica.cg;
    CgStats& s = split.cg;
    split.has_cg = true;
    s.rounds += r.rounds;
    s.patterns_generated += r.patterns_generated;
    s.master_solves += r.master_solves;
    s.hit_deadline = s.hit_deadline || r.hit_deadline;
    s.lp_iterations += r.lp_iterations;
    s.lp_phase1_iterations += r.lp_phase1_iterations;
    s.master_warm_started += r.master_warm_started;
    s.refactorizations += r.refactorizations;
    s.max_eta_length = std::max(s.max_eta_length, r.max_eta_length);
  }
  if (replica.has_mip) {
    const SubproblemMipStats& r = replica.mip;
    SubproblemMipStats& s = split.mip;
    split.has_mip = true;
    s.solved = s.solved || r.solved;
    s.nodes += r.nodes;
    if (s.stop == MipStop::kNone) s.stop = r.stop;
    s.lp_iterations += r.lp_iterations;
    s.warm_started_nodes += r.warm_started_nodes;
    s.max_node_pivots = std::max(s.max_node_pivots, r.max_node_pivots);
    s.refactorizations += r.refactorizations;
    s.max_eta_length = std::max(s.max_eta_length, r.max_eta_length);
  }
}

}  // namespace

bool PopAttemptFails(PoolAlgorithm algorithm, const Cluster& cluster,
                     const Subproblem& subproblem, uint64_t seed,
                     const PopOptions& options) {
  const PopSplit split = SplitForPop(cluster, subproblem, seed, options);
  if (split.replicas.empty()) {
    return PoolAlgorithmFails(algorithm, cluster, subproblem);
  }
  return std::any_of(split.replicas.begin(), split.replicas.end(),
                     [&](const Subproblem& replica) {
                       return PoolAlgorithmFails(algorithm, cluster, replica);
                     });
}

StatusOr<SubproblemSolution> RunPoolAlgorithmPop(
    PoolAlgorithm algorithm, const Cluster& cluster,
    const Subproblem& subproblem, const Placement& base,
    const Placement& original, const Deadline& deadline, double budget_seconds,
    uint64_t seed, const PopOptions& options, SolveAttempt* attempt,
    const Placement* mip_incumbent, PopStats* pop_stats) {
  Stopwatch timer;
  const PopSplit split = SplitForPop(cluster, subproblem, seed, options);
  if (split.replicas.empty()) {
    return RunPoolAlgorithm(algorithm, cluster, subproblem, base, original,
                            deadline, budget_seconds, attempt, mip_incumbent);
  }
  const int k = static_cast<int>(split.replicas.size());
  if (pop_stats != nullptr) *pop_stats = {k, split.cut_affinity};

  // The attempt as a whole: the replicas' summed work and total timing, and
  // no CG/MIP bound, so the certificate term stays at the trivial bound.
  *attempt = SolveAttempt{};
  attempt->algorithm = algorithm;
  auto file = [&](AttemptOutcome outcome) {
    attempt->outcome = outcome;
    attempt->seconds = timer.ElapsedSeconds();
  };

  // Solve replicas sequentially, each on an even share of the budget.
  SubproblemSolution combined;
  for (int r = 0; r < k; ++r) {
    SolveAttempt replica;
    StatusOr<SubproblemSolution> solved = RunPoolAlgorithm(
        algorithm, cluster, split.replicas[r], base, original, deadline,
        budget_seconds / k, &replica, mip_incumbent);
    AddReplicaWork(replica, *attempt);
    if (!solved.ok()) {
      // One failed replica fails the attempt; the caller's degradation
      // ladder (secondary algorithm, then greedy) takes over.
      file(AttemptOutcome::kFailed);
      return solved;
    }
    combined.assignments.insert(combined.assignments.end(),
                                solved->assignments.begin(),
                                solved->assignments.end());
    combined.unplaced_containers += solved->unplaced_containers;
  }

  // Re-price the union over the FULL subproblem's edges: replicas only saw
  // their own internal edges, but two services split apart may still land
  // on one machine.
  combined.gained_affinity =
      SubproblemGainedAffinity(cluster, subproblem, combined.assignments);
  // The union is feasible, and no branch-and-bound proved it optimal.
  if (attempt->mip.solved) attempt->mip.status = MipStatus::kFeasible;
  file(AttemptOutcome::kOk);
  return combined;
}

}  // namespace rasa
