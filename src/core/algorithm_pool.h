#ifndef RASA_CORE_ALGORITHM_POOL_H_
#define RASA_CORE_ALGORITHM_POOL_H_

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/timer.h"
#include "core/cg.h"
#include "core/mip_algorithm.h"
#include "core/subproblem.h"

namespace rasa {

/// The scheduling algorithm pool (§IV-C): column generation and MIP.
enum class PoolAlgorithm { kCg = 0, kMip = 1 };

const char* PoolAlgorithmToString(PoolAlgorithm algorithm);

/// Everything one pool-algorithm attempt reveals about itself, captured for
/// the solve ledger (observation-only — nothing here steers the solve).
struct PoolAttemptStats {
  PoolAlgorithm algorithm = PoolAlgorithm::kCg;
  double seconds = 0.0;
  /// Exactly one of the two is populated, matching `algorithm`.
  bool has_cg = false;
  CgStats cg;
  bool has_mip = false;
  SubproblemMipStats mip;
};

/// Runs one pool algorithm on a subproblem. `base` holds the trivial
/// residents (defines residual capacities); `original` is the pre-RASA
/// placement (CG seeds patterns from it). Neither is modified. `stats`,
/// when non-null, receives the attempt's solver introspection.
/// `mip_incumbent`, when non-null, offers an extra feasible placement (the
/// incremental path's prior incumbent) as the MIP warm start — see
/// MipAlgorithmOptions::incumbent_hint; the CG branch ignores it (CG warm
/// starts from `original`).
StatusOr<SubproblemSolution> RunPoolAlgorithm(
    PoolAlgorithm algorithm, const Cluster& cluster,
    const Subproblem& subproblem, const Placement& base,
    const Placement& original, const Deadline& deadline, uint64_t seed = 29,
    PoolAttemptStats* stats = nullptr,
    const Placement* mip_incumbent = nullptr);

/// True iff RunPoolAlgorithm on `subproblem` returns an error, whatever
/// the placements, deadline and seed: CG never does (it falls back to the
/// greedy), and MIP does exactly when its model is over the row cap.
bool PoolAlgorithmFails(PoolAlgorithm algorithm, const Cluster& cluster,
                        const Subproblem& subproblem);

}  // namespace rasa

#endif  // RASA_CORE_ALGORITHM_POOL_H_
