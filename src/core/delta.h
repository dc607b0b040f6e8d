#ifndef RASA_CORE_DELTA_H_
#define RASA_CORE_DELTA_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "core/partitioning.h"
#include "core/subproblem.h"

namespace rasa {

// The snapshot differ's thresholds (see DESIGN.md "Incremental
// re-optimization"). Each is a quality/speed trade-off, not a correctness
// switch: a partition wrongly kept clean still merges its cached
// assignments CanPlace-guarded and simply forfeits the re-solve (and any
// certificate tightening), it can never produce an infeasible placement or
// an unsound bound.

/// A machine's residual capacity (after trivial residents) may move by this
/// fraction of its capacity before the owning partition is dirty. Sized for
/// container-granularity churn: one relocated container shifts a typical
/// machine's residual by a few percent of capacity (close to ten for a
/// big-memory container), so a machine absorbs a handful of trivial moves
/// before its owner re-solves (the cached assignments re-apply
/// CanPlace-guarded either way, so this trades solution freshness, never
/// feasibility).
inline constexpr double kResidualTolerance = 0.15;
/// When the dirty partitions carry at least this share of the total
/// internal affinity, reusing the rest is not worth the staleness: fall
/// back to a full re-partition + resolve.
inline constexpr double kFullResolveFraction = 0.5;

struct DeltaOptions {
  /// Per-edge relative weight drift treated as "unchanged". Kept tight by
  /// default so any real measurement delta re-solves the partition.
  double weight_tolerance = 1e-9;
};

/// Everything the last optimized cycle knew about one subproblem, kept so
/// the next cycle can re-apply the solution verbatim when nothing material
/// changed — and warm-start the solvers when something did.
struct SubproblemCache {
  /// The subproblem as solved: global service/machine ids plus the internal
  /// edges *under the weights of that cycle* (the differ compares them
  /// against the fresh snapshot's weights).
  Subproblem subproblem;
  /// Assignments actually applied by the merge (after CanPlace partial
  /// fits), i.e. the incumbent placement restricted to this subproblem.
  std::vector<SubproblemSolution::Assignment> assignments;
  int unplaced = 0;
  double realized = 0.0;
  /// The certificate term of that solve (bound under the old weights).
  double bound = 0.0;
  bool tightened = false;
  std::string bound_source = "trivial";
  /// Ladder outcome, echoed into reused ledger records.
  int algorithm = 0;  // PoolAlgorithm as int (delta.h stays below the pool)
  bool used_secondary = false;
  bool fell_to_greedy = false;
  int ladder_rung = 0;
  /// Residual capacity of each subproblem machine the solve observed
  /// (base placement = trivial residents only), machine-local-major:
  /// residuals[j * num_resources + r].
  std::vector<double> residuals;
};

/// Checkpointable delta state of the control loop: the last optimized
/// cycle's partitioning and per-subproblem solutions. `valid` is false on a
/// cold start (or after a structural change invalidated the cache).
struct IncrementalState {
  bool valid = false;
  /// Fingerprint of everything the partitioning depends on besides the
  /// placement and edge weights: service demands/requests/platforms,
  /// machine capacities/platforms/specs, anti-affinity rules. A mismatch
  /// invalidates the whole cache (partition structure is void).
  uint64_t structure_signature = 0;
  int num_services = 0;
  int num_machines = 0;
  int num_resources = 0;
  std::vector<SubproblemCache> subproblems;
  /// Partition stats that cannot be re-derived cheaply.
  double master_ratio = 0.0;
  double master_affinity = 0.0;
};

/// FNV-1a fingerprint of the cluster's partition-relevant structure (see
/// IncrementalState::structure_signature). Placement and affinity weights
/// are deliberately excluded — those drift every cycle and are diffed
/// per-partition instead.
uint64_t ClusterStructureSignature(const Cluster& cluster);

/// What the differ decided for one fresh snapshot against the cached state.
struct SnapshotDelta {
  /// The cache cannot (or should not) be reused; `reason` says why
  /// ("structure", "drift-threshold").
  bool full_resolve = false;
  std::string reason;
  /// Per cached subproblem: re-solve it this cycle.
  std::vector<char> dirty;
  /// Per cached subproblem: some machine's residual *grew* since the solve
  /// (within tolerance, or the partition would be dirty). A grown residual
  /// widens the feasible set, so the cached bound no longer certifies a
  /// reused term.
  std::vector<char> residual_increased;
  /// Per cached subproblem: max over internal edges of new/old weight,
  /// floored at 1. Inflates a reused cached bound to stay sound under
  /// (tolerance-small) weight growth.
  std::vector<double> weight_ratio;
  /// The cached subproblems with edges + internal affinity recomputed under
  /// the fresh snapshot's weights (what this cycle's certificate charges).
  std::vector<Subproblem> rebuilt;
  int num_dirty = 0;
  /// Share of the total internal affinity (fresh weights) on dirty
  /// partitions — the drift measure gating the full-resolve fallback.
  double dirty_affinity_fraction = 0.0;
};

/// Re-bases the cached residuals on the placement the control loop actually
/// ended the cycle with. The optimizer captures residuals as the solvers
/// observed them, but the adopted placement may differ — executions go
/// partial, plans roll back — and every such delta would read as spurious
/// drift next cycle. Where the live residual *grew* past what the solve
/// observed the cached bound is demoted (`tightened` cleared): a wider
/// feasible set voids the certificate, and the next diff can only compare
/// against the re-based values. No-op when `state` is invalid or shaped for a different
/// cluster.
void RebaseIncrementalState(const Cluster& cluster, const Placement& live,
                            IncrementalState* state);

/// Diffs a fresh snapshot (measured cluster + live placement) against the
/// last optimized state. Marks a cached partition dirty when its internal
/// edge set changed, any internal weight moved relatively more than
/// `weight_tolerance`, or any of its machines' residual capacity (after
/// trivial residents) moved more than kResidualTolerance of capacity.
/// Never inspects where the *crucial* containers currently sit: the cached
/// assignments replace them wholesale, so their drift is repaired for free.
SnapshotDelta DiffSnapshot(const Cluster& cluster, const Placement& current,
                           const IncrementalState& state,
                           const DeltaOptions& options);

/// Token encoding (whitespace-separated, self-framing, precision 17) so the
/// state embeds in journal records and checkpoint sections and `--resume`
/// replays bit-identically. Decode consumes exactly the tokens Encode
/// produced and leaves the stream at the next token.
void EncodeIncrementalState(std::ostream& os, const IncrementalState& state);
StatusOr<IncrementalState> DecodeIncrementalState(std::istream& is);

std::string EncodeIncrementalStateString(const IncrementalState& state);
StatusOr<IncrementalState> DecodeIncrementalStateString(
    const std::string& text);

}  // namespace rasa

#endif  // RASA_CORE_DELTA_H_
