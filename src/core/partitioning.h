#ifndef RASA_CORE_PARTITIONING_H_
#define RASA_CORE_PARTITIONING_H_

#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "core/subproblem.h"

namespace rasa {

/// Which service-partitioning algorithm to run (Fig. 6 ablation).
enum class PartitionMode {
  /// The paper's four-stage pipeline (§IV-B): non-affinity -> master ->
  /// compatibility -> loss-minimization balanced partitioning.
  kMultiStage,
  /// Everything in one subproblem (NO-PARTITION).
  kNoPartition,
  /// Uniformly random balanced service partition (RANDOM-PARTITION).
  kRandom,
  /// Balanced min-weight cut via the KaHIP-style partitioner (KAHIP).
  kKahip,
};

struct PartitioningOptions {
  PartitionMode mode = PartitionMode::kMultiStage;
  /// If in [0, 1], overrides the paper's master ratio 45 * ln^0.66(N) / N
  /// (§V-B; used by the Fig. 7 sweep).
  double master_ratio_override = -1.0;
  /// Loss-min balanced partitioning splits any crucial set larger than this.
  int max_subproblem_services = 32;
  uint64_t seed = 7;
};

struct PartitionStats {
  int num_services = 0;
  int num_trivial_services = 0;
  int num_crucial_services = 0;
  int num_subproblems = 0;
  /// alpha actually applied at the master stage (multi-stage mode only).
  double master_ratio = 0.0;
  /// Total affinity (graph normalized to 1) carried by master services.
  double master_affinity = 0.0;
  /// Share of total affinity on edges internal to some subproblem; the
  /// partitioning optimality loss is 1 - crucial_internal_affinity.
  double crucial_internal_affinity = 0.0;
  double elapsed_seconds = 0.0;
};

struct PartitionResult {
  std::vector<Subproblem> subproblems;
  /// Services left in place (non-affinity + non-master).
  std::vector<int> trivial_services;
  /// Current placement with all crucial services' containers removed:
  /// machine residuals already account for trivial containers (§IV-B5).
  Placement base_placement;
  PartitionStats stats;
};

/// Runs service partitioning + machine assignment on a cluster snapshot.
/// `current` is the running placement (machine shaving keeps trivial
/// containers where they are). Machines are divided among subproblems per
/// spec, proportionally to each subproblem's requested resources. Records
/// no metrics: Optimize folds the `partition.*` series from the stats.
PartitionResult PartitionServices(const Cluster& cluster,
                                  const Placement& current,
                                  const PartitioningOptions& options);

/// The master ratio formula alpha(N) with the paper's constants, clamped to
/// (0, 1]. Exposed for the Fig. 7 sweep.
double MasterRatio(int num_services, double coefficient, double exponent);

}  // namespace rasa

#endif  // RASA_CORE_PARTITIONING_H_
