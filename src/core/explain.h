#ifndef RASA_CORE_EXPLAIN_H_
#define RASA_CORE_EXPLAIN_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/json_writer.h"
#include "core/solve_ledger.h"

namespace rasa {

/// Upper bound on the gained affinity achievable by the RASA pipeline at
/// this partition, against what the run actually achieved.
///
/// Construction: every affinity edge contributes at most its full weight,
/// so edges external to all subproblems (cut edges + edges touching trivial
/// services) are charged in full as `external_affinity`. Each subproblem's
/// internal edges are charged min(internal_affinity, solver bound). The
/// solver bound is only used when (a) the solver reported one — a proven
/// B&B dual bound (MipResult::bound_proven, source "mip") or a solved CG
/// master LP capped by the realized value (source "cg-lp") — and (b) the
/// subproblem placed every container inside its own machines
/// (unplaced == 0); otherwise the fallback may localize internal edges on
/// machines the solver never modeled. Only "mip" and "trivial" terms are
/// proven: a "cg-lp" term is the objective of the last restricted master,
/// which bounds only the patterns generated so far, so it is an estimate
/// that a feasible placement can exceed (ROADMAP item 10). The
/// per-subproblem terms live on the run's ledger records
/// (LedgerRecord::certificate_bound, bound_tightened, bound_source).
struct QualityCertificate {
  /// The run's gained affinity after merge + fallback (A3 ==
  /// RasaResult::new_gained_affinity).
  double achieved = 0.0;

  /// Weight of edges not internal to any subproblem, charged in full.
  double external_affinity = 0.0;
  double sum_internal_affinity = 0.0;
  /// external_affinity + sum of the records' certificate terms.
  double bound = 0.0;

  int tightened_terms = 0;

  /// Relative optimality gap of the run: (bound - achieved) / max(bound, eps).
  double Gap() const;
  /// achieved / bound in [0, 1]; 1 when the bound is met.
  double Ratio() const;
};

/// Waterfall decomposition of the final gained affinity by pipeline phase.
/// The three terms sum exactly (to rounding) to `total`:
///   total = base_retained + solver_gain + fallback_delta.
struct AttributionWaterfall {
  /// A1: gained affinity of the base placement (trivial residents only).
  double base_retained = 0.0;
  /// A2 - A1: added by the per-subproblem solves at the merge.
  double solver_gain = 0.0;
  /// A3 - A2: added (or lost) by the default-scheduler fallback.
  double fallback_delta = 0.0;
  /// A3: the run's final gained affinity.
  double total = 0.0;

  // Context (not part of the sum):
  /// Affinity share on edges not internal to any subproblem — the
  /// partitioning's optimality loss (1 - crucial_internal_affinity of a
  /// weight-1 graph).
  double partition_cut_affinity = 0.0;
  double original_gained_affinity = 0.0;

  double Sum() const { return base_retained + solver_gain + fallback_delta; }
};

/// Who moved and which traffic got localized, naming names.
struct PlacementDiffAudit {
  struct ServiceMove {
    int service = 0;
    std::string name;
    int moved_containers = 0;
  };
  struct PairLocalization {
    int u = 0;
    int v = 0;
    std::string name_u;
    std::string name_v;
    double weight = 0.0;
    double ratio_before = 0.0;  // PairLocalizationRatio before / after
    double ratio_after = 0.0;
    /// weight * (ratio_after - ratio_before): gained affinity this pair won.
    double delta_affinity = 0.0;
  };

  int moved_containers = 0;
  /// Top services by containers moved, descending (index tie-break).
  std::vector<ServiceMove> top_moved;
  /// Top affinity edges by delta_affinity, descending (index tie-break).
  std::vector<PairLocalization> top_localized;
};

/// The full explain report of one Optimize run: flight-recorder records in
/// canonical order (each carrying its certificate term), the quality
/// certificate, the attribution waterfall, and the placement diff.
/// Deterministic: bit-identical at every thread count and with the ledger
/// on or off (wall-clock fields excepted; JSON render can exclude them).
struct ExplainReport {
  bool populated = false;
  QualityCertificate certificate;
  AttributionWaterfall waterfall;
  PlacementDiffAudit diff;
  std::vector<LedgerRecord> records;
};

/// One walk of every service's machine map in `before` against `after`
/// (two placements over the same cluster).
struct PlacementChange {
  /// Per service: 1 when its machine map differs between the placements.
  std::vector<char> changed;
  /// Per service: the containers `after` holds beyond `before` on each
  /// machine, summed (the service's term of after.DiffCount(before)).
  std::vector<int> moved;
  /// Sum of `moved`: after.DiffCount(before).
  int moved_containers = 0;
};

/// Walks each service's two machine maps once, in ascending machine order.
PlacementChange WalkPlacements(const Placement& before,
                               const Placement& after);

/// Builds the diff audit between two placements over the same cluster.
PlacementDiffAudit BuildPlacementDiff(const Cluster& cluster,
                                      const Placement& before,
                                      const Placement& after, int top_k = 8);

/// The same audit from the walk of `before` against `after` and their
/// EdgeLocalizationRatios, `after_ratios` re-scored from `before_ratios`
/// on the walk's changed services: visits only the edges with a changed
/// end, the only ones whose ratio can differ.
PlacementDiffAudit BuildPlacementDiff(const Cluster& cluster,
                                      const PlacementChange& change,
                                      const std::vector<double>& before_ratios,
                                      const std::vector<double>& after_ratios,
                                      int top_k = 8);

/// Serializes the report as one JSON object on `writer`. With
/// `include_timings` false, every wall-clock field is omitted so two runs
/// of the same seed render bit-identically regardless of machine load —
/// the form the determinism test compares. The certificate's `terms`
/// array is rendered from the records.
void AppendExplainJson(JsonWriter& writer, const ExplainReport& report,
                       bool include_timings = true);

/// Human-readable multi-line report: certificate, waterfall, per-subproblem
/// solver table, quantiles (p50/p95/p99) of the solves that ran this run
/// (reused records ran none), and the diff audit.
std::string FormatExplainReport(const ExplainReport& report);

}  // namespace rasa

#endif  // RASA_CORE_EXPLAIN_H_
