#ifndef RASA_CORE_SELECTOR_H_
#define RASA_CORE_SELECTOR_H_

#include <vector>

#include "cluster/cluster.h"
#include "core/algorithm_pool.h"
#include "core/subproblem.h"
#include "ml/feature_graph.h"
#include "ml/gcn.h"

namespace rasa {

class ThreadPool;

/// Algorithm-selection policies compared in §V-C.
enum class SelectorPolicy {
  kAlwaysCg,   // label every subproblem CG
  kAlwaysMip,  // label every subproblem MIP
  kHeuristic,  // avg containers/service vs avg machines/spec rule
  kMlp,        // MLP over mean features (ignores topology)
  kGcn,        // the paper's GCN graph classifier
};

const char* SelectorPolicyToString(SelectorPolicy policy);

/// Number of per-service features in the classifier input. The paper uses
/// [r_s, d_s]; we append the subproblem's machines-per-service ratio and the
/// service's affinity degree so scale information survives mean pooling
/// (documented in DESIGN.md).
inline constexpr int kSelectorFeatureDim = 4;

/// Builds the feature graph \hat G_k of Definition 2 for a subproblem.
FeatureGraph BuildSubproblemFeatureGraph(const Cluster& cluster,
                                         const Subproblem& subproblem);

/// Mean of the vertex features (the MLP baseline's input).
Matrix MeanSubproblemFeatures(const Cluster& cluster,
                              const Subproblem& subproblem);

/// Picks a pool algorithm per subproblem according to a policy. GCN/MLP
/// policies require the corresponding trained model.
class AlgorithmSelector {
 public:
  /// Fixed or heuristic policies (no model needed).
  explicit AlgorithmSelector(SelectorPolicy policy);
  /// GCN policy.
  explicit AlgorithmSelector(GcnClassifier gcn);
  /// MLP policy.
  explicit AlgorithmSelector(MlpClassifier mlp);

  SelectorPolicy policy() const { return policy_; }

  PoolAlgorithm Select(const Cluster& cluster,
                       const Subproblem& subproblem) const;

  /// Selects for every subproblem at once. With a pool, feature-graph
  /// construction and model inference fan out one subproblem per task (the
  /// GCN forward pass is the hot kernel at production subproblem counts);
  /// selection is pure, so the result is identical to a Select loop
  /// regardless of scheduling.
  std::vector<PoolAlgorithm> SelectBatch(
      const Cluster& cluster, const std::vector<const Subproblem*>& subproblems,
      ThreadPool* pool = nullptr) const;

 private:
  SelectorPolicy policy_;
  GcnClassifier gcn_;
  MlpClassifier mlp_;
};

/// The empirical HEURISTIC baseline (§V-C): if the average container count
/// per service exceeds the average machine count per machine spec, choose
/// CG; otherwise MIP.
PoolAlgorithm HeuristicSelect(const Cluster& cluster,
                              const Subproblem& subproblem);

}  // namespace rasa

#endif  // RASA_CORE_SELECTOR_H_
