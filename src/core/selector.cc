#include "core/selector.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace rasa {

const char* SelectorPolicyToString(SelectorPolicy policy) {
  switch (policy) {
    case SelectorPolicy::kAlwaysCg:
      return "CG";
    case SelectorPolicy::kAlwaysMip:
      return "MIP";
    case SelectorPolicy::kHeuristic:
      return "HEURISTIC";
    case SelectorPolicy::kMlp:
      return "MLP-BASED";
    case SelectorPolicy::kGcn:
      return "GCN-BASED";
  }
  return "UNKNOWN";
}

FeatureGraph BuildSubproblemFeatureGraph(const Cluster& cluster,
                                         const Subproblem& subproblem) {
  const int n = static_cast<int>(subproblem.services.size());
  const AffinityGraph sub =
      cluster.affinity().InducedSubgraph(subproblem.services);
  Matrix features(std::max(n, 1), kSelectorFeatureDim);
  const double machine_ratio =
      static_cast<double>(subproblem.machines.size()) / (n + 1.0);
  for (int i = 0; i < n; ++i) {
    const Service& svc = cluster.service(subproblem.services[i]);
    features(i, 0) = svc.request.empty() ? 0.0 : svc.request[0] / 4.0;
    features(i, 1) = svc.demand / 20.0;
    features(i, 2) = sub.Degree(i) / 8.0;
    features(i, 3) = machine_ratio;
  }
  AffinityGraph graph_for_adj = n > 0 ? sub : AffinityGraph(1);
  return MakeFeatureGraph(graph_for_adj, std::move(features));
}

Matrix MeanSubproblemFeatures(const Cluster& cluster,
                              const Subproblem& subproblem) {
  return BuildSubproblemFeatureGraph(cluster, subproblem).features.MeanRows();
}

PoolAlgorithm HeuristicSelect(const Cluster& cluster,
                              const Subproblem& subproblem) {
  if (subproblem.services.empty()) return PoolAlgorithm::kMip;
  double containers = 0.0;
  for (int s : subproblem.services) containers += cluster.service(s).demand;
  const double avg_containers = containers / subproblem.services.size();
  std::set<int> specs;
  for (int m : subproblem.machines) specs.insert(cluster.machine(m).spec_id);
  const double avg_machines_per_spec =
      specs.empty() ? 0.0
                    : static_cast<double>(subproblem.machines.size()) /
                          static_cast<double>(specs.size());
  return avg_containers > avg_machines_per_spec ? PoolAlgorithm::kCg
                                                : PoolAlgorithm::kMip;
}

AlgorithmSelector::AlgorithmSelector(SelectorPolicy policy) : policy_(policy) {
  RASA_CHECK(policy != SelectorPolicy::kGcn && policy != SelectorPolicy::kMlp)
      << "model-based policies need a trained model";
}

AlgorithmSelector::AlgorithmSelector(GcnClassifier gcn)
    : policy_(SelectorPolicy::kGcn), gcn_(std::move(gcn)) {}

AlgorithmSelector::AlgorithmSelector(MlpClassifier mlp)
    : policy_(SelectorPolicy::kMlp), mlp_(std::move(mlp)) {}

PoolAlgorithm AlgorithmSelector::Select(const Cluster& cluster,
                                        const Subproblem& subproblem) const {
  switch (policy_) {
    case SelectorPolicy::kAlwaysCg:
      return PoolAlgorithm::kCg;
    case SelectorPolicy::kAlwaysMip:
      return PoolAlgorithm::kMip;
    case SelectorPolicy::kHeuristic:
      return HeuristicSelect(cluster, subproblem);
    case SelectorPolicy::kMlp: {
      const int label =
          mlp_.Predict(MeanSubproblemFeatures(cluster, subproblem));
      return label == 0 ? PoolAlgorithm::kCg : PoolAlgorithm::kMip;
    }
    case SelectorPolicy::kGcn: {
      const int label =
          gcn_.Predict(BuildSubproblemFeatureGraph(cluster, subproblem));
      return label == 0 ? PoolAlgorithm::kCg : PoolAlgorithm::kMip;
    }
  }
  return PoolAlgorithm::kCg;
}

std::vector<PoolAlgorithm> AlgorithmSelector::SelectBatch(
    const Cluster& cluster, const std::vector<const Subproblem*>& subproblems,
    ThreadPool* pool) const {
  std::vector<PoolAlgorithm> out(subproblems.size(), PoolAlgorithm::kCg);
  if (pool == nullptr || subproblems.size() <= 1) {
    for (size_t i = 0; i < subproblems.size(); ++i) {
      out[i] = Select(cluster, *subproblems[i]);
    }
    return out;
  }
  pool->ParallelFor(static_cast<int>(subproblems.size()), [&](int i) {
    out[i] = Select(cluster, *subproblems[i]);
  });
  return out;
}

}  // namespace rasa
