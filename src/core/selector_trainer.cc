#include "core/selector_trainer.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/partitioning.h"

namespace rasa {

SelectorDataset GenerateSelectorDataset(
    const SelectorTrainingOptions& options) {
  SelectorDataset dataset;
  Rng rng(options.seed);

  // Four training clusters T1-T4: same generator family as M1-M4 but
  // different seeds and slightly different shapes.
  std::vector<ClusterSpec> specs = TableTwoSpecs(options.cluster_scale);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].name = "T" + std::to_string(i + 1);
    specs[i].seed = options.seed + 1000 * (i + 1);
  }

  static const int kSizeTargets[] = {8, 12, 16, 24, 32};
  int produced = 0;
  for (int pass = 0; produced < options.num_samples && pass < 16; ++pass) {
    for (size_t ci = 0; ci < specs.size() && produced < options.num_samples;
         ++ci) {
      ClusterSpec spec = specs[ci];
      spec.seed += 131 * pass;
      StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
      if (!snapshot.ok()) {
        RASA_LOG(Warning) << "training cluster failed: "
                          << snapshot.status().ToString();
        continue;
      }
      PartitioningOptions part;
      part.max_subproblem_services =
          kSizeTargets[rng.NextUint64(std::size(kSizeTargets))];
      part.seed = rng.Next();
      PartitionResult partition = PartitionServices(
          *snapshot->cluster, snapshot->original_placement, part);

      for (const Subproblem& sp : partition.subproblems) {
        if (produced >= options.num_samples) break;
        if (sp.services.empty() || sp.machines.empty()) continue;
        LabeledSample sample;
        // Two draws per sample: the later partition draws, and so the
        // training set, depend on them.
        rng.Next();
        rng.Next();
        // Each label solve plans the label timeout as its budget, so the
        // labels say which solver wins under the caps production applies.
        const double budget = options.label_timeout_seconds;
        SolveAttempt attempt;
        StatusOr<SubproblemSolution> cg = RunPoolAlgorithm(
            PoolAlgorithm::kCg, *snapshot->cluster, sp,
            partition.base_placement, snapshot->original_placement,
            Deadline::AfterSeconds(budget), budget, &attempt);
        StatusOr<SubproblemSolution> mip = RunPoolAlgorithm(
            PoolAlgorithm::kMip, *snapshot->cluster, sp,
            partition.base_placement, snapshot->original_placement,
            Deadline::AfterSeconds(budget), budget, &attempt);
        sample.cg_objective = cg.ok() ? cg->gained_affinity : -1.0;
        sample.mip_objective = mip.ok() ? mip->gained_affinity : -1.0;
        // Label by objective; exact ties go to MIP (its answer is certified
        // when it finishes).
        sample.label = sample.cg_objective > sample.mip_objective ? 0 : 1;
        sample.graph = BuildSubproblemFeatureGraph(*snapshot->cluster, sp);
        sample.mean_features = sample.graph.features.MeanRows();
        if (sample.label == 0) {
          ++dataset.cg_labels;
        } else {
          ++dataset.mip_labels;
        }
        dataset.samples.push_back(std::move(sample));
        ++produced;
      }
    }
  }
  return dataset;
}

TrainedSelectors TrainSelectors(const SelectorDataset& dataset,
                                const SelectorTrainingOptions& options) {
  TrainedSelectors out;
  out.dataset_size = static_cast<int>(dataset.samples.size());
  out.gcn = GcnClassifier(kSelectorFeatureDim, options.hidden_dim, 2,
                          options.seed);
  out.mlp = MlpClassifier(kSelectorFeatureDim, options.hidden_dim, 2,
                          options.seed);
  if (dataset.samples.empty()) return out;

  std::vector<FeatureGraph> graphs;
  std::vector<Matrix> means;
  std::vector<int> labels;
  for (const LabeledSample& s : dataset.samples) {
    graphs.push_back(s.graph);
    means.push_back(s.mean_features);
    labels.push_back(s.label);
  }
  out.gcn.Fit(graphs, labels, options.epochs, options.learning_rate,
              options.seed);
  out.mlp.Fit(means, labels, options.epochs, options.learning_rate,
              options.seed);
  out.gcn_train_accuracy = out.gcn.Accuracy(graphs, labels);
  out.mlp_train_accuracy = out.mlp.Accuracy(means, labels);
  return out;
}

std::string ResolveSelectorCachePrefix(const std::string& explicit_prefix) {
  if (!explicit_prefix.empty()) return explicit_prefix;
  const char* env = std::getenv("RASA_SELECTOR_CACHE");
  if (env != nullptr && env[0] != '\0') return env;
  std::error_code ec;
  std::filesystem::create_directories(".rasa_cache", ec);
  if (ec) {
    RASA_LOG(Warning) << "cannot create .rasa_cache/ (" << ec.message()
                      << "); caching selector weights in the working dir";
    return "rasa_selector_cache";
  }
  return ".rasa_cache/rasa_selector_cache";
}

StatusOr<TrainedSelectors> GetOrTrainSelectors(
    const std::string& cache_prefix, const SelectorTrainingOptions& options) {
  StatusOr<GcnClassifier> gcn =
      GcnClassifier::LoadFromFile(cache_prefix + ".gcn");
  StatusOr<MlpClassifier> mlp =
      MlpClassifier::LoadFromFile(cache_prefix + ".mlp");
  if (gcn.ok() && mlp.ok()) {
    TrainedSelectors out;
    out.gcn = std::move(gcn).value();
    out.mlp = std::move(mlp).value();
    return out;
  }
  RASA_LOG(Info) << "training selectors (cache miss: " << cache_prefix << ")";
  const SelectorDataset dataset = GenerateSelectorDataset(options);
  TrainedSelectors trained = TrainSelectors(dataset, options);
  Status save = trained.gcn.SaveToFile(cache_prefix + ".gcn");
  if (save.ok()) save = trained.mlp.SaveToFile(cache_prefix + ".mlp");
  if (!save.ok()) {
    RASA_LOG(Warning) << "could not cache selector weights: "
                      << save.ToString();
  }
  return trained;
}

StatusOr<GcnClassifier> GetOrTrainGcn(const std::string& cache_path,
                                      const SelectorTrainingOptions& options) {
  StatusOr<GcnClassifier> cached = GcnClassifier::LoadFromFile(cache_path);
  if (cached.ok()) return cached;
  RASA_LOG(Info) << "training GCN selector (cache miss: " << cache_path << ")";
  const SelectorDataset dataset = GenerateSelectorDataset(options);
  TrainedSelectors trained = TrainSelectors(dataset, options);
  const Status save = trained.gcn.SaveToFile(cache_path);
  if (!save.ok()) {
    RASA_LOG(Warning) << "could not cache GCN weights: " << save.ToString();
  }
  return trained.gcn;
}

}  // namespace rasa
