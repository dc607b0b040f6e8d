#ifndef RASA_CLUSTER_CLUSTER_H_
#define RASA_CLUSTER_CLUSTER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "graph/affinity_graph.h"

namespace rasa {

/// A microservice: d_s homogeneous containers, each requesting the same
/// per-resource amounts (Table I: d_s, R^S).
struct Service {
  std::string name;
  /// d_s: number of containers the SLA requires.
  int demand = 0;
  /// R^S_{r,s}: requested amount of each resource type per container.
  std::vector<double> request;
  /// Compatibility platform (schedulable constraints, §II-C): a container
  /// may only run on machines with the same platform id.
  int platform = 0;
};

/// A physical machine (Table I: R^M).
struct Machine {
  std::string name;
  /// Machines with the same spec id have identical capacity & platform;
  /// solver layers aggregate them into machine groups.
  int spec_id = 0;
  /// R^M_{r,m}: total capacity per resource type.
  std::vector<double> capacity;
  int platform = 0;
};

/// Anti-affinity rule (Table I: A_k, h_k): a single machine may host at most
/// `max_per_machine` containers drawn from `services` combined.
struct AntiAffinityRule {
  std::vector<int> services;
  int max_per_machine = 0;
};

/// Immutable description of a cluster: the inputs of the RASA problem
/// (services, machines, affinity graph, anti-affinity, schedulability).
class Cluster {
 public:
  Cluster() = default;
  Cluster(std::vector<std::string> resource_names,
          std::vector<Service> services, std::vector<Machine> machines,
          AffinityGraph affinity,
          std::vector<AntiAffinityRule> anti_affinity);

  int num_services() const { return static_cast<int>(services_.size()); }
  int num_machines() const { return static_cast<int>(machines_.size()); }
  int num_resources() const { return static_cast<int>(resource_names_.size()); }
  int num_containers() const { return total_containers_; }

  const std::vector<std::string>& resource_names() const {
    return resource_names_;
  }
  const Service& service(int s) const { return services_[s]; }
  const Machine& machine(int m) const { return machines_[m]; }
  const std::vector<Service>& services() const { return services_; }
  const std::vector<Machine>& machines() const { return machines_; }

  /// The service-to-service affinity graph (vertex ids == service ids).
  const AffinityGraph& affinity() const { return affinity_; }

  const std::vector<AntiAffinityRule>& anti_affinity() const {
    return anti_affinity_;
  }
  /// Indices of anti-affinity rules mentioning service `s`.
  const std::vector<int>& RulesOfService(int s) const {
    return rules_of_service_[s];
  }

  /// b_{s,m}: whether machine `m` may host containers of service `s`.
  bool CanHost(int machine, int service) const {
    return machines_[machine].platform == services_[service].platform;
  }

  /// Distinct machine spec ids in use.
  std::vector<int> MachineSpecIds() const;
  /// Machine ids with the given spec.
  std::vector<int> MachinesWithSpec(int spec_id) const;

  /// Structural validation: positive demands, matching resource dimensions,
  /// sane anti-affinity rules (known services, each listed at most once),
  /// affinity graph sized to services.
  Status Validate() const;

 private:
  std::vector<std::string> resource_names_;
  std::vector<Service> services_;
  std::vector<Machine> machines_;
  AffinityGraph affinity_;
  std::vector<AntiAffinityRule> anti_affinity_;
  std::vector<std::vector<int>> rules_of_service_;
  int total_containers_ = 0;
};

}  // namespace rasa

#endif  // RASA_CLUSTER_CLUSTER_H_
