#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace rasa {

Cluster::Cluster(std::vector<std::string> resource_names,
                 std::vector<Service> services, std::vector<Machine> machines,
                 AffinityGraph affinity,
                 std::vector<AntiAffinityRule> anti_affinity)
    : resource_names_(std::move(resource_names)),
      services_(std::move(services)),
      machines_(std::move(machines)),
      affinity_(std::move(affinity)),
      anti_affinity_(std::move(anti_affinity)) {
  rules_of_service_.assign(services_.size(), {});
  for (size_t k = 0; k < anti_affinity_.size(); ++k) {
    for (int s : anti_affinity_[k].services) {
      if (s >= 0 && s < num_services()) {
        rules_of_service_[s].push_back(static_cast<int>(k));
      }
    }
  }
  for (const Service& s : services_) total_containers_ += s.demand;
  // A Cluster is shared read-only across solver threads: build the affinity
  // graph's read-side index now so no concurrent reader ever races on the
  // lazy rebuild.
  affinity_.Finalize();
}

std::vector<int> Cluster::MachineSpecIds() const {
  std::vector<int> specs;
  for (const Machine& m : machines_) specs.push_back(m.spec_id);
  std::sort(specs.begin(), specs.end());
  specs.erase(std::unique(specs.begin(), specs.end()), specs.end());
  return specs;
}

std::vector<int> Cluster::MachinesWithSpec(int spec_id) const {
  std::vector<int> out;
  for (int m = 0; m < num_machines(); ++m) {
    if (machines_[m].spec_id == spec_id) out.push_back(m);
  }
  return out;
}

Status Cluster::Validate() const {
  const int R = num_resources();
  for (int s = 0; s < num_services(); ++s) {
    const Service& svc = services_[s];
    if (svc.demand < 0) {
      return InvalidArgumentError(
          StrFormat("service %s has negative demand", svc.name.c_str()));
    }
    if (static_cast<int>(svc.request.size()) != R) {
      return InvalidArgumentError(StrFormat(
          "service %s has %zu resource requests, expected %d",
          svc.name.c_str(), svc.request.size(), R));
    }
    for (double r : svc.request) {
      if (!std::isfinite(r) || r < 0.0) {
        return InvalidArgumentError(StrFormat(
            "service %s has negative or non-finite request",
            svc.name.c_str()));
      }
    }
  }
  for (int m = 0; m < num_machines(); ++m) {
    if (static_cast<int>(machines_[m].capacity.size()) != R) {
      return InvalidArgumentError(StrFormat(
          "machine %s has %zu capacities, expected %d",
          machines_[m].name.c_str(), machines_[m].capacity.size(), R));
    }
    for (double c : machines_[m].capacity) {
      if (!std::isfinite(c) || c < 0.0) {
        return InvalidArgumentError(StrFormat(
            "machine %s has negative or non-finite capacity",
            machines_[m].name.c_str()));
      }
    }
  }
  if (affinity_.num_vertices() != num_services()) {
    return InvalidArgumentError(StrFormat(
        "affinity graph has %d vertices, expected %d services",
        affinity_.num_vertices(), num_services()));
  }
  // A rule counts each listed service once per machine; a repeated member
  // would be counted per listing by some readers and once by others.
  std::vector<int> listed_by(num_services(), -1);  // last rule listing s
  for (size_t k = 0; k < anti_affinity_.size(); ++k) {
    const AntiAffinityRule& rule = anti_affinity_[k];
    if (rule.max_per_machine < 0) {
      return InvalidArgumentError("anti-affinity rule with negative limit");
    }
    for (int s : rule.services) {
      if (s < 0 || s >= num_services()) {
        return InvalidArgumentError(
            StrFormat("anti-affinity rule references unknown service %d", s));
      }
      if (listed_by[s] == static_cast<int>(k)) {
        return InvalidArgumentError(StrFormat(
            "anti-affinity rule %zu lists service %d twice", k, s));
      }
      listed_by[s] = static_cast<int>(k);
    }
  }
  return Status::OK();
}

}  // namespace rasa
