#include "cluster/placement.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace rasa {

Placement::Placement(const Cluster& cluster)
    : cluster_(&cluster),
      by_machine_(cluster.num_machines()),
      by_service_(cluster.num_services()),
      used_(cluster.num_machines(),
            std::vector<double>(cluster.num_resources(), 0.0)),
      total_of_service_(cluster.num_services(), 0),
      containers_on_machine_(cluster.num_machines(), 0) {}

int Placement::CountOn(int machine, int service) const {
  const auto& m = by_machine_[machine];
  auto it = m.find(service);
  return it == m.end() ? 0 : it->second;
}

double Placement::FreeResource(int machine, int r) const {
  return cluster_->machine(machine).capacity[r] - used_[machine][r];
}

void Placement::Add(int machine, int service, int count) {
  RASA_CHECK(count >= 0);
  if (count == 0) return;
  by_machine_[machine][service] += count;
  by_service_[service][machine] += count;
  total_of_service_[service] += count;
  containers_on_machine_[machine] += count;
  const std::vector<double>& req = cluster_->service(service).request;
  for (int r = 0; r < cluster_->num_resources(); ++r) {
    used_[machine][r] += req[r] * count;
  }
}

Status Placement::Remove(int machine, int service, int count) {
  auto it = by_machine_[machine].find(service);
  const int present = it == by_machine_[machine].end() ? 0 : it->second;
  if (present < count) {
    return FailedPreconditionError(StrFormat(
        "cannot remove %d containers of service %d from machine %d: only %d "
        "present",
        count, service, machine, present));
  }
  it->second -= count;
  if (it->second == 0) by_machine_[machine].erase(it);
  auto sit = by_service_[service].find(machine);
  sit->second -= count;
  if (sit->second == 0) by_service_[service].erase(sit);
  total_of_service_[service] -= count;
  containers_on_machine_[machine] -= count;
  const std::vector<double>& req = cluster_->service(service).request;
  for (int r = 0; r < cluster_->num_resources(); ++r) {
    used_[machine][r] -= req[r] * count;
  }
  return Status::OK();
}

bool Placement::CanPlace(int machine, int service, int count) const {
  if (!cluster_->CanHost(machine, service)) return false;
  const std::vector<double>& req = cluster_->service(service).request;
  for (int r = 0; r < cluster_->num_resources(); ++r) {
    if (used_[machine][r] + req[r] * count >
        cluster_->machine(machine).capacity[r] + kCapacityTolerance) {
      return false;
    }
  }
  for (int k : cluster_->RulesOfService(service)) {
    const AntiAffinityRule& rule = cluster_->anti_affinity()[k];
    if (RuleCount(machine, k) + count > rule.max_per_machine) return false;
  }
  return true;
}

int Placement::RuleCount(int machine, int rule) const {
  const AntiAffinityRule& r = cluster_->anti_affinity()[rule];
  int count = 0;
  for (int s : r.services) count += CountOn(machine, s);
  return count;
}

Status Placement::CheckMachineFeasible(int m) const {
  for (int r = 0; r < cluster_->num_resources(); ++r) {
    if (used_[m][r] > cluster_->machine(m).capacity[r] + kCapacityTolerance) {
      return FailedPreconditionError(StrFormat(
          "machine %d over capacity on resource %d: %g > %g", m, r,
          used_[m][r], cluster_->machine(m).capacity[r]));
    }
  }
  for (const auto& [s, count] : by_machine_[m]) {
    if (count > 0 && !cluster_->CanHost(m, s)) {
      return FailedPreconditionError(
          StrFormat("machine %d cannot host service %d", m, s));
    }
  }
  // Only rules with a member on the machine can be violated (limits are
  // non-negative); ascending ids name the violation a full scan would.
  std::vector<int> rules;
  for (const auto& [s, count] : by_machine_[m]) {
    const std::vector<int>& of_service = cluster_->RulesOfService(s);
    rules.insert(rules.end(), of_service.begin(), of_service.end());
  }
  std::sort(rules.begin(), rules.end());
  rules.erase(std::unique(rules.begin(), rules.end()), rules.end());
  for (int k : rules) {
    const AntiAffinityRule& rule = cluster_->anti_affinity()[k];
    if (RuleCount(m, k) > rule.max_per_machine) {
      return FailedPreconditionError(StrFormat(
          "machine %d violates anti-affinity rule %d (%d > %d)", m, k,
          RuleCount(m, k), rule.max_per_machine));
    }
  }
  return Status::OK();
}

Status Placement::CheckFeasible(bool check_sla) const {
  for (int m = 0; m < cluster_->num_machines(); ++m) {
    RASA_RETURN_IF_ERROR(CheckMachineFeasible(m));
  }
  if (check_sla) {
    for (int s = 0; s < cluster_->num_services(); ++s) {
      if (total_of_service_[s] != cluster_->service(s).demand) {
        return FailedPreconditionError(StrFormat(
            "service %d deploys %d containers, SLA demands %d", s,
            total_of_service_[s], cluster_->service(s).demand));
      }
    }
  }
  return Status::OK();
}

int Placement::DiffCount(const Placement& other) const {
  int moved = 0;
  for (int s = 0; s < cluster_->num_services(); ++s) {
    // Sum of positive (this - other) differences per machine.
    const auto& mine = by_service_[s];
    const auto& theirs = other.by_service_[s];
    for (const auto& [m, count] : mine) {
      auto it = theirs.find(m);
      const int other_count = it == theirs.end() ? 0 : it->second;
      if (count > other_count) moved += count - other_count;
    }
  }
  return moved;
}

Placement Placement::ReboundTo(const Cluster& cluster) const {
  Placement out(cluster);
  const int machines =
      std::min(cluster.num_machines(), static_cast<int>(by_machine_.size()));
  for (int m = 0; m < machines; ++m) {
    for (const auto& [s, count] : by_machine_[m]) {
      if (s < cluster.num_services()) out.Add(m, s, count);
    }
  }
  return out;
}

}  // namespace rasa
