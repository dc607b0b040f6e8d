#ifndef RASA_CLUSTER_PLACEMENT_H_
#define RASA_CLUSTER_PLACEMENT_H_

#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"

namespace rasa {

/// Absolute slack allowed on machine resource capacities, shared by the
/// admission check (CanPlace) and the audit (CheckFeasible). A single
/// constant keeps the two consistent: anything CanPlace admits must pass
/// the audit, and the audit must reject anything CanPlace would refuse —
/// a looser audit tolerance would mask real over-commitment, a tighter one
/// would flag placements the admission path built legitimately.
inline constexpr double kCapacityTolerance = 1e-9;

/// The decision matrix x_{s,m}: how many containers of each service sit on
/// each machine. Kept sparse (most services touch few machines) with
/// deterministic iteration order, plus incremental resource accounting.
class Placement {
 public:
  Placement() = default;
  explicit Placement(const Cluster& cluster);

  /// x_{s,m}.
  int CountOn(int machine, int service) const;
  /// Total deployed containers of `service` across machines.
  int TotalOf(int service) const { return total_of_service_[service]; }
  /// Total containers on `machine`.
  int ContainersOn(int machine) const { return containers_on_machine_[machine]; }

  /// Services present on `machine` with positive count, ordered by id.
  const std::map<int, int>& ServicesOn(int machine) const {
    return by_machine_[machine];
  }
  /// Machines hosting `service` with positive count, ordered by id.
  const std::map<int, int>& MachinesOf(int service) const {
    return by_service_[service];
  }

  /// Used amount of resource `r` on `machine`.
  double UsedResource(int machine, int r) const { return used_[machine][r]; }
  /// Remaining capacity of resource `r` on `machine`.
  double FreeResource(int machine, int r) const;

  /// Adds `count` containers of `service` to `machine` without checking
  /// constraints (callers needing checks use CanPlace first).
  void Add(int machine, int service, int count = 1);
  /// Removes `count` containers; returns an error if fewer are present.
  Status Remove(int machine, int service, int count = 1);

  /// True if adding `count` containers of `service` keeps resources,
  /// anti-affinity and schedulability satisfied on `machine`.
  bool CanPlace(int machine, int service, int count = 1) const;

  /// Count of containers on `machine` covered by anti-affinity rule `k`.
  int RuleCount(int machine, int rule) const;

  /// Full feasibility audit (resources, anti-affinity, schedulability).
  /// With `check_sla`, also verifies TotalOf(s) == demand for all services.
  Status CheckFeasible(bool check_sla = true) const;
  /// CheckFeasible's audit of one machine: its resources, the services it
  /// hosts, and the anti-affinity rules of those services in ascending rule
  /// id. Requires a cluster that passes Cluster::Validate: with no negative
  /// limit, a rule with no member on the machine cannot be violated, so the
  /// first violation named is the one a scan of every rule would name.
  Status CheckMachineFeasible(int machine) const;

  /// Number of containers whose (service, machine) assignment differs from
  /// `other` — the migration volume between two placements (counts moved
  /// containers once, i.e. sum of positive differences).
  int DiffCount(const Placement& other) const;
  /// DiffCount in both directions: 0 exactly when the placements are
  /// equal. DiffCount alone reads a placement that lost containers `other`
  /// has as equal to it.
  int SymmetricDiff(const Placement& other) const {
    return DiffCount(other) + other.DiffCount(*this);
  }

  /// These counts on a placement over `cluster`, a copy of this one's
  /// cluster possibly with other affinity weights. Machines and services
  /// `cluster` lacks are dropped.
  Placement ReboundTo(const Cluster& cluster) const;

  const Cluster* cluster() const { return cluster_; }

 private:
  const Cluster* cluster_ = nullptr;
  std::vector<std::map<int, int>> by_machine_;
  std::vector<std::map<int, int>> by_service_;
  std::vector<std::vector<double>> used_;
  std::vector<int> total_of_service_;
  std::vector<int> containers_on_machine_;
};

}  // namespace rasa

#endif  // RASA_CLUSTER_PLACEMENT_H_
