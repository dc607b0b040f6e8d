#include "core/delta.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace rasa {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void HashU64(uint64_t& h, uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
}

void HashInt(uint64_t& h, int v) {
  HashU64(h, static_cast<uint64_t>(static_cast<int64_t>(v)));
}

void HashDouble(uint64_t& h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(h, bits);
}

// Services that belong to some cached subproblem; everything else is
// trivial and charges the machines it currently sits on.
std::vector<char> CrucialServices(const Cluster& cluster,
                                  const IncrementalState& state) {
  std::vector<char> crucial(cluster.num_services(), 0);
  for (const SubproblemCache& cache : state.subproblems) {
    for (int s : cache.subproblem.services) crucial[s] = 1;
  }
  return crucial;
}

// Residual capacity of each of `machines` after the trivial containers of
// `placement`, in SubproblemCache::residuals layout.
std::vector<double> TrivialResiduals(const Cluster& cluster,
                                     const Placement& placement,
                                     const std::vector<char>& crucial,
                                     const std::vector<int>& machines) {
  const int num_resources = cluster.num_resources();
  std::vector<double> residuals(machines.size() * num_resources, 0.0);
  for (size_t j = 0; j < machines.size(); ++j) {
    const Machine& machine = cluster.machine(machines[j]);
    std::vector<double> used(num_resources, 0.0);
    for (const auto& [s, count] : placement.ServicesOn(machines[j])) {
      if (crucial[s]) continue;
      const Service& svc = cluster.service(s);
      for (int r = 0; r < num_resources; ++r) {
        used[r] += count * svc.request[r];
      }
    }
    for (int r = 0; r < num_resources; ++r) {
      residuals[j * num_resources + r] = machine.capacity[r] - used[r];
    }
  }
  return residuals;
}

}  // namespace

uint64_t ClusterStructureSignature(const Cluster& cluster) {
  uint64_t h = kFnvOffset;
  HashInt(h, cluster.num_services());
  HashInt(h, cluster.num_machines());
  HashInt(h, cluster.num_resources());
  for (const Service& s : cluster.services()) {
    HashInt(h, s.demand);
    HashInt(h, s.platform);
    for (double r : s.request) HashDouble(h, r);
  }
  for (const Machine& m : cluster.machines()) {
    HashInt(h, m.spec_id);
    HashInt(h, m.platform);
    for (double c : m.capacity) HashDouble(h, c);
  }
  for (const AntiAffinityRule& rule : cluster.anti_affinity()) {
    HashInt(h, rule.max_per_machine);
    HashInt(h, static_cast<int>(rule.services.size()));
    for (int s : rule.services) HashInt(h, s);
  }
  return h;
}

SnapshotDelta DiffSnapshot(const Cluster& cluster, const Placement& current,
                           const IncrementalState& state,
                           const DeltaOptions& options) {
  SnapshotDelta delta;
  if (!state.valid || state.num_services != cluster.num_services() ||
      state.num_machines != cluster.num_machines() ||
      state.num_resources != cluster.num_resources() ||
      state.structure_signature != ClusterStructureSignature(cluster)) {
    delta.full_resolve = true;
    delta.reason = state.valid ? "structure" : "cold-start";
    return delta;
  }

  const int n = static_cast<int>(state.subproblems.size());
  const int num_resources = cluster.num_resources();
  delta.dirty.assign(n, 0);
  delta.residual_increased.assign(n, 0);
  delta.weight_ratio.assign(n, 1.0);
  delta.rebuilt.resize(n);
  const std::vector<char> crucial = CrucialServices(cluster, state);

  double total_internal = 0.0;
  double dirty_internal = 0.0;
  for (int i = 0; i < n; ++i) {
    const SubproblemCache& cache = state.subproblems[i];
    Subproblem& fresh = delta.rebuilt[i];
    fresh.services = cache.subproblem.services;
    fresh.machines = cache.subproblem.machines;
    PopulateSubproblemEdges(cluster, fresh);
    total_internal += fresh.internal_affinity;

    bool dirty = false;
    if (fresh.edges.size() != cache.subproblem.edges.size()) {
      dirty = true;
    } else {
      for (size_t e = 0; e < fresh.edges.size(); ++e) {
        const AffinityEdge& now = fresh.edges[e];
        const AffinityEdge& then = cache.subproblem.edges[e];
        if (now.u != then.u || now.v != then.v) {
          dirty = true;
          break;
        }
        // AddEdge guarantees positive weights, so the ratio is well-defined.
        const double ratio = now.weight / then.weight;
        if (std::fabs(ratio - 1.0) > options.weight_tolerance) dirty = true;
        if (ratio > delta.weight_ratio[i]) delta.weight_ratio[i] = ratio;
      }
    }

    // A residual that moved more than the tolerated fraction of capacity
    // re-solves the partition; a residual that merely *grew* (cordoned-off
    // noise, a trivial container leaving) only disqualifies the cached
    // bound from certificate reuse.
    const std::vector<double> residuals =
        TrivialResiduals(cluster, current, crucial, fresh.machines);
    const bool known = cache.residuals.size() == residuals.size();
    if (!known) dirty = true;
    for (size_t k = 0; known && k < residuals.size(); ++k) {
      const double capacity =
          cluster.machine(fresh.machines[k / num_resources])
              .capacity[k % num_resources];
      const double slack =
          kResidualTolerance * std::max(capacity, 1e-12);
      if (std::fabs(residuals[k] - cache.residuals[k]) > slack) dirty = true;
      if (residuals[k] > cache.residuals[k] + 1e-12) {
        delta.residual_increased[i] = 1;
      }
    }

    if (dirty) {
      delta.dirty[i] = 1;
      ++delta.num_dirty;
      dirty_internal += fresh.internal_affinity;
    }
  }

  delta.dirty_affinity_fraction =
      total_internal > 0.0 ? dirty_internal / total_internal
                           : (delta.num_dirty > 0 ? 1.0 : 0.0);
  if (delta.dirty_affinity_fraction >= kFullResolveFraction) {
    delta.full_resolve = true;
    delta.reason = "drift-threshold";
  }
  return delta;
}

void RebaseIncrementalState(const Cluster& cluster, const Placement& live,
                            IncrementalState* state) {
  if (!state->valid || state->num_services != cluster.num_services() ||
      state->num_machines != cluster.num_machines() ||
      state->num_resources != cluster.num_resources()) {
    return;
  }
  const std::vector<char> crucial = CrucialServices(cluster, *state);
  for (SubproblemCache& cache : state->subproblems) {
    std::vector<double> fresh = TrivialResiduals(cluster, live, crucial,
                                                 cache.subproblem.machines);
    // The solve's bound assumed at most `residuals[k]` of headroom; more
    // room means a re-solve could beat the bound, so it no longer certifies
    // a reused term.
    bool grew = cache.residuals.size() != fresh.size();
    for (size_t k = 0; !grew && k < fresh.size(); ++k) {
      grew = fresh[k] > cache.residuals[k] + 1e-12;
    }
    if (grew) cache.tightened = false;
    cache.residuals = std::move(fresh);
  }
}

void EncodeIncrementalState(std::ostream& os, const IncrementalState& state) {
  std::ostringstream body;
  body.precision(17);
  body << "incstate-v1 " << (state.valid ? 1 : 0) << ' '
       << state.structure_signature << ' ' << state.num_services << ' '
       << state.num_machines << ' ' << state.num_resources << ' '
       << state.master_ratio << ' ' << state.master_affinity << ' '
       << state.subproblems.size();
  for (const SubproblemCache& cache : state.subproblems) {
    const Subproblem& sp = cache.subproblem;
    body << " sp " << sp.services.size();
    for (int s : sp.services) body << ' ' << s;
    body << ' ' << sp.machines.size();
    for (int m : sp.machines) body << ' ' << m;
    body << ' ' << sp.internal_affinity << ' ' << sp.edges.size();
    for (const AffinityEdge& e : sp.edges) {
      body << ' ' << e.u << ' ' << e.v << ' ' << e.weight;
    }
    body << ' ' << cache.assignments.size();
    for (const SubproblemSolution::Assignment& a : cache.assignments) {
      body << ' ' << a.service << ' ' << a.machine << ' ' << a.count;
    }
    body << ' ' << cache.unplaced << ' ' << cache.realized << ' '
         << cache.bound << ' ' << (cache.tightened ? 1 : 0) << ' '
         << cache.bound_source << ' ' << cache.algorithm << ' '
         << (cache.used_secondary ? 1 : 0) << ' '
         << (cache.fell_to_greedy ? 1 : 0) << ' ' << cache.ladder_rung << ' '
         << cache.residuals.size();
    for (double r : cache.residuals) body << ' ' << r;
  }
  os << body.str();
}

StatusOr<IncrementalState> DecodeIncrementalState(std::istream& is) {
  std::string magic;
  if (!(is >> magic) || magic != "incstate-v1") {
    return InvalidArgumentError("bad incremental state header");
  }
  IncrementalState state;
  int valid = 0;
  size_t num_sp = 0;
  if (!(is >> valid >> state.structure_signature >> state.num_services >>
        state.num_machines >> state.num_resources >> state.master_ratio >>
        state.master_affinity >> num_sp)) {
    return InvalidArgumentError("truncated incremental state header");
  }
  state.valid = valid != 0;
  if (state.num_services < 0 || state.num_machines < 0 ||
      state.num_resources < 0 ||
      num_sp > static_cast<size_t>(state.num_services) + 1) {
    return InvalidArgumentError("incremental state header invalid");
  }
  // Every id indexes a per-service or per-machine array downstream.
  auto is_service = [&](int s) { return s >= 0 && s < state.num_services; };
  auto is_machine = [&](int m) { return m >= 0 && m < state.num_machines; };
  state.subproblems.resize(num_sp);
  for (SubproblemCache& cache : state.subproblems) {
    std::string tag;
    if (!(is >> tag) || tag != "sp") {
      return InvalidArgumentError("bad incremental state subproblem tag");
    }
    Subproblem& sp = cache.subproblem;
    size_t count = 0;
    if (!(is >> count) || count > static_cast<size_t>(state.num_services)) {
      return InvalidArgumentError("bad incremental state service count");
    }
    sp.services.resize(count);
    for (int& s : sp.services) {
      if (!(is >> s)) return InvalidArgumentError("truncated services");
      if (!is_service(s)) return InvalidArgumentError("service id out of range");
    }
    if (!(is >> count) || count > static_cast<size_t>(state.num_machines)) {
      return InvalidArgumentError("bad incremental state machine count");
    }
    sp.machines.resize(count);
    for (int& m : sp.machines) {
      if (!(is >> m)) return InvalidArgumentError("truncated machines");
      if (!is_machine(m)) return InvalidArgumentError("machine id out of range");
    }
    if (!(is >> sp.internal_affinity >> count)) {
      return InvalidArgumentError("truncated subproblem affinity");
    }
    if (count > sp.services.size() * sp.services.size()) {
      return InvalidArgumentError("bad incremental state edge count");
    }
    sp.edges.resize(count);
    for (AffinityEdge& e : sp.edges) {
      if (!(is >> e.u >> e.v >> e.weight)) {
        return InvalidArgumentError("truncated edges");
      }
      if (!is_service(e.u) || !is_service(e.v)) {
        return InvalidArgumentError("edge endpoint out of range");
      }
    }
    if (!(is >> count) ||
        count > sp.services.size() * (sp.machines.size() + 1)) {
      return InvalidArgumentError("bad incremental state assignment count");
    }
    cache.assignments.resize(count);
    for (SubproblemSolution::Assignment& a : cache.assignments) {
      if (!(is >> a.service >> a.machine >> a.count)) {
        return InvalidArgumentError("truncated assignments");
      }
      if (!is_service(a.service) || !is_machine(a.machine) || a.count < 0) {
        return InvalidArgumentError("assignment out of range");
      }
    }
    int tightened = 0, used_secondary = 0, fell = 0;
    if (!(is >> cache.unplaced >> cache.realized >> cache.bound >>
          tightened >> cache.bound_source >> cache.algorithm >>
          used_secondary >> fell >> cache.ladder_rung >> count)) {
      return InvalidArgumentError("truncated subproblem outcome");
    }
    if (cache.algorithm < 0 || cache.algorithm > 1 || cache.ladder_rung < 0 ||
        cache.ladder_rung > 2) {
      return InvalidArgumentError("bad incremental state ladder outcome");
    }
    cache.tightened = tightened != 0;
    cache.used_secondary = used_secondary != 0;
    cache.fell_to_greedy = fell != 0;
    const size_t expect =
        sp.machines.size() * static_cast<size_t>(state.num_resources);
    if (count != expect) {
      return InvalidArgumentError("bad incremental state residual count");
    }
    cache.residuals.resize(count);
    for (double& r : cache.residuals) {
      if (!(is >> r)) return InvalidArgumentError("truncated residuals");
    }
  }
  return state;
}

std::string EncodeIncrementalStateString(const IncrementalState& state) {
  std::ostringstream os;
  EncodeIncrementalState(os, state);
  return os.str();
}

StatusOr<IncrementalState> DecodeIncrementalStateString(
    const std::string& text) {
  std::istringstream is(text);
  return DecodeIncrementalState(is);
}

}  // namespace rasa
