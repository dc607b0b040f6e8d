#include "core/explain.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/metrics.h"
#include "common/strings.h"
#include "core/objective.h"

namespace rasa {
namespace {

void AppendAttemptJson(JsonWriter& w, const SolveAttempt& attempt,
                       bool include_timings) {
  w.BeginObject();
  w.Key("algorithm").Value(PoolAlgorithmToString(attempt.algorithm));
  w.Key("outcome").Value(AttemptOutcomeToString(attempt.outcome));
  if (include_timings) w.Key("seconds").Value(attempt.seconds);
  if (attempt.has_cg) {
    w.Key("cg").BeginObject();
    w.Key("rounds").Value(attempt.cg.rounds);
    w.Key("patterns_generated").Value(attempt.cg.patterns_generated);
    w.Key("master_solves").Value(attempt.cg.master_solves);
    w.Key("hit_deadline").Value(attempt.cg.hit_deadline);
    w.Key("lp_iterations").Value(attempt.cg.lp_iterations);
    w.Key("lp_phase1_iterations").Value(attempt.cg.lp_phase1_iterations);
    w.Key("master_warm_started").Value(attempt.cg.master_warm_started);
    w.Key("refactorizations").Value(attempt.cg.refactorizations);
    w.Key("max_eta_length").Value(attempt.cg.max_eta_length);
    w.Key("has_lp_bound").Value(attempt.cg.has_lp_bound);
    if (attempt.cg.has_lp_bound) {
      w.Key("lp_objective").Value(attempt.cg.lp_objective);
    }
    w.EndObject();
  }
  if (attempt.has_mip) {
    w.Key("mip").BeginObject();
    w.Key("solved").Value(attempt.mip.solved);
    w.Key("status").Value(MipStatusToString(attempt.mip.status));
    w.Key("objective").Value(attempt.mip.objective);
    w.Key("best_bound").Value(attempt.mip.best_bound);
    w.Key("bound_proven").Value(attempt.mip.bound_proven);
    w.Key("relative_gap").Value(attempt.mip.relative_gap);
    w.Key("nodes").Value(attempt.mip.nodes);
    // Only a branch-and-bound that ran has a stop cause.
    if (attempt.mip.solved) {
      w.Key("stop").Value(MipStopToString(attempt.mip.stop));
    }
    w.Key("lp_iterations").Value(attempt.mip.lp_iterations);
    w.Key("warm_started_nodes").Value(attempt.mip.warm_started_nodes);
    w.Key("max_node_pivots").Value(attempt.mip.max_node_pivots);
    w.Key("refactorizations").Value(attempt.mip.refactorizations);
    w.Key("max_eta_length").Value(attempt.mip.max_eta_length);
    if (attempt.mip.has_root_lp) {
      w.Key("root_lp_objective").Value(attempt.mip.root_lp_objective);
    }
    w.EndObject();
  }
  w.EndObject();
}

void AppendRecordJson(JsonWriter& w, const LedgerRecord& r,
                      bool include_timings) {
  w.BeginObject();
  w.Key("subproblem").Value(r.subproblem);
  w.Key("position").Value(r.position);
  w.Key("num_services").Value(r.num_services);
  w.Key("num_machines").Value(r.num_machines);
  w.Key("internal_affinity").Value(r.internal_affinity);
  w.Key("selector_policy").Value(SelectorPolicyToString(r.selector_policy));
  w.Key("selected").Value(PoolAlgorithmToString(r.selected));
  w.Key("ladder_rung").Value(r.ladder_rung);
  w.Key("used_secondary").Value(r.used_secondary);
  w.Key("fell_to_greedy").Value(r.fell_to_greedy);
  w.Key("reused").Value(r.reused);
  if (include_timings) {
    w.Key("budget_seconds").Value(r.budget_seconds);
    w.Key("seconds").Value(r.seconds);
  }
  w.Key("realized_affinity").Value(r.realized_affinity);
  w.Key("unplaced_containers").Value(r.unplaced_containers);
  w.Key("certificate_bound").Value(r.certificate_bound);
  w.Key("bound_tightened").Value(r.bound_tightened);
  w.Key("primary");
  AppendAttemptJson(w, r.primary, include_timings);
  if (r.secondary.outcome != AttemptOutcome::kNotRun) {
    w.Key("secondary");
    AppendAttemptJson(w, r.secondary, include_timings);
  }
  w.EndObject();
}

std::string FormatAttemptBrief(const SolveAttempt& a) {
  std::string out = StrFormat("%s %s", PoolAlgorithmToString(a.algorithm),
                              AttemptOutcomeToString(a.outcome));
  if (a.has_cg) {
    out += StrFormat(" (rounds=%d patterns=%d lp_it=%d", a.cg.rounds,
                     a.cg.patterns_generated, a.cg.lp_iterations);
    if (a.cg.master_warm_started > 0) {
      out += StrFormat(" warm=%d/%d", a.cg.master_warm_started,
                       a.cg.master_solves);
    }
    if (a.cg.has_lp_bound) out += StrFormat(" lp_bound=%.6f", a.cg.lp_objective);
    out += ")";
  }
  if (a.has_mip) {
    // Only a proven bound makes a gap: a POP split or a row-cap failure
    // has none, and its zero relative_gap would read as a proven optimum.
    out += StrFormat(" (%s nodes=%d", MipStatusToString(a.mip.status),
                     a.mip.nodes);
    out += a.mip.bound_proven
               ? StrFormat(" gap=%.2g proven", a.mip.relative_gap)
               : std::string(" no bound");
    if (a.mip.stop != MipStop::kNone) {
      out += StrFormat(" stop=%s", MipStopToString(a.mip.stop));
    }
    if (a.mip.warm_started_nodes > 0) {
      out += StrFormat(" warm=%d/%d", a.mip.warm_started_nodes, a.mip.nodes);
    }
    out += ")";
  }
  return out;
}

}  // namespace

double QualityCertificate::Gap() const {
  const double reference = std::max(bound, 1e-12);
  return std::max(0.0, bound - achieved) / reference;
}

double QualityCertificate::Ratio() const {
  if (bound <= 1e-12) return 1.0;
  return std::min(1.0, achieved / bound);
}

PlacementChange WalkPlacements(const Placement& before,
                               const Placement& after) {
  const int num_services = after.cluster()->num_services();
  PlacementChange change;
  change.changed.assign(num_services, 0);
  change.moved.assign(num_services, 0);
  for (int s = 0; s < num_services; ++s) {
    // Both maps ascend by machine: one merge pass sums what `after` gained
    // and what it lost on each machine. Counts are positive, so the maps
    // differ exactly when either sum is.
    const std::map<int, int>& was = before.MachinesOf(s);
    const std::map<int, int>& now = after.MachinesOf(s);
    auto b = was.begin();
    auto a = now.begin();
    int gained = 0;
    int lost = 0;
    while (a != now.end() || b != was.end()) {
      if (b == was.end() || (a != now.end() && a->first < b->first)) {
        gained += (a++)->second;
      } else if (a == now.end() || b->first < a->first) {
        lost += (b++)->second;
      } else {
        const int delta = (a++)->second - (b++)->second;
        if (delta > 0) gained += delta;
        if (delta < 0) lost -= delta;
      }
    }
    change.changed[s] = gained + lost > 0;
    change.moved[s] = gained;
    change.moved_containers += gained;
  }
  return change;
}

PlacementDiffAudit BuildPlacementDiff(const Cluster& cluster,
                                      const Placement& before,
                                      const Placement& after, int top_k) {
  const PlacementChange change = WalkPlacements(before, after);
  const std::vector<double> before_ratios =
      EdgeLocalizationRatios(cluster, before);
  const std::vector<double> after_ratios =
      RescoreEdgeRatios(cluster, after, change.changed, before_ratios);
  return BuildPlacementDiff(cluster, change, before_ratios, after_ratios,
                            top_k);
}

PlacementDiffAudit BuildPlacementDiff(const Cluster& cluster,
                                      const PlacementChange& change,
                                      const std::vector<double>& before_ratios,
                                      const std::vector<double>& after_ratios,
                                      int top_k) {
  PlacementDiffAudit audit;
  audit.moved_containers = change.moved_containers;

  std::vector<PlacementDiffAudit::ServiceMove> moves;
  for (int s = 0; s < cluster.num_services(); ++s) {
    if (change.moved[s] > 0) moves.push_back({s, "", change.moved[s]});
  }
  std::sort(moves.begin(), moves.end(), [](const auto& a, const auto& b) {
    return a.moved_containers != b.moved_containers
               ? a.moved_containers > b.moved_containers
               : a.service < b.service;
  });
  if (static_cast<int>(moves.size()) > top_k) moves.resize(top_k);
  for (auto& move : moves) move.name = cluster.service(move.service).name;
  audit.top_moved = std::move(moves);

  std::vector<PlacementDiffAudit::PairLocalization> pairs;
  const std::vector<AffinityEdge>& edges = cluster.affinity().edges();
  for (size_t e = 0; e < edges.size(); ++e) {
    const AffinityEdge& edge = edges[e];
    if (!change.changed[edge.u] && !change.changed[edge.v]) continue;
    PlacementDiffAudit::PairLocalization p;
    p.u = edge.u;
    p.v = edge.v;
    p.weight = edge.weight;
    p.ratio_before = before_ratios[e];
    p.ratio_after = after_ratios[e];
    p.delta_affinity = edge.weight * (p.ratio_after - p.ratio_before);
    if (std::abs(p.delta_affinity) <= 1e-12) continue;
    pairs.push_back(std::move(p));
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    if (a.delta_affinity != b.delta_affinity) {
      return a.delta_affinity > b.delta_affinity;
    }
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  if (static_cast<int>(pairs.size()) > top_k) pairs.resize(top_k);
  for (auto& pair : pairs) {
    pair.name_u = cluster.service(pair.u).name;
    pair.name_v = cluster.service(pair.v).name;
  }
  audit.top_localized = std::move(pairs);
  return audit;
}

void AppendExplainJson(JsonWriter& w, const ExplainReport& report,
                       bool include_timings) {
  w.BeginObject();
  w.Key("populated").Value(report.populated);

  w.Key("certificate").BeginObject();
  {
    const QualityCertificate& c = report.certificate;
    w.Key("achieved").Value(c.achieved);
    w.Key("external_affinity").Value(c.external_affinity);
    w.Key("sum_internal_affinity").Value(c.sum_internal_affinity);
    w.Key("bound").Value(c.bound);
    w.Key("gap").Value(c.Gap());
    w.Key("ratio").Value(c.Ratio());
    w.Key("tightened_terms").Value(c.tightened_terms);
    w.Key("terms").BeginArray();
    for (const LedgerRecord& r : report.records) {
      w.BeginObject();
      w.Key("subproblem").Value(r.subproblem);
      w.Key("internal_affinity").Value(r.internal_affinity);
      w.Key("bound").Value(r.certificate_bound);
      w.Key("tightened").Value(r.bound_tightened);
      w.Key("source").Value(r.bound_source);
      w.Key("realized").Value(r.realized_affinity);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  w.Key("waterfall").BeginObject();
  {
    const AttributionWaterfall& wf = report.waterfall;
    w.Key("base_retained").Value(wf.base_retained);
    w.Key("solver_gain").Value(wf.solver_gain);
    w.Key("fallback_delta").Value(wf.fallback_delta);
    w.Key("total").Value(wf.total);
    w.Key("partition_cut_affinity").Value(wf.partition_cut_affinity);
    w.Key("original_gained_affinity").Value(wf.original_gained_affinity);
  }
  w.EndObject();

  w.Key("diff").BeginObject();
  {
    const PlacementDiffAudit& d = report.diff;
    w.Key("moved_containers").Value(d.moved_containers);
    w.Key("top_moved").BeginArray();
    for (const auto& m : d.top_moved) {
      w.BeginObject();
      w.Key("service").Value(m.service);
      w.Key("name").Value(m.name);
      w.Key("moved_containers").Value(m.moved_containers);
      w.EndObject();
    }
    w.EndArray();
    w.Key("top_localized").BeginArray();
    for (const auto& p : d.top_localized) {
      w.BeginObject();
      w.Key("u").Value(p.u);
      w.Key("v").Value(p.v);
      w.Key("name_u").Value(p.name_u);
      w.Key("name_v").Value(p.name_v);
      w.Key("weight").Value(p.weight);
      w.Key("ratio_before").Value(p.ratio_before);
      w.Key("ratio_after").Value(p.ratio_after);
      w.Key("delta_affinity").Value(p.delta_affinity);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  w.Key("records").BeginArray();
  for (const LedgerRecord& r : report.records) {
    AppendRecordJson(w, r, include_timings);
  }
  w.EndArray();

  w.EndObject();
}

std::string FormatExplainReport(const ExplainReport& report) {
  std::string out;
  if (!report.populated) return "explain report: not populated\n";

  const QualityCertificate& c = report.certificate;
  out += "== Quality certificate ==\n";
  out += StrFormat("  achieved                %.6f\n", c.achieved);
  out += StrFormat("  upper bound             %.6f\n", c.bound);
  out += StrFormat("  optimality gap          %.2f%%  (ratio %.4f)\n",
                   100.0 * c.Gap(), c.Ratio());
  out += StrFormat(
      "  bound terms: external %.6f + subproblems %.6f (%d of %d tightened)\n",
      c.external_affinity, c.bound - c.external_affinity, c.tightened_terms,
      static_cast<int>(report.records.size()));

  const AttributionWaterfall& wf = report.waterfall;
  out += "== Attribution waterfall ==\n";
  out += StrFormat("  original gained affinity  %.6f\n",
                   wf.original_gained_affinity);
  out += StrFormat("  base retained (trivial)  +%.6f\n", wf.base_retained);
  out += StrFormat("  solver gain              %+.6f\n", wf.solver_gain);
  out += StrFormat("  fallback delta           %+.6f\n", wf.fallback_delta);
  out += StrFormat("  = final gained affinity   %.6f\n", wf.total);
  out += StrFormat("  (partition cut affinity   %.6f, not solvable at this"
                   " partition)\n",
                   wf.partition_cut_affinity);

  out += "== Per-subproblem solves ==\n";
  // Filled by hand rather than via Histogram::Observe so the report does
  // not depend on the global metrics switch.
  Histogram::Snapshot hs;
  for (const LedgerRecord& r : report.records) {
    if (!r.reused) {
      ++hs.buckets[static_cast<size_t>(Histogram::BucketIndex(r.seconds))];
      ++hs.count;
      hs.sum += r.seconds;
      hs.min = std::min(hs.min, r.seconds);
      hs.max = std::max(hs.max, r.seconds);
    }
    out += StrFormat("  #%d (pos %d, %d svc x %d mach, affinity %.6f): ",
                     r.subproblem, r.position, r.num_services, r.num_machines,
                     r.internal_affinity);
    out += StrFormat("%s via %s -> rung %d, realized %.6f, bound %.6f%s\n",
                     PoolAlgorithmToString(r.selected),
                     SelectorPolicyToString(r.selector_policy), r.ladder_rung,
                     r.realized_affinity, r.certificate_bound,
                     r.bound_tightened ? " (tightened)" : "");
    out += "      primary:   " + FormatAttemptBrief(r.primary) + "\n";
    if (r.secondary.outcome != AttemptOutcome::kNotRun) {
      out += "      secondary: " + FormatAttemptBrief(r.secondary) + "\n";
    }
  }
  if (hs.count > 0) {
    out += StrFormat(
        "  solve seconds: p50 %.4f  p95 %.4f  p99 %.4f  max %.4f (n=%llu)\n",
        hs.Quantile(0.5), hs.Quantile(0.95), hs.Quantile(0.99), hs.max,
        static_cast<unsigned long long>(hs.count));
  }

  const PlacementDiffAudit& d = report.diff;
  out += StrFormat("== Placement diff ==\n  moved containers: %d\n",
                   d.moved_containers);
  for (const auto& m : d.top_moved) {
    out += StrFormat("  moved %4d  %s\n", m.moved_containers, m.name.c_str());
  }
  out += "  most localized pairs:\n";
  for (const auto& p : d.top_localized) {
    out += StrFormat("    %s <-> %s: weight %.6f, localized %.3f -> %.3f"
                     " (+%.6f affinity)\n",
                     p.name_u.c_str(), p.name_v.c_str(), p.weight,
                     p.ratio_before, p.ratio_after, p.delta_affinity);
  }
  return out;
}

}  // namespace rasa
