// The three workloads. Each is a closed loop: one caller, and each
// operation starts after the previous one returned. Operations run in whole
// rounds until their measured time reaches --seconds. In a traced run,
// rounds alternate between traced and untraced, so the run also measures
// what tracing costs.

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "cluster/generator.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/delta.h"
#include "core/migration.h"
#include "core/migration_executor.h"
#include "core/objective.h"
#include "core/rasa.h"
#include "core/solve_ledger.h"
#include "layers.h"
#include "sim/workflow.h"

namespace perfbench {
namespace {

using rasa::Cluster;
using rasa::ClusterSnapshot;
using rasa::ClusterSpec;
using rasa::Placement;
using rasa::RasaOptimizer;
using rasa::RasaOptions;
using rasa::RasaResult;
using rasa::StatusOr;
using rasa::Stopwatch;

constexpr double kMinAliveFraction = 0.75;

// One closed-loop operation as the run records it.
struct Op {
  double plan_s = 0.0;
  double cycle_s = 0.0;
  double gained = 0.0;
  double delivered = 0.0;
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// The k-th solver seed (RasaOptions::seed) of workload seed `seed`; it
// drives the solver RNG streams of one Optimize call or one episode.
uint64_t SolverSeed(uint64_t seed, int k) { return seed * 1000 + k + 1; }

// Generates and places `spec`, adding the GenerateCluster time to
// `totals`; the feasibility check of the result is not timed.
ClusterSnapshot Generate(const ClusterSpec& spec, LayerTotals* totals) {
  Stopwatch timer;
  StatusOr<ClusterSnapshot> snapshot = rasa::GenerateCluster(spec);
  totals->generate_s.push_back(timer.ElapsedSeconds());
  if (!snapshot.ok()) {
    Fatal("GenerateCluster(" + spec.name + ") failed: " +
          snapshot.status().ToString());
  }
  const rasa::Status feasible = snapshot->original_placement.CheckFeasible();
  if (!feasible.ok()) {
    Fatal("generated " + spec.name + " (seed " + std::to_string(spec.seed) +
          ") starts infeasible: " + feasible.ToString());
  }
  return std::move(snapshot).value();
}

Placement Rebind(const Cluster& cluster, const Placement& placement) {
  Placement out(cluster);
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& [s, count] : placement.ServicesOn(m)) out.Add(m, s, count);
  }
  return out;
}

// One Optimize call, timed, with the program's spans when traced.
struct PlanStep {
  std::optional<StatusOr<RasaResult>> result;
  double plan_s = 0.0;
  std::vector<rasa::TraceEvent> program_spans;
};

PlanStep Plan(const RasaOptimizer& optimizer, const Cluster& cluster,
              const Placement& current, const rasa::OptimizeContext& ctx,
              bool traced) {
  PlanStep step;
  if (traced) StartProgramTrace();
  Stopwatch timer;
  step.result.emplace(optimizer.Optimize(cluster, current, ctx));
  step.plan_s = timer.ElapsedSeconds();
  if (traced) step.program_spans = StopProgramTrace();
  return step;
}

// The last plan ValidateMigrationPlan accepted for one input. Calls on the
// same input often return the same plan (always on fullscale, which keeps
// its solver seed), and on a factor-1 plan the validation takes about 30 s,
// four times the plan itself, so an identical plan is not validated again.
struct CheckedPlan {
  std::optional<Placement> target;
  rasa::MigrationPlan plan;
};

bool SameCommands(const rasa::MigrationPlan& a, const rasa::MigrationPlan& b) {
  if (a.stranded_deletes != b.stranded_deletes ||
      a.batches.size() != b.batches.size()) {
    return false;
  }
  for (size_t i = 0; i < a.batches.size(); ++i) {
    const std::vector<rasa::MigrationCommand>& x = a.batches[i];
    const std::vector<rasa::MigrationCommand>& y = b.batches[i];
    if (x.size() != y.size()) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x[j].type != y[j].type || x[j].service != y[j].service ||
          x[j].machine != y[j].machine) {
        return false;
      }
    }
  }
  return true;
}

rasa::Status ValidatePlan(const ClusterSnapshot& snap, const RasaResult& result,
                          CheckedPlan* checked) {
  const Placement& target = result.new_placement;
  if (checked->target.has_value() && checked->target->DiffCount(target) == 0 &&
      target.DiffCount(*checked->target) == 0 &&
      SameCommands(checked->plan, result.migration)) {
    return rasa::Status::OK();
  }
  const rasa::Status valid =
      rasa::ValidateMigrationPlan(*snap.cluster, snap.original_placement,
                                  target, result.migration, kMinAliveFraction);
  if (valid.ok()) {
    checked->target = target;
    checked->plan = result.migration;
  }
  return valid;
}

// Output checks of one plan; returns the first failure, empty when none.
std::string CheckPlan(const StatusOr<RasaResult>& result,
                      const rasa::Status& plan_valid) {
  if (!result.ok()) return "Optimize failed: " + result.status().ToString();
  if (result->lost_containers != 0) {
    return std::to_string(result->lost_containers) + " lost containers";
  }
  const rasa::Status feasible = result->new_placement.CheckFeasible();
  if (!feasible.ok()) return "infeasible placement: " + feasible.ToString();
  if (!plan_valid.ok()) {
    return "invalid migration plan: " + plan_valid.ToString();
  }
  return "";
}

// Tallies one finished operation: output-check failures make the run
// incorrect, deadline hits make its timings invalid; both count as failed.
void Tally(const std::string& check_failure, int deadline_hits,
           RunResult* run) {
  ++run->attempted;
  run->deadline_hits += deadline_hits;
  if (!check_failure.empty()) {
    run->correct = false;
    std::fprintf(stderr, "perfbench: operation %d failed a check: %s\n",
                 run->attempted, check_failure.c_str());
  } else if (deadline_hits > 0) {
    std::fprintf(stderr,
                 "perfbench: operation %d had %d subproblem solves run into "
                 "their budget; its timing is invalid\n",
                 run->attempted, deadline_hits);
  }
  if (!check_failure.empty() || deadline_hits > 0) ++run->failed;
}

// Runs operations in whole blocks of `block` until their measured time
// reaches `seconds`. Output checks run between operations and are not
// measured, so a wall-clock cap keeps a slow check from stretching the run.
template <typename RunOp>
std::vector<Op> ClosedLoop(int seconds, int block, RunOp&& run_op) {
  constexpr double kWallCapSeconds = 120.0;
  std::vector<Op> ops;
  double measured = 0.0;
  Stopwatch wall;
  for (int i = 0; i % block != 0 || (measured < seconds &&
                                     wall.ElapsedSeconds() < kWallCapSeconds);
       ++i) {
    ops.push_back(run_op(i));
    measured += ops.back().cycle_s;
  }
  return ops;
}

// Fills the run's metrics: per-layer when traced, end-to-end otherwise.
// A control-loop cycle is `cycle_ops` operations (cold: one Optimize call
// per input cluster; churn and fullscale: one). In a traced run, rounds of
// `round_ops` operations that repeat the same work alternate traced and
// untraced, and the traced rounds' extra time is the tracing overhead.
void Finish(const Args& args, const std::vector<Op>& ops, int cycle_ops,
            int round_ops, const std::vector<double>& setup_s,
            LayerTotals& totals, RunResult* run) {
  totals.rss_plan_mb = PeakRssMb() - totals.rss_generate_mb;
  totals.deadline_hits = run->deadline_hits;
  // Sums of operation time over whole groups of `size` operations.
  auto group_seconds = [&ops](int size) {
    std::vector<double> sums(ops.size() / size, 0.0);
    for (size_t i = 0; i < sums.size() * size; ++i) {
      sums[i / size] += ops[i].cycle_s;
    }
    return sums;
  };
  if (args.trace) {
    totals.overhead_share = OverheadShare(group_seconds(round_ops));
    run->metrics = LayerMetrics(totals);
    return;
  }

  const std::vector<double> cycle_s = group_seconds(cycle_ops);
  std::vector<double> plan_s, gained, delivered;
  for (const Op& op : ops) {
    plan_s.push_back(op.plan_s);
    gained.push_back(op.gained);
    delivered.push_back(op.delivered);
  }
  const double ok = run->attempted - run->failed;
  run->metrics = {
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"plan_s.p50", Quantile(plan_s, 0.5), "s"},
      {"plan_s.p90", Quantile(plan_s, 0.9), "s"},
      {"cycle_s.p50", Quantile(cycle_s, 0.5), "s"},
      {"cycle_s.p95", Quantile(cycle_s, 0.95), "s"},
      {"gained_affinity", Mean(gained), "share"},
      {"delivered_affinity", Mean(delivered), "share"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"ok_share", ok / std::max(1, run->attempted), "share"},
  };
}

// One plan-only operation (cold, fullscale): the cycle is the Optimize
// call alone, since nothing is executed; delivered affinity is that of the
// placement the validated plan reaches (the current one on a dry-run).
Op PlanOnlyOp(const RasaOptimizer& optimizer, const ClusterSnapshot& snap,
              CheckedPlan* checked, rasa::ThreadPool* pool, bool traced,
              LayerTotals* totals, RunResult* run) {
  const PlanStep step = Plan(optimizer, *snap.cluster, snap.original_placement,
                             rasa::OptimizeContext(pool), traced);
  Op op;
  op.plan_s = step.plan_s;
  op.cycle_s = step.plan_s;
  const StatusOr<RasaResult>& result = *step.result;
  rasa::Status plan_valid;
  int hits = 0;
  if (result.ok()) {
    if (result->should_execute) {
      plan_valid = ValidatePlan(snap, *result, checked);
    }
    op.gained = result->new_gained_affinity;
    op.delivered =
        result->should_execute
            ? result->new_gained_affinity
            : rasa::GainedAffinity(*snap.cluster, snap.original_placement);
    hits = DeadlineHits(*result);
    if (traced) {
      ++totals->ops;
      AddPlan(*result, step.program_spans, totals);
    }
  }
  Tally(CheckPlan(result, plan_valid), hits, run);
  // The flight recorder keeps every record of the process; drop them
  // between operations so memory does not grow with the run length.
  rasa::SolveLedger::Default().Reset();
  return op;
}

}  // namespace

// cold: cold Optimize calls with the migration path on, round-robin over
// fifteen clusters: the Table II shapes M1-M4 at 1/32 with pinned generator
// seeds, planned far inside their budget with nothing lost (README.md, "What
// the seed drives, and why so little"). A cycle plans every cluster once.
// Fifteen inputs put the median and the 90th percentile in the middle of
// one input's band of samples rather than between two. The workload seed
// drives the solver seeds, which are fresh for every call: the solver seed
// does not change these plans, but it changes how long CG takes to find
// them, so each run averages over many.
RunResult RunCold(const Args& args) {
  constexpr double kScale = 32.0;
  constexpr double kBudgetSeconds = 20.0;
  // Set-up of all fifteen inputs takes about 0.09 s, and the host runs
  // single-threaded work up to 1.6x slower for seconds at a time, often
  // the first seconds of a process. Two reps before every round spread the
  // reps over the run, as the timed calls are spread. Each runs on a fresh
  // thread, which allocates from a heap arena the calls did not touch, as
  // set-up in a fresh process does: on the main thread, set-up ran steadily
  // slower after the calls of some solver seeds than of others.
  constexpr int kSetupRepsPerRound = 2;
  struct Input {
    int shape;  // index into TableTwoSpecs: M1..M4
    uint64_t generator_seed;
  };
  constexpr Input kInputs[] = {{0, 1}, {0, 2},  {0, 3},  {0, 4},  {1, 2},
                               {1, 3}, {1, 12}, {1, 15}, {2, 1},  {2, 2},
                               {2, 3}, {3, 1},  {3, 4},  {3, 12}, {3, 15}};

  RunResult run;
  run.context = {{"scale", "1/32"},
                 {"solver_budget_s", "20"},
                 {"generator_seeds",
                  "M1:1,2,3,4 M2:2,3,12,15 M3:1,2,3 M4:1,4,12,15"}};
  LayerTotals totals;

  std::vector<double> setup_s;
  const std::vector<ClusterSpec> shapes = rasa::TableTwoSpecs(kScale);
  auto set_up = [&] {
    std::vector<ClusterSnapshot> out;
    double rep_s = 0.0;
    for (const Input& input : kInputs) {
      ClusterSpec spec = shapes[input.shape];
      spec.seed = input.generator_seed;
      out.push_back(Generate(spec, &totals));
      rep_s += totals.generate_s.back();
    }
    setup_s.push_back(rep_s);
    return out;
  };
  const std::vector<ClusterSnapshot> snapshots = set_up();
  totals.rss_generate_mb = PeakRssMb();

  rasa::ThreadPool pool(kPoolThreads);
  const rasa::AlgorithmSelector selector(rasa::SelectorPolicy::kHeuristic);
  RasaOptions options;
  options.timeout_seconds = kBudgetSeconds;
  options.compute_migration = true;

  const int n = static_cast<int>(snapshots.size());
  std::vector<CheckedPlan> checked(n);
  const std::vector<Op> ops = ClosedLoop(args.seconds, n, [&](int i) {
    if (i % n == 0) {
      for (int rep = 0; rep < kSetupRepsPerRound; ++rep) {
        std::thread([&set_up] { set_up(); }).join();
      }
    }
    // A traced round and the untraced round after it plan with the same
    // solver seeds, so their time differs by the tracing alone.
    options.seed =
        SolverSeed(args.seed, args.trace ? (i / (2 * n)) * n + i % n : i);
    const RasaOptimizer optimizer(options, selector);
    const bool traced = args.trace && (i / n) % 2 == 0;
    return PlanOnlyOp(optimizer, snapshots[i % n], &checked[i % n], &pool,
                      traced, &totals, &run);
  });
  Finish(args, ops, n, n, setup_s, totals, &run);
  return run;
}

namespace {

// Same relocation policy as the workflow's drift between cycles: `fraction`
// of all containers, each moved from a random host of a random service to a
// random feasible machine.
void Drift(const Cluster& cluster, Placement& placement, double fraction,
           rasa::Rng& rng) {
  const int moves = static_cast<int>(fraction * cluster.num_containers());
  std::vector<int> feasible;
  for (int i = 0; i < moves; ++i) {
    const int s = static_cast<int>(rng.NextUint64(cluster.num_services()));
    const std::map<int, int>& hosts = placement.MachinesOf(s);
    if (hosts.empty()) continue;
    auto it = hosts.begin();
    std::advance(it, static_cast<long>(rng.NextUint64(hosts.size())));
    const int from = it->first;
    feasible.clear();
    for (int m = 0; m < cluster.num_machines(); ++m) {
      if (m != from && placement.CanPlace(m, s)) feasible.push_back(m);
    }
    if (feasible.empty()) continue;
    const int to = feasible[rng.NextUint64(feasible.size())];
    if (!placement.Remove(from, s).ok()) Fatal("drift lost a container");
    placement.Add(to, s);
  }
}

double CounterDelta(const rasa::MetricsSnapshot& delta,
                    const std::string& name) {
  for (const auto& [key, value] : delta.counters) {
    if (key == name) return static_cast<double>(value);
  }
  return 0.0;
}

// The churning control loop, one cycle per call: collect the snapshot,
// re-optimize incrementally, check and execute the migration plan, feed the
// telemetry store, re-base the delta cache, drift. It is the fault-free
// cycle of RunWorkflow, driven from here so that a run can stop after
// --seconds and each layer call can be timed.
class ChurnLoop {
 public:
  static constexpr double kDriftFraction = 0.10;

  ChurnLoop(const ClusterSnapshot& snapshot, uint64_t drift_seed,
            uint64_t solver_seed, rasa::ThreadPool* pool)
      : cluster_(*snapshot.cluster),
        live_(snapshot.original_placement),
        drift_rng_(drift_seed),
        rng_(solver_seed),
        telemetry_(TelemetryOn()),
        prev_scrape_(rasa::MetricRegistry::Default().Scrape()),
        selector_(rasa::SelectorPolicy::kHeuristic),
        pool_(pool) {
    options_.timeout_seconds = 20.0;
    options_.compute_migration = true;
    options_.partitioning.max_subproblem_services = 12;
  }

  Op Cycle(bool traced, LayerTotals* totals, RunResult* run) {
    Op op;
    Stopwatch cycle_timer;

    // Exact measurement: noise re-weights every edge, which the differ
    // reads as full drift.
    rasa::CollectedState state =
        rasa::CollectClusterState(cluster_, live_, 0.0, rng_.Next());
    const Cluster& measured = *state.measured_cluster;
    // Timed on its own for the delta layer; Optimize repeats it inside, so
    // its time is left out of the cycle.
    double diff_s = 0.0;
    if (traced) {
      Stopwatch timer;
      rasa::DiffSnapshot(measured, state.placement, inc_state_,
                         options_.delta);
      diff_s = timer.ElapsedSeconds();
      totals->diff_s += diff_s;
    }

    options_.seed = rng_.Next();
    const RasaOptimizer optimizer(options_, selector_);
    const PlanStep step =
        Plan(optimizer, measured, state.placement,
             rasa::OptimizeContext(pool_, &inc_state_), traced);
    const StatusOr<RasaResult>& result = *step.result;

    // The loop checks a plan before executing it, as RunWorkflow does.
    rasa::Status plan_valid;
    if (result.ok() && result->should_execute) {
      plan_valid = rasa::ValidateMigrationPlan(
          measured, state.placement, result->new_placement, result->migration,
          kMinAliveFraction);
    }

    rasa::MigrationExecutionReport exec;
    bool executed = false;
    if (result.ok() && result->should_execute && plan_valid.ok()) {
      const Placement target = Rebind(cluster_, result->new_placement);
      rasa::MigrationExecutorOptions exec_options;
      exec_options.min_alive_fraction = kMinAliveFraction;
      exec_options.seed = rng_.Next();
      rasa::PlacementActions actions(live_);
      Stopwatch timer;
      exec = rasa::ExecuteMigration(cluster_, live_, target,
                                    result->migration, actions, exec_options);
      if (traced) AddExecution(exec, timer.ElapsedSeconds(), totals);
      executed = true;
    }
    op.delivered = rasa::GainedAffinity(cluster_, live_);

    Stopwatch telemetry_timer;
    rasa::MetricsSnapshot scrape = rasa::MetricRegistry::Default().Scrape();
    const rasa::MetricsSnapshot delta = scrape.Diff(prev_scrape_);
    prev_scrape_ = std::move(scrape);
    const rasa::TrafficQuantiles traffic =
        rasa::EstimateTrafficQuantiles(cluster_, live_);
    rasa::CycleSample sample;
    sample.cycle = cycle_++;
    sample.seconds = cycle_timer.ElapsedSeconds() - diff_s;
    sample.gained_affinity = op.delivered;
    if (result.ok()) {
      sample.affinity_before = result->original_gained_affinity;
      sample.optimality_gap = result->report.certificate.Gap();
      sample.migration_truncation =
          executed ? result->new_gained_affinity - op.delivered : 0.0;
      sample.dirty_subproblems = result->dirty_subproblems;
      sample.reused_subproblems = result->reused_subproblems;
    }
    sample.lp_pivots = CounterDelta(delta, "solver.lp_pivots");
    sample.refactorizations = CounterDelta(delta, "solver.refactorizations");
    sample.latency_p50 = traffic.p50;
    sample.latency_p95 = traffic.p95;
    sample.latency_p99 = traffic.p99;
    sample.error_rate = traffic.error_rate;
    sample.executed = executed;
    sample.solver_failed = !result.ok();
    telemetry_.RecordCycle(sample);
    if (traced) totals->telemetry_s += telemetry_timer.ElapsedSeconds();

    rasa::RebaseIncrementalState(cluster_, live_, &inc_state_);
    op.cycle_s = cycle_timer.ElapsedSeconds() - diff_s;
    // The cluster drifts between cycles; like RunWorkflow, the cycle time
    // leaves the drift out.
    Drift(cluster_, live_, kDriftFraction, drift_rng_);

    // Output checks, outside the timed cycle.
    op.plan_s = step.plan_s;
    std::string failure = CheckPlan(result, plan_valid);
    int hits = 0;
    if (result.ok()) {
      op.gained = result->new_gained_affinity;
      hits = DeadlineHits(*result);
      if (traced) {
        ++totals->ops;
        AddPlan(*result, step.program_spans, totals);
      }
    }
    if (failure.empty() && executed &&
        (exec.sla_violations != 0 || exec.feasibility_violations != 0 ||
         exec.commands_failed != 0 || !exec.reached_target)) {
      failure = "executor: " + std::to_string(exec.sla_violations) +
                " SLA / " + std::to_string(exec.feasibility_violations) +
                " feasibility violations, " +
                std::to_string(exec.commands_failed) + " failed commands";
    }
    if (failure.empty()) {
      const rasa::Status live_ok = live_.CheckFeasible();
      if (!live_ok.ok()) failure = "live placement: " + live_ok.ToString();
    }
    Tally(failure, hits, run);
    rasa::SolveLedger::Default().Reset();
    return op;
  }

 private:
  static rasa::TelemetryOptions TelemetryOn() {
    rasa::TelemetryOptions options;
    options.enabled = true;
    return options;
  }

  const Cluster& cluster_;
  Placement live_;
  rasa::Rng drift_rng_;
  rasa::Rng rng_;  // solver, collection and executor seeds
  rasa::TelemetryPipeline telemetry_;
  rasa::MetricsSnapshot prev_scrape_;
  rasa::IncrementalState inc_state_;
  RasaOptions options_;
  rasa::AlgorithmSelector selector_;
  rasa::ThreadPool* pool_;
  int cycle_ = 0;
};

}  // namespace

// churn: the incremental control loop on M1 at 1/16 with 10% drift per
// cycle, run as kEpisodes episodes of kCyclesPerEpisode cycles, replayed
// round after round so the mix of cycles is the same however many rounds
// fit in the run. Each episode generates the snapshot and runs the
// cold-start first cycle, which together are its set-up. The drift of
// episode e is pinned (seed e + 1): plan times are bimodal (a cycle either
// re-solves dirty subproblems or reuses nearly all), and drift seeds move
// the median across the gap (README.md). The workload seed drives the
// solver seeds.
RunResult RunChurn(const Args& args) {
  constexpr int kEpisodes = 6;
  constexpr int kCyclesPerEpisode = 30;
  RunResult run;
  run.context = {{"scale", "1/16"},
                 {"solver_budget_s", "20"},
                 {"max_subproblem_services", "12"},
                 {"drift_fraction", "0.10"},
                 {"episodes", std::to_string(kEpisodes)},
                 {"cycles_per_episode", std::to_string(kCyclesPerEpisode)}};
  LayerTotals totals;
  rasa::ThreadPool pool(kPoolThreads);

  std::optional<ClusterSnapshot> snapshot;
  std::unique_ptr<ChurnLoop> loop;
  std::vector<double> setup_s;
  // A round replays every episode; rounds repeat the same cycles.
  constexpr int kRound = kEpisodes * kCyclesPerEpisode;
  const std::vector<Op> ops = ClosedLoop(args.seconds, kRound, [&](int i) {
    if (i % kCyclesPerEpisode == 0) {
      const int episode = (i / kCyclesPerEpisode) % kEpisodes;
      loop.reset();  // it refers to the snapshot about to be replaced
      snapshot = Generate(rasa::M1Spec(16.0), &totals);
      if (setup_s.empty()) totals.rss_generate_mb = PeakRssMb();
      loop = std::make_unique<ChurnLoop>(
          *snapshot, episode + 1, SolverSeed(args.seed, episode), &pool);
      RunResult cold_start;
      const Op first = loop->Cycle(false, &totals, &cold_start);
      if (cold_start.failed != 0) Fatal("churn: a cold-start cycle failed");
      setup_s.push_back(totals.generate_s.back() + first.cycle_s);
    }
    return loop->Cycle(args.trace && (i / kRound) % 2 == 0, &totals, &run);
  });
  Finish(args, ops, 1, kRound, setup_s, totals, &run);
  return run;
}

// fullscale: M4 at factor 1 (the Table II row) with POP on and the
// migration path on, a few Optimize calls per run on the same snapshot.
// Generation takes about half a minute, so set-up runs once. The solver
// seed is fixed: it sets the POP replica split, which moves gained
// affinity by a third between seeds (README.md), so the workload seed
// changes nothing here.
RunResult RunFullscale(const Args& args) {
  RunResult run;
  run.context = {{"scale", "1"},
                 {"solver_budget_s", "60"},
                 {"solver_seed", std::to_string(RasaOptions().seed)},
                 {"pop", "max_services 24, 2 replicas"}};
  LayerTotals totals;

  const ClusterSnapshot snap = Generate(rasa::M4Spec(1.0), &totals);
  const std::vector<double> setup_s = totals.generate_s;
  const Cluster& cluster = *snap.cluster;
  if (cluster.num_services() != 10682 || cluster.num_containers() != 113261 ||
      cluster.num_machines() != 4365) {
    Fatal("M4 at factor 1 does not match its Table II row");
  }
  totals.rss_generate_mb = PeakRssMb();

  rasa::ThreadPool pool(kPoolThreads);
  const rasa::AlgorithmSelector selector(rasa::SelectorPolicy::kHeuristic);
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.compute_migration = true;
  options.pop.max_services = 24;
  options.pop.num_replicas = 2;
  const RasaOptimizer optimizer(options, selector);

  // Calls come in pairs, so a traced call always has an untraced partner.
  CheckedPlan checked;
  const std::vector<Op> ops = ClosedLoop(args.seconds, 2, [&](int i) {
    return PlanOnlyOp(optimizer, snap, &checked, &pool,
                      args.trace && i % 2 == 0, &totals, &run);
  });
  Finish(args, ops, 1, 1, setup_s, totals, &run);
  return run;
}

}  // namespace perfbench
