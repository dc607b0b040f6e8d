// rasa_cli — command-line front end for the library.
//
// Every invocation is parsed ONCE into a validated `CliConfig` before any
// work runs: subcommand, positional operands, and flags all come from one
// declarative registry (kCommands / kFlags below). `rasa_cli help` and
// `rasa_cli help <subcommand>` are generated from that registry, so the
// help text cannot drift from what the parser accepts, and an unknown or
// misplaced flag is a hard error (exit 2) instead of a silent ignore.
//
// Run `rasa_cli help` for the subcommand list and `rasa_cli help workflow`
// (etc.) for per-subcommand operands and flags.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/serialization.h"
#include "common/durable_io.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "core/explain.h"
#include "core/recovery.h"
#include "core/objective.h"
#include "core/rasa.h"
#include "graph/powerlaw_fit.h"
#include "sim/workflow.h"

namespace {

using namespace rasa;

// ---------------------------------------------------------------------------
// CliConfig: the single parsed + validated form of a command line.
// ---------------------------------------------------------------------------

struct CliConfig {
  std::string command;
  std::vector<std::string> args;  // positional operands after the subcommand

  // Flag values (every flag lives here; the registry below says which
  // subcommands accept which).
  int threads = 1;
  std::string metrics_out;
  bool trace = false;
  std::string trace_out;
  std::string state_dir;
  bool resume = false;
  bool incremental = false;
  std::string telemetry_dir;
  std::string log_level;
  std::string log_jsonl;
  bool follow = false;
};

// Strict numeric parsing shared by flag values and positional operands: the
// whole string must parse (strtoll/strtod) to a finite value in range, so
// "abc" or "3x" is an error rather than a silent 0.
template <typename T>
bool ParseNumber(const std::string& v, T* out) {
  char* end = nullptr;
  errno = 0;
  T value{};
  if constexpr (std::is_integral_v<T>) {
    const long long n = std::strtoll(v.c_str(), &end, 10);
    if (std::cmp_less(n, std::numeric_limits<T>::min()) ||
        std::cmp_greater(n, std::numeric_limits<T>::max())) {
      return false;
    }
    value = static_cast<T>(n);
  } else {
    value = std::strtod(v.c_str(), &end);
    if (!std::isfinite(value)) return false;
  }
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

// Loads the snapshot named by the first operand; on failure prints why and
// returns nothing.
std::optional<ClusterSnapshot> LoadOperand(const CliConfig& config) {
  StatusOr<ClusterSnapshot> snapshot = LoadSnapshotFromFile(config.args[0]);
  if (snapshot.ok()) return *std::move(snapshot);
  std::fprintf(stderr, "load: %s\n", snapshot.status().ToString().c_str());
  return std::nullopt;
}

// Reads optional positional operand `index` into `*out`, which keeps its
// default when the operand is absent. A malformed operand is reported by
// name and returns false (the caller exits 2, like a malformed flag).
template <typename T>
bool NumericOperand(const CliConfig& config, size_t index, const char* name,
                    T* out) {
  if (index >= config.args.size() || ParseNumber(config.args[index], out)) {
    return true;
  }
  std::fprintf(stderr, "rasa_cli %s: %s must be a number in range, got '%s'\n",
               config.command.c_str(), name, config.args[index].c_str());
  return false;
}

// Bitmask of subcommands a flag applies to.
enum CommandBit : unsigned {
  kGenerate = 1u << 0,
  kStats = 1u << 1,
  kOptimize = 1u << 2,
  kWorkflow = 1u << 3,
  kExplain = 1u << 4,
  kRecover = 1u << 5,
  kTail = 1u << 6,
};

struct CommandSpec {
  const char* name;
  unsigned bit;
  int min_args;
  int max_args;
  const char* synopsis;  // positional operands
  const char* help;
};

constexpr CommandSpec kCommands[] = {
    {"generate", kGenerate, 3, 3, "<M1|M2|M3|M4> <scale> <out.snapshot>",
     "Generate a synthetic cluster snapshot and write it to disk.\n"
     "Scale 1 reproduces the preset's Table II row exactly; the default\n"
     "bench scale is 16."},
    {"stats", kStats, 1, 1, "<in.snapshot>",
     "Print the cluster's scale, affinity structure, and current gained\n"
     "affinity."},
    {"optimize", kOptimize, 1, 3, "<in.snapshot> [timeout_s] [out.snapshot]",
     "Run the RASA algorithm on the snapshot; print the improvement and\n"
     "the migration plan summary; optionally write the optimized snapshot\n"
     "back to disk."},
    {"workflow", kWorkflow, 1, 5,
     "<in.snapshot> [cycles] [fail_prob] [cordon_after] [seed]",
     "Simulate the periodic CronJob workflow with the hardened migration\n"
     "executor; with fail_prob > 0 or cordon_after >= 0 the chaos harness\n"
     "injects command failures / a mid-migration machine cordon. With\n"
     "--state-dir=DIR the loop is crash-safe: every cycle is checkpointed\n"
     "and migrations run under a write-ahead journal; adding --resume\n"
     "recovers an interrupted run and continues at the interrupted cycle."},
    {"explain", kExplain, 1, 3, "<in.snapshot> [cycles] [timeout_s]",
     "Run the workflow with noise-free measurement and print each cycle's\n"
     "explain report: per-subproblem solver records, the optimality-gap\n"
     "certificate, the attribution waterfall, and the placement diff.\n"
     "With --metrics-out, the same data is embedded as the JSON \"report\"\n"
     "section."},
    {"recover", kRecover, 1, 1, "<state-dir>",
     "Inspect a durable state directory without resuming: checkpoint\n"
     "summary, journal records, and the applied / not-applied / torn\n"
     "classification of any in-flight migration commands."},
    {"tail", kTail, 1, 1, "<telemetry-dir>",
     "Render the per-cycle telemetry journal written by\n"
     "`workflow --telemetry-dir=DIR` as a cycle table, with the SLO\n"
     "burn-rate and anomaly columns folded from the recorded samples.\n"
     "With --follow, keeps polling the journal and appends new cycles as\n"
     "the workflow writes them (live tailing). A malformed line exits 1."},
};

struct FlagSpec {
  const char* name;        // including the leading "--"
  unsigned commands;       // which subcommands accept it
  const char* value_name;  // nullptr for presence-only flags
  const char* help;
  // Parses `value` into `config`; returns false on a malformed value.
  bool (*apply)(CliConfig& config, const std::string& value);
};

constexpr unsigned kRunCommands = kOptimize | kWorkflow | kExplain;
constexpr unsigned kAllCommands =
    kGenerate | kStats | kOptimize | kWorkflow | kExplain | kRecover | kTail;

const FlagSpec kFlags[] = {
    {"--threads", kRunCommands, "N",
     "solver worker threads (0 = one per hardware thread, default 1 =\n"
     "sequential). The optimized placement is bit-identical at every\n"
     "thread count.",
     [](CliConfig& c, const std::string& v) {
       return ParseNumber(v, &c.threads) && c.threads >= 0;
     }},
    {"--metrics-out", kRunCommands, "FILE",
     "after the run, scrape the metric registry and write a\n"
     "machine-readable JSON report (counters, gauges, histograms; for\n"
     "`workflow` also the per-cycle snapshots; plus the trace when\n"
     "--trace is on).",
     [](CliConfig& c, const std::string& v) {
       if (v.empty()) return false;
       c.metrics_out = v;
       return true;
     }},
    {"--trace", kRunCommands, nullptr,
     "record the hierarchical phase timeline and print it as an indented\n"
     "tree on stderr.",
     [](CliConfig& c, const std::string&) {
       c.trace = true;
       return true;
     }},
    {"--state-dir", kWorkflow, "DIR",
     "durable checkpoints + migration write-ahead journal in DIR.",
     [](CliConfig& c, const std::string& v) {
       if (v.empty()) return false;
       c.state_dir = v;
       return true;
     }},
    {"--resume", kWorkflow, nullptr,
     "recover + resume an interrupted run from --state-dir.",
     [](CliConfig& c, const std::string&) {
       c.resume = true;
       return true;
     }},
    {"--incremental", kWorkflow, nullptr,
     "delta-aware re-optimization: re-solve only the partitions the\n"
     "snapshot differ marks dirty (implies noise-free measurement; see\n"
     "DESIGN.md).",
     [](CliConfig& c, const std::string&) {
       c.incremental = true;
       return true;
     }},
    {"--trace-out", kRunCommands, "FILE",
     "write the recorded phase timeline as Chrome trace-event JSON\n"
     "(loadable in Perfetto / chrome://tracing) to FILE via an atomic\n"
     "write; implies --trace. Without this flag --trace keeps printing\n"
     "the indented tree to stderr as before.",
     [](CliConfig& c, const std::string& v) {
       if (v.empty()) return false;
       c.trace = true;
       c.trace_out = v;
       return true;
     }},
    {"--telemetry-dir", kWorkflow, "DIR",
     "continuous telemetry: per-cycle SLO/anomaly verdicts in each cycle\n"
     "report, one sample per cycle streamed to DIR/telemetry.jsonl\n"
     "(fsync per line — `rasa_cli tail DIR` can follow a live run; a\n"
     "--resume replays it), and an OpenMetrics exposition of the registry\n"
     "written to DIR/metrics.om after the run.",
     [](CliConfig& c, const std::string& v) {
       if (v.empty()) return false;
       c.telemetry_dir = v;
       return true;
     }},
    {"--log-level", kAllCommands, "LEVEL",
     "minimum log severity: debug|info|warning|error (or 0-3).\n"
     "Overrides the RASA_LOG_LEVEL environment variable.",
     [](CliConfig& c, const std::string& v) {
       if (v.empty()) return false;
       c.log_level = v;
       return true;
     }},
    {"--log-jsonl", kAllCommands, "FILE",
     "mirror every emitted log record to FILE as JSONL\n"
     "({ts, severity, subsystem, message}); same records the console\n"
     "sees after the severity filter. Overrides RASA_LOG_JSONL.",
     [](CliConfig& c, const std::string& v) {
       if (v.empty()) return false;
       c.log_jsonl = v;
       return true;
     }},
    {"--follow", kTail, nullptr,
     "keep polling the journal and append new cycles as they are\n"
     "written (Ctrl-C to stop).",
     [](CliConfig& c, const std::string&) {
       c.follow = true;
       return true;
     }},
};

const CommandSpec* FindCommand(const std::string& name) {
  for (const CommandSpec& cmd : kCommands) {
    if (name == cmd.name) return &cmd;
  }
  return nullptr;
}

// Prints `text` with every line prefixed by `indent`.
void PrintIndented(const char* indent, const char* text) {
  const char* line = text;
  while (*line != '\0') {
    const char* nl = std::strchr(line, '\n');
    const size_t len = nl != nullptr ? static_cast<size_t>(nl - line)
                                     : std::strlen(line);
    std::fprintf(stderr, "%s%.*s\n", indent, static_cast<int>(len), line);
    line += len + (nl != nullptr ? 1 : 0);
  }
}

// `rasa_cli help`: the one-screen overview, generated from kCommands.
int HelpOverview() {
  std::fprintf(stderr, "usage: rasa_cli <subcommand> [flags] <operands...>\n");
  std::fprintf(stderr, "subcommands:\n");
  for (const CommandSpec& cmd : kCommands) {
    std::fprintf(stderr, "  rasa_cli %s %s\n", cmd.name, cmd.synopsis);
  }
  std::fprintf(stderr,
               "run `rasa_cli help <subcommand>` for its operands and "
               "flags.\n");
  return 2;
}

// `rasa_cli help <subcommand>`: operands + the flags this subcommand
// accepts, straight from the registry.
int HelpCommand(const std::string& name) {
  const CommandSpec* cmd = FindCommand(name);
  if (cmd == nullptr) {
    std::fprintf(stderr, "rasa_cli: unknown subcommand '%s'\n", name.c_str());
    return HelpOverview();
  }
  std::fprintf(stderr, "usage: rasa_cli %s [flags] %s\n", cmd->name,
               cmd->synopsis);
  PrintIndented("  ", cmd->help);
  bool any = false;
  for (const FlagSpec& flag : kFlags) {
    if ((flag.commands & cmd->bit) == 0) continue;
    if (!any) std::fprintf(stderr, "flags:\n");
    any = true;
    if (flag.value_name != nullptr) {
      std::fprintf(stderr, "  %s=%s\n", flag.name, flag.value_name);
    } else {
      std::fprintf(stderr, "  %s\n", flag.name);
    }
    PrintIndented("      ", flag.help);
  }
  if (!any) std::fprintf(stderr, "flags: none\n");
  return 2;
}

// Parses argv into `config`. Flags may appear anywhere after the
// subcommand; anything else is a positional operand. Unknown flags, flags
// the subcommand does not accept, malformed values, and bad operand
// counts are all hard errors.
int ParseCliConfig(int argc, char** argv, CliConfig& config) {
  if (argc < 2) return HelpOverview();
  config.command = argv[1];
  if (config.command == "help" || config.command == "--help" ||
      config.command == "-h") {
    return argc > 2 ? HelpCommand(argv[2]) : HelpOverview();
  }
  const CommandSpec* cmd = FindCommand(config.command);
  if (cmd == nullptr) {
    std::fprintf(stderr, "rasa_cli: unknown subcommand '%s'\n",
                 config.command.c_str());
    return HelpOverview();
  }

  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      config.args.push_back(arg);
      continue;
    }
    // Split --name=value.
    const char* eq = std::strchr(arg, '=');
    const std::string name =
        eq != nullptr ? std::string(arg, eq - arg) : std::string(arg);
    const FlagSpec* match = nullptr;
    for (const FlagSpec& flag : kFlags) {
      if (name == flag.name) {
        match = &flag;
        break;
      }
    }
    if (match == nullptr) {
      std::fprintf(stderr,
                   "rasa_cli: unknown flag %s (try `rasa_cli help %s`)\n",
                   name.c_str(), cmd->name);
      return 2;
    }
    if ((match->commands & cmd->bit) == 0) {
      std::fprintf(stderr, "rasa_cli: flag %s is not accepted by '%s' (try "
                           "`rasa_cli help %s`)\n",
                   name.c_str(), cmd->name, cmd->name);
      return 2;
    }
    std::string value;
    if (match->value_name != nullptr) {
      if (eq != nullptr) {
        value = eq + 1;
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "rasa_cli: flag %s needs a value (%s=%s)\n",
                     name.c_str(), name.c_str(), match->value_name);
        return 2;
      }
    } else if (eq != nullptr) {
      std::fprintf(stderr, "rasa_cli: flag %s takes no value\n", name.c_str());
      return 2;
    }
    if (!match->apply(config, value)) {
      std::fprintf(stderr, "rasa_cli: bad value for %s: '%s'\n", name.c_str(),
                   value.c_str());
      return 2;
    }
  }

  const int num_args = static_cast<int>(config.args.size());
  if (num_args < cmd->min_args || num_args > cmd->max_args) {
    std::fprintf(stderr, "rasa_cli: %s expects %s, got %d operand%s\n",
                 cmd->name, cmd->synopsis, num_args,
                 num_args == 1 ? "" : "s");
    return HelpCommand(cmd->name);
  }
  // Cross-flag validation.
  if (config.resume && config.state_dir.empty()) {
    std::fprintf(stderr, "rasa_cli: --resume requires --state-dir\n");
    return 2;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Subcommand implementations (all consume the validated CliConfig).
// ---------------------------------------------------------------------------

// Post-run observability output: writes the JSON report (registry scrape +
// optional per-cycle workflow snapshots + completed trace spans + explain
// reports) and prints the human-readable trace tree. `single_run` embeds
// one Optimize run's explain report; `explain_cycles` embeds every
// workflow cycle's. Returns false if the file write failed.
bool EmitObservability(const CliConfig& config, const WorkflowReport* workflow,
                       const RasaResult* single_run = nullptr,
                       bool explain_cycles = false) {
  if (config.trace) {
    if (!config.trace_out.empty()) {
      // Crash-atomic like --metrics-out; the file is Perfetto-loadable
      // Chrome trace-event JSON.
      const Status written = AtomicWriteFile(
          config.trace_out, ChromeTraceJson(Tracer::Default().Events()) + "\n");
      if (!written.ok()) {
        std::fprintf(stderr, "trace: cannot write %s: %s\n",
                     config.trace_out.c_str(), written.ToString().c_str());
        return false;
      }
      std::fprintf(stderr, "trace: wrote %s\n", config.trace_out.c_str());
    } else {
      std::fprintf(stderr, "--- phase trace ---\n%s",
                   Tracer::Default().SummaryTree().c_str());
    }
  }
  if (config.metrics_out.empty()) return true;
  JsonWriter w;
  w.BeginObject();
  w.Key("metrics");
  MetricRegistry::Default().Scrape().AppendJson(w);
  if (workflow != nullptr) {
    w.Key("cycles").BeginArray();
    for (const CycleReport& cr : workflow->cycles) {
      cr.metrics.AppendJson(w);
    }
    w.EndArray();
  }
  if (single_run != nullptr) {
    w.Key("report");
    AppendExplainJson(w, single_run->report);
  }
  if (workflow != nullptr && explain_cycles) {
    w.Key("report").BeginArray();
    for (size_t c = 0; c < workflow->cycles.size(); ++c) {
      const CycleReport& cr = workflow->cycles[c];
      w.BeginObject();
      w.Key("cycle").Value(static_cast<int>(c));
      w.Key("affinity_before").Value(cr.affinity_before);
      w.Key("affinity_after").Value(cr.affinity_after);
      w.Key("predicted_affinity").Value(cr.predicted_affinity);
      w.Key("executed").Value(cr.executed);
      w.Key("rolled_back").Value(cr.rolled_back);
      w.Key("migration_truncation").Value(cr.migration_truncation);
      w.Key("explain");
      AppendExplainJson(w, cr.explain);
      w.EndObject();
    }
    w.EndArray();
  }
  if (config.trace) {
    w.Key("trace");
    Tracer::Default().AppendJson(w);
  }
  w.EndObject();
  // Crash-atomic: a report file is either absent or complete, never torn.
  const Status written = AtomicWriteFile(config.metrics_out, w.str() + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "metrics: cannot write %s: %s\n",
                 config.metrics_out.c_str(), written.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "metrics: wrote %s\n", config.metrics_out.c_str());
  return true;
}

int Generate(const CliConfig& config) {
  const std::string& preset = config.args[0];
  double scale = 0.0;
  if (!NumericOperand(config, 1, "scale", &scale)) return 2;
  ClusterSpec spec;
  if (preset == "M1") {
    spec = M1Spec(scale);
  } else if (preset == "M2") {
    spec = M2Spec(scale);
  } else if (preset == "M3") {
    spec = M3Spec(scale);
  } else if (preset == "M4") {
    spec = M4Spec(scale);
  } else {
    std::fprintf(stderr, "rasa_cli: unknown preset '%s' (M1|M2|M3|M4)\n",
                 preset.c_str());
    return 2;
  }
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveSnapshotToFile(*snapshot, config.args[2]);
  if (!saved.ok()) {
    std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d services, %d containers, %d machines\n",
              config.args[2].c_str(), snapshot->cluster->num_services(),
              snapshot->cluster->num_containers(),
              snapshot->cluster->num_machines());
  return 0;
}

int Stats(const CliConfig& config) {
  const std::optional<ClusterSnapshot> snapshot = LoadOperand(config);
  if (!snapshot) return 1;
  const Cluster& cluster = *snapshot->cluster;
  std::printf("%s: %d services, %d containers, %d machines, %d resources\n",
              snapshot->name.c_str(), cluster.num_services(),
              cluster.num_containers(), cluster.num_machines(),
              cluster.num_resources());
  std::printf("affinity: %d edges, total weight %.4f\n",
              cluster.affinity().num_edges(), cluster.affinity().TotalWeight());
  const int top = std::max(1, cluster.num_services() / 10);
  std::printf("top-10%% services hold %.1f%% of total affinity\n",
              100.0 * TopKAffinityShare(cluster.affinity(), top));
  std::printf("anti-affinity rules: %zu\n", cluster.anti_affinity().size());
  std::printf("current gained affinity: %.4f\n",
              GainedAffinity(cluster, snapshot->original_placement));
  std::printf("placement feasible (incl. SLA): %s\n",
              snapshot->original_placement.CheckFeasible(true).ok() ? "yes"
                                                                    : "no");
  return 0;
}

int Optimize(const CliConfig& config) {
  RasaOptions options;
  options.timeout_seconds = 2.0;
  if (!NumericOperand(config, 1, "timeout_s", &options.timeout_seconds)) {
    return 2;
  }
  const std::optional<ClusterSnapshot> snapshot = LoadOperand(config);
  if (!snapshot) return 1;
  options.num_threads = config.threads;
  RasaOptimizer optimizer(options,
                          AlgorithmSelector(SelectorPolicy::kHeuristic));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot->cluster, snapshot->original_placement);
  if (!result.ok()) {
    std::fprintf(stderr, "optimize: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("gained affinity: %.4f -> %.4f (%.2fx) in %.2fs (%d threads)\n",
              result->original_gained_affinity, result->new_gained_affinity,
              result->new_gained_affinity /
                  std::max(1e-9, result->original_gained_affinity),
              result->elapsed_seconds, result->num_threads_used);
  std::printf("moved containers: %d / %d\n", result->moved_containers,
              snapshot->cluster->num_containers());
  if (result->should_execute) {
    std::printf("migration plan: %s\n", result->migration.Summary().c_str());
  } else {
    std::printf("dry-run (improvement below threshold)\n");
  }
  if (config.args.size() > 2) {
    ClusterSnapshot optimized{snapshot->name + "-optimized",
                              snapshot->cluster, result->new_placement};
    const Status saved = SaveSnapshotToFile(optimized, config.args[2]);
    if (!saved.ok()) {
      std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("wrote optimized snapshot to %s\n", config.args[2].c_str());
  }
  return EmitObservability(config, nullptr, &*result) ? 0 : 1;
}

int Workflow(const CliConfig& config) {
  WorkflowOptions options;
  options.cycles = 6;
  double fail_prob = 0.0;
  long cordon_after = -1;
  options.seed = 99;
  if (!NumericOperand(config, 1, "cycles", &options.cycles) ||
      !NumericOperand(config, 2, "fail_prob", &fail_prob) ||
      !NumericOperand(config, 3, "cordon_after_commands", &cordon_after) ||
      !NumericOperand(config, 4, "seed", &options.seed)) {
    return 2;
  }
  const std::optional<ClusterSnapshot> snapshot = LoadOperand(config);
  if (!snapshot) return 1;
  options.rasa.num_threads = config.threads;
  options.inject_faults = fail_prob > 0.0 || cordon_after >= 0;
  options.faults.command_failure_probability = fail_prob;
  options.faults.cordon_after_commands = cordon_after;
  options.faults.seed = options.seed + 1;
  options.state_dir = config.state_dir;
  options.resume = config.resume;
  options.incremental = config.incremental;
  options.telemetry_dir = config.telemetry_dir;
  // Per-cycle measurement noise re-randomizes every affinity weight, which
  // the snapshot differ reports as full drift; incremental mode only pays
  // off with exact measurement (see WorkflowOptions::incremental).
  if (config.incremental) options.measurement_noise = 0.0;

  // The simulated cluster cannot be queried after a crash, so a resumed run
  // reconstructs the placement a restarted controller would observe from
  // the durable state (checkpoint + committed journal batches).
  Placement initial = snapshot->original_placement;
  if (config.resume) {
    StatusOr<RecoveryAnalysis> analysis =
        AnalyzeWorkflowState(config.state_dir);
    if (!analysis.ok()) {
      std::fprintf(stderr, "workflow: recovery analysis failed: %s\n",
                   analysis.status().ToString().c_str());
      return 1;
    }
    StatusOr<Placement> observed = ReconstructObservedPlacement(*analysis);
    if (!observed.ok()) {
      std::fprintf(stderr, "workflow: cannot reconstruct placement: %s\n",
                   observed.status().ToString().c_str());
      return 1;
    }
    initial = std::move(observed).value();
  }

  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot->cluster, initial,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  if (!report.ok()) {
    std::fprintf(stderr, "workflow: %s\n", report.status().ToString().c_str());
    return 1;
  }
  if (report->resumed_cycle >= 0) {
    const RecoveryStats& rec = report->recovery;
    std::printf(
        "recovery: resumed at cycle %d%s%s; commands %d applied pre-crash, "
        "%d not applied, %d torn; rolled forward %d commands / %d batches / "
        "%d drift moves; %d phases abandoned; %d cycles completed from "
        "journal\n",
        report->resumed_cycle,
        rec.used_previous_checkpoint ? " (previous checkpoint)" : "",
        rec.journal_torn_tail ? " (journal tail torn)" : "",
        rec.commands_applied_pre_crash, rec.commands_not_applied,
        rec.commands_torn, rec.commands_rolled_forward,
        rec.batches_rolled_forward, rec.drift_moves_rolled_forward,
        rec.phases_abandoned, rec.cycles_completed_from_journal);
  }
  // A resumed run's report covers cycles resumed_cycle..; print absolute
  // cycle indices so consecutive runs line up.
  const size_t first_cycle =
      report->resumed_cycle > 0 ? static_cast<size_t>(report->resumed_cycle)
                                : 0;
  for (size_t c = 0; c < report->cycles.size(); ++c) {
    const CycleReport& cr = report->cycles[c];
    std::string inc_tag;
    if (cr.incremental) {
      inc_tag = " [reused " + std::to_string(cr.reused_subproblems) + "/" +
                std::to_string(cr.reused_subproblems + cr.dirty_subproblems) +
                "]";
    } else if (!cr.incremental_reason.empty()) {
      inc_tag = " [" + cr.incremental_reason + "]";
    }
    std::string slo_tag;
    if (cr.telemetry.populated) {
      for (const SloStatus& slo : cr.telemetry.slo) {
        if (slo.alert != SloAlertState::kOk) {
          slo_tag += " [" + slo.name + ":" + SloAlertStateName(slo.alert) + "]";
        }
      }
      if (cr.telemetry.gap.anomalous) slo_tag += " [gap-anomaly]";
    }
    std::printf(
        "cycle %2zu: affinity %.4f -> %.4f%s%s%s%s, %d moved, %d batches, "
        "%d cmd failures, %d retries, %d replans (%.2fs)\n",
        first_cycle + c, cr.affinity_before, cr.affinity_after,
        cr.executed ? (cr.reached_target ? " [executed]" : " [partial]")
                    : (cr.rolled_back ? " [rolled back]" : " [dry-run]"),
        cr.solver_failed
            ? " [solver failed]"
            : (cr.recovered ? " [recovered]" : ""),
        inc_tag.c_str(), slo_tag.c_str(), cr.moved_containers,
        cr.migration_batches, cr.commands_failed, cr.command_retries,
        cr.replans, cr.seconds);
  }
  std::printf(
      "totals: %d executions (%d partial), %d dry-runs, %d rollbacks, "
      "%d solver failures\n",
      report->executions, report->partial_executions, report->dry_runs,
      report->rollbacks, report->solver_failures);
  std::printf(
      "chaos:  %d command failures, %d retries, %d replans, "
      "%d SLA violations, %d feasibility violations\n",
      report->commands_failed, report->command_retries, report->replans,
      report->sla_violations, report->feasibility_violations);
  std::printf("final gained affinity: %.4f (feasible: %s)\n",
              GainedAffinity(*snapshot->cluster, report->final_placement),
              report->final_placement.CheckFeasible(true).ok() ? "yes" : "no");
  if (!config.telemetry_dir.empty()) {
    // The journal streamed during the run; the exposition-format scrape is
    // an end-of-run artifact (what a Prometheus endpoint would serve).
    const Status om =
        AtomicWriteFile(config.telemetry_dir + "/metrics.om",
                        OpenMetricsText(MetricRegistry::Default().Scrape()));
    if (!om.ok()) {
      std::fprintf(stderr, "telemetry: cannot write metrics.om: %s\n",
                   om.ToString().c_str());
      return 1;
    }
    std::printf("telemetry: wrote %s/telemetry.jsonl and %s/metrics.om\n",
                config.telemetry_dir.c_str(), config.telemetry_dir.c_str());
  }
  if (!EmitObservability(config, &*report)) return 1;
  return report->sla_violations + report->feasibility_violations == 0 ? 0 : 3;
}

// Inspects a durable state directory without resuming anything.
int Recover(const CliConfig& config) {
  StatusOr<std::string> inspection =
      FormatRecoveryInspection(config.args[0]);
  if (!inspection.ok()) {
    std::fprintf(stderr, "recover: %s\n",
                 inspection.status().ToString().c_str());
    return 1;
  }
  std::fputs(inspection->c_str(), stdout);
  return 0;
}

// Runs the workflow with noise-free measurement and prints each cycle's
// explain report (the human-readable form of the "report" JSON section).
int Explain(const CliConfig& config) {
  WorkflowOptions options;
  options.cycles = 1;
  options.rasa.timeout_seconds = 2.0;
  if (!NumericOperand(config, 1, "cycles", &options.cycles) ||
      !NumericOperand(config, 2, "timeout_s", &options.rasa.timeout_seconds)) {
    return 2;
  }
  const std::optional<ClusterSnapshot> snapshot = LoadOperand(config);
  if (!snapshot) return 1;
  options.rasa.num_threads = config.threads;
  // Explain the real measured weights: reports should attribute the
  // pipeline, not the measurement noise.
  options.measurement_noise = 0.0;

  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot->cluster, snapshot->original_placement,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  if (!report.ok()) {
    std::fprintf(stderr, "explain: %s\n", report.status().ToString().c_str());
    return 1;
  }
  for (size_t c = 0; c < report->cycles.size(); ++c) {
    const CycleReport& cr = report->cycles[c];
    std::printf("=== cycle %zu: affinity %.4f -> %.4f%s ===\n", c,
                cr.affinity_before, cr.affinity_after,
                cr.executed ? (cr.reached_target ? " [executed]" : " [partial]")
                            : (cr.rolled_back ? " [rolled back]"
                                              : " [dry-run]"));
    if (cr.executed) {
      std::printf("migration truncation: %.6f (predicted %.4f, achieved "
                  "%.4f)\n",
                  cr.migration_truncation, cr.predicted_affinity,
                  cr.affinity_after);
    }
    if (cr.solver_failed) {
      std::printf("optimizer failed this cycle; no explain report\n");
      continue;
    }
    std::fputs(FormatExplainReport(cr.explain).c_str(), stdout);
  }
  return EmitObservability(config, &*report, nullptr, true) ? 0 : 1;
}

// --- tail -----------------------------------------------------------------

// Worst SLO alert across the cycle plus its burn rates, e.g.
// "latency_p50:page f=28.8 s=7.2"; "ok" when every objective is green.
std::string WorstSloCell(const CycleTelemetry& verdicts) {
  int worst_rank = 0;
  std::string cell = "ok";
  for (const SloStatus& status : verdicts.slo) {
    const int rank = status.alert == SloAlertState::kPage  ? 2
                     : status.alert == SloAlertState::kOk ? 0
                                                           : 1;
    if (rank <= worst_rank) continue;
    worst_rank = rank;
    cell = status.name + ":" + SloAlertStateName(status.alert) +
           StrFormat(" f=%.1f s=%.1f", status.fast_burn_rate,
                     status.slow_burn_rate);
  }
  return cell;
}

void PrintTailHeader() {
  std::printf("%5s %8s %9s %9s %8s %9s %-12s %-6s %s\n", "cycle", "secs",
              "affinity", "gap", "p99", "err", "status", "anom", "slo");
}

void PrintTailRow(const CycleSample& sample, const CycleTelemetry& verdicts) {
  const char* status = "dry-run";
  if (sample.executed) status = "executed";
  if (sample.rolled_back) status = "rolled-back";
  if (sample.solver_failed) status = "solver-fail";
  std::string anom;
  if (verdicts.cost.anomalous) anom += "C";
  if (verdicts.gap.anomalous) anom += "G";
  if (anom.empty()) anom = "-";
  std::printf("%5d %8.2f %9.4f %9.6f %8.4f %9.6f %-12s %-6s %s\n",
              sample.cycle, sample.seconds, sample.gained_affinity,
              sample.optimality_gap, sample.latency_p99, sample.error_rate,
              status, anom.c_str(), WorstSloCell(verdicts).c_str());
}

// Renders `<dir>/telemetry.jsonl` as a cycle table, folding each recorded
// sample into its verdicts; with --follow, keeps polling for appended
// lines (the journal is fsync'd per line, so a tail sees complete records
// plus at most one torn line, which is read on the next poll once its
// newline lands). A malformed line fails the tail: the verdicts after it
// would not be the run's.
int Tail(const CliConfig& config) {
  const std::string path = config.args[0] + "/telemetry.jsonl";
  TelemetryPipeline fold;
  size_t printed = 0;  // samples already folded and rendered
  for (;;) {
    StatusOr<std::string> content = ReadFileToString(path);
    if (!content.ok()) {
      if (!config.follow) {
        std::fprintf(stderr, "tail: %s\n",
                     content.status().ToString().c_str());
        return 1;
      }
      // --follow before the run opened the journal: wait for it to appear.
    } else {
      StatusOr<std::vector<CycleSample>> samples =
          ParseTelemetryJournal(*content);
      if (!samples.ok()) {
        std::fprintf(stderr, "tail: %s: %s\n", path.c_str(),
                     samples.status().ToString().c_str());
        return 1;
      }
      for (; printed < samples->size(); ++printed) {
        if (printed == 0) PrintTailHeader();
        const CycleSample& sample = (*samples)[printed];
        PrintTailRow(sample, fold.RecordCycle(sample));
      }
      std::fflush(stdout);
    }
    if (!config.follow) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
  if (printed == 0) {
    std::printf("(no complete journal lines in %s)\n", path.c_str());
  }
  return 0;
}

// Maps --log-level values (words or the RASA_LOG_LEVEL digits) onto the
// logging threshold. Returns false on an unknown value.
bool ApplyLogLevel(const std::string& value) {
  if (value == "debug" || value == "0") {
    SetLogLevel(LogLevel::kDebug);
  } else if (value == "info" || value == "1") {
    SetLogLevel(LogLevel::kInfo);
  } else if (value == "warning" || value == "2") {
    SetLogLevel(LogLevel::kWarning);
  } else if (value == "error" || value == "3") {
    SetLogLevel(LogLevel::kError);
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliConfig config;
  const int parse_status = ParseCliConfig(argc, argv, config);
  if (parse_status != 0) return parse_status;
  if (!config.log_level.empty() && !ApplyLogLevel(config.log_level)) {
    std::fprintf(stderr, "unknown --log-level '%s' (want debug|info|warning|"
                 "error or 0-3)\n", config.log_level.c_str());
    return 2;
  }
  if (!config.log_jsonl.empty()) rasa::SetLogJsonlPath(config.log_jsonl);
  if (config.trace) rasa::Tracer::Default().Enable(true);
  if (config.command == "generate") return Generate(config);
  if (config.command == "stats") return Stats(config);
  if (config.command == "optimize") return Optimize(config);
  if (config.command == "workflow") return Workflow(config);
  if (config.command == "explain") return Explain(config);
  if (config.command == "recover") return Recover(config);
  if (config.command == "tail") return Tail(config);
  // Unreachable: ParseCliConfig rejected unknown subcommands.
  return HelpOverview();
}
