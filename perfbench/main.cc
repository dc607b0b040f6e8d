// Benchmark program: runs one workload for a fixed time and prints its
// metrics. Usage:
//
//   perfbench --workload cold|churn|fullscale --seed N --seconds N
//                    --trace 0|1 [--commit REV]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. Exit codes: 0 ok, 1 an output check failed or set-up failed,
// 2 bad arguments, 3 a subproblem solve raced its budget (timings invalid).

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "common/json_writer.h"

namespace perfbench {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

constexpr const char* kUsage =
    "usage: perfbench --workload cold|churn|fullscale --seed N "
    "--seconds N --trace 0|1 [--commit REV]";

[[noreturn]] void UsageError(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n%s\n", message.c_str(), kUsage);
  std::exit(2);
}

// Whole decimal number in [lo, hi]; anything else is a usage error.
uint64_t ParseNumber(const std::string& flag, const std::string& text,
                     uint64_t lo, uint64_t hi) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    UsageError(flag + " needs a whole number, got '" + text + "'");
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno != 0 || value < lo || value > hi) {
    UsageError(flag + " must be in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--commit") {
      UsageError("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) UsageError(flag + " needs a value");
    if (!flags.emplace(flag, argv[i + 1]).second) {
      UsageError(flag + " given twice");
    }
  }
  for (const std::string required :
       {"--workload", "--seed", "--seconds", "--trace"}) {
    if (flags.count(required) == 0) UsageError("missing " + required);
  }
  Args args;
  args.workload = flags["--workload"];
  if (args.workload != "cold" && args.workload != "churn" &&
      args.workload != "fullscale") {
    UsageError("unknown workload '" + args.workload + "'");
  }
  args.seed = ParseNumber("--seed", flags["--seed"], 0, 1000000000000ULL);
  args.seconds =
      static_cast<int>(ParseNumber("--seconds", flags["--seconds"], 1, 3600));
  args.trace = ParseNumber("--trace", flags["--trace"], 0, 1) == 1;
  if (flags.count("--commit")) args.commit = flags["--commit"];
  return args;
}

std::string ContextJson(const Args& args, const RunResult& run) {
  rasa::JsonWriter w;
  w.BeginObject();
  w.Key("workload").Value(args.workload);
  w.Key("workload_seed").Value(static_cast<unsigned long long>(args.seed));
  w.Key("seconds").Value(args.seconds);
  w.Key("trace").Value(args.trace);
  w.Key("hardware_threads")
      .Value(static_cast<int>(std::thread::hardware_concurrency()));
  w.Key("pool_threads").Value(kPoolThreads);
  w.Key("build_type").Value(PERFBENCH_BUILD_TYPE);
  w.Key("compiler").Value(kCompiler);
  w.Key("commit").Value(args.commit);
  for (const auto& [key, value] : run.context) w.Key(key).Value(value);
  w.EndObject();
  return w.str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  const RunResult run = args.workload == "cold"    ? RunCold(args)
                        : args.workload == "churn" ? RunChurn(args)
                                                   : RunFullscale(args);

  std::printf("context %s\n", ContextJson(args, run).c_str());
  rasa::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Value(run.correct);
  w.Key("attempted").Value(run.attempted);
  w.Key("failed").Value(run.failed);
  w.Key("metrics").BeginObject();
  for (const Metric& m : run.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
      return 1;
    }
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    w.Key(m.name).BeginObject();
    w.Key("value").Value(m.value);
    w.Key("unit").Value(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  if (!run.correct) return 1;
  return run.deadline_hits > 0 ? 3 : 0;
}
