#ifndef RASA_PERFBENCH_BENCH_H_
#define RASA_PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Threads of the solver pool every workload plans on.
inline constexpr int kPoolThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Source revision the program was built from (host context only).
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the operation tally, the metrics of the
/// requested kind (end-to-end untraced, per-layer traced), and the
/// workload's own host-context entries (scale, solver budget).
struct RunResult {
  bool correct = true;
  int attempted = 0;
  int failed = 0;
  /// Solver attempts that raced their budget slice; any makes the run's
  /// timings invalid (they measured the budget, not work).
  int deadline_hits = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;
};

/// q-quantile (q in [0, 1]) with linear interpolation; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

RunResult RunCold(const Args& args);
RunResult RunChurn(const Args& args);
RunResult RunFullscale(const Args& args);

}  // namespace perfbench

#endif  // RASA_PERFBENCH_BENCH_H_
