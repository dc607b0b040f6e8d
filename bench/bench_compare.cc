// bench_compare — diffs two BENCH_<name>.json result files (the output of
// BenchJsonWriter) and fails on performance/quality regressions.
//
//   bench_compare [--tolerance=0.10] <baseline.json> <candidate.json>
//
// Rows are matched by their string/axis fields (cluster name, thread
// count, ...); numeric fields are classified by key name into
// lower-is-better (seconds, failures) and higher-is-better (speedup,
// gained affinity) and compared with the relative tolerance (default 10%,
// also settable via RASA_BENCH_COMPARE_TOL). Exit codes: 0 = no
// regressions, 1 = at least one regression, 2 = usage or parse error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_compare_lib.h"
#include "common/durable_io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_compare [--tolerance=F] <baseline.json> "
               "<candidate.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rasa::bench;

  CompareOptions options;
  if (const char* env = std::getenv("RASA_BENCH_COMPARE_TOL")) {
    const double v = std::atof(env);
    if (v > 0.0) options.tolerance = v;
  }
  const char* paths[2] = {nullptr, nullptr};
  int num_paths = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
      const double v = std::atof(argv[i] + 12);
      if (v <= 0.0) return Usage();
      options.tolerance = v;
    } else if (num_paths < 2) {
      paths[num_paths++] = argv[i];
    } else {
      return Usage();
    }
  }
  if (num_paths != 2) return Usage();

  std::vector<BenchRow> rows[2];
  for (int i = 0; i < 2; ++i) {
    const rasa::StatusOr<std::string> text = rasa::ReadFileToString(paths[i]);
    if (!text.ok()) {
      std::fprintf(stderr, "bench_compare: %s\n",
                   text.status().ToString().c_str());
      return 2;
    }
    std::string error;
    if (!ParseBenchJson(*text, &rows[i], &error)) {
      std::fprintf(stderr, "bench_compare: %s: %s\n", paths[i],
                   error.c_str());
      return 2;
    }
  }

  std::printf("baseline:  %s (%zu rows)\ncandidate: %s (%zu rows)\n",
              paths[0], rows[0].size(), paths[1], rows[1].size());
  const CompareReport report = CompareBench(rows[0], rows[1], options);
  std::fputs(FormatCompareReport(report, options).c_str(), stdout);
  return report.regressions > 0 ? 1 : 0;
}
