#ifndef RASA_BENCH_BENCH_COMPARE_LIB_H_
#define RASA_BENCH_BENCH_COMPARE_LIB_H_

// Comparison of two BENCH_<name>.json result files (the flat
// array-of-objects format emitted by BenchJsonWriter). Header-only on top
// of rasa_common's strict JSON reader, so both the bench_compare tool and
// its unit test can use it without dragging in the solver libraries.
//
// Rows are matched across the two files by their *identity*: every
// string-valued field plus the integer axis fields in kAxisKeys (e.g.
// "threads"), rendered as "key=value" and joined with "|". The remaining
// numeric fields are classified by key name into lower-is-better (timings,
// failure counts) and higher-is-better (quality) metrics; a metric that
// moved in the bad direction by more than the relative tolerance (default
// 10%) is a regression. Unclassified numeric fields are informational and
// never flagged.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/telemetry.h"

namespace rasa::bench {

/// One flat JSON object, in file order (BenchJsonWriter never nests).
using BenchRow = std::vector<std::pair<std::string, JsonValue>>;

namespace compare_internal {

inline bool KeyContains(const std::string& key, const char* needle) {
  return key.find(needle) != std::string::npos;
}

}  // namespace compare_internal

/// Parses one BENCH_<name>.json payload through the strict common JSON
/// reader. Returns false and sets `error` (when non-null) on malformed
/// input, on a top level that is not an array of objects, and on nested
/// member values (BenchJsonWriter never nests).
inline bool ParseBenchJson(const std::string& text, std::vector<BenchRow>* rows,
                           std::string* error = nullptr) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  StatusOr<JsonValue> doc = ParseJson(text);
  if (!doc.ok()) return fail(doc.status().ToString());
  if (doc->kind != JsonValue::Kind::kArray) {
    return fail("expected an array of objects at top level");
  }
  for (JsonValue& object : doc->array) {
    if (object.kind != JsonValue::Kind::kObject) {
      return fail("expected an object in the top-level array");
    }
    for (const auto& [key, value] : object.object) {
      if (value.kind == JsonValue::Kind::kArray ||
          value.kind == JsonValue::Kind::kObject) {
        return fail("nested value for key \"" + key + "\"");
      }
    }
    rows->push_back(std::move(object.object));
  }
  return true;
}

/// Integer-valued fields that are part of a row's identity rather than a
/// measurement (the x-axis of the bench, not its y-axis).
inline bool IsAxisKey(const std::string& key) {
  static const char* const kAxisKeys[] = {
      "threads", "cycle",   "cycles", "scale", "size",
      "machines", "services", "containers", "seed", "index", "rep",
  };
  for (const char* axis : kAxisKeys) {
    if (key == axis) return true;
  }
  return false;
}

/// A larger value is a regression: wall times and failure tallies.
inline bool IsLowerBetter(const std::string& key) {
  using compare_internal::KeyContains;
  return KeyContains(key, "seconds") || KeyContains(key, "time") ||
         KeyContains(key, "latency") || KeyContains(key, "truncation") ||
         KeyContains(key, "failed") || KeyContains(key, "violations") ||
         KeyContains(key, "retries") || KeyContains(key, "replans") ||
         KeyContains(key, "unplaced") || KeyContains(key, "gap");
}

/// A smaller value is a regression: quality and throughput measures.
inline bool IsHigherBetter(const std::string& key) {
  using compare_internal::KeyContains;
  return KeyContains(key, "speedup") || KeyContains(key, "affinity") ||
         KeyContains(key, "ratio") || KeyContains(key, "throughput") ||
         KeyContains(key, "improvement");
}

/// The match key of a row: string fields plus integer axis fields, in file
/// order. Two rows with the same identity are compared metric by metric.
inline std::string RowIdentity(const BenchRow& row) {
  std::string id;
  for (const auto& [key, value] : row) {
    const bool is_string = value.kind == JsonValue::Kind::kString;
    const bool is_axis =
        value.kind == JsonValue::Kind::kNumber && IsAxisKey(key);
    if (!is_string && !is_axis) continue;
    if (!id.empty()) id += "|";
    id += key + "=";
    if (is_string) {
      id += value.string;
    } else {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%g", value.number);
      id += buffer;
    }
  }
  return id.empty() ? "<row>" : id;
}

struct CompareOptions {
  /// Relative move in the bad direction above which a metric regresses.
  double tolerance = 0.10;
  /// Absolute moves at or below this are never regressions (guards the
  /// relative test against zero baselines and float noise).
  double absolute_floor = 1e-9;
};

struct MetricDelta {
  std::string row;           // RowIdentity of the matched rows
  std::string key;           // metric field name
  double baseline = 0.0;
  double candidate = 0.0;
  /// Signed relative move in the *bad* direction (positive == worse), so a
  /// 12% slowdown and a 12% quality drop both report +0.12.
  double relative_worse = 0.0;
  bool regression = false;
};

struct CompareReport {
  std::vector<MetricDelta> deltas;  // every classified metric compared
  std::vector<std::string> missing_in_candidate;  // identities dropped
  std::vector<std::string> missing_in_baseline;   // identities added
  int regressions = 0;
};

/// Compares candidate against baseline row by row. Rows present in only one
/// file are reported but are not regressions (bench coverage may evolve);
/// only classified metrics that moved in the bad direction past the
/// tolerance count.
inline CompareReport CompareBench(const std::vector<BenchRow>& baseline,
                                  const std::vector<BenchRow>& candidate,
                                  const CompareOptions& options = {}) {
  CompareReport report;
  std::map<std::string, const BenchRow*> candidate_by_id;
  for (const BenchRow& row : candidate) {
    candidate_by_id.emplace(RowIdentity(row), &row);  // first wins
  }
  std::map<std::string, bool> candidate_matched;
  for (const auto& [id, row] : candidate_by_id) candidate_matched[id] = false;

  for (const BenchRow& base_row : baseline) {
    const std::string id = RowIdentity(base_row);
    auto it = candidate_by_id.find(id);
    if (it == candidate_by_id.end()) {
      report.missing_in_candidate.push_back(id);
      continue;
    }
    candidate_matched[id] = true;
    const BenchRow& cand_row = *it->second;
    for (const auto& [key, base_value] : base_row) {
      if (base_value.kind != JsonValue::Kind::kNumber || IsAxisKey(key)) {
        continue;
      }
      const bool lower_better = IsLowerBetter(key);
      const bool higher_better = !lower_better && IsHigherBetter(key);
      if (!lower_better && !higher_better) continue;
      const JsonValue* cand_value = nullptr;
      for (const auto& [ckey, cvalue] : cand_row) {
        if (ckey == key && cvalue.kind == JsonValue::Kind::kNumber) {
          cand_value = &cvalue;
          break;
        }
      }
      if (cand_value == nullptr) continue;
      MetricDelta delta;
      delta.row = id;
      delta.key = key;
      delta.baseline = base_value.number;
      delta.candidate = cand_value->number;
      const double worse_by = lower_better
                                  ? cand_value->number - base_value.number
                                  : base_value.number - cand_value->number;
      const double denom = std::max(std::abs(base_value.number),
                                    options.absolute_floor);
      delta.relative_worse = worse_by / denom;
      delta.regression = delta.relative_worse > options.tolerance &&
                         worse_by > options.absolute_floor;
      if (delta.regression) ++report.regressions;
      report.deltas.push_back(std::move(delta));
    }
  }
  for (const auto& [id, matched] : candidate_matched) {
    if (!matched) report.missing_in_baseline.push_back(id);
  }
  return report;
}

/// Human-readable summary: one line per regression, then the tally.
inline std::string FormatCompareReport(const CompareReport& report,
                                       const CompareOptions& options = {}) {
  std::string out;
  char line[512];
  for (const MetricDelta& d : report.deltas) {
    if (!d.regression) continue;
    std::snprintf(line, sizeof(line),
                  "REGRESSION  %s  %s: %.6g -> %.6g (%.1f%% worse)\n",
                  d.row.c_str(), d.key.c_str(), d.baseline, d.candidate,
                  100.0 * d.relative_worse);
    out += line;
  }
  for (const std::string& id : report.missing_in_candidate) {
    out += "missing in candidate: " + id + "\n";
  }
  for (const std::string& id : report.missing_in_baseline) {
    out += "only in candidate:    " + id + "\n";
  }
  std::snprintf(line, sizeof(line),
                "%zu metric(s) compared, %d regression(s) beyond %.0f%%\n",
                report.deltas.size(), report.regressions,
                100.0 * options.tolerance);
  out += line;
  return out;
}

}  // namespace rasa::bench

#endif  // RASA_BENCH_BENCH_COMPARE_LIB_H_
