#include "common/telemetry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/json_writer.h"
#include "common/strings.h"

namespace rasa {

// ---------------------------------------------------------------------------
// The verdict fold
// ---------------------------------------------------------------------------

const char* SloAlertStateName(SloAlertState state) {
  switch (state) {
    case SloAlertState::kOk:
      return "ok";
    case SloAlertState::kFastBurn:
      return "fast-burn";
    case SloAlertState::kSlowBurn:
      return "slow-burn";
    case SloAlertState::kPage:
      return "page";
  }
  return "?";
}

TelemetryPipeline::TelemetryPipeline(const TelemetryOptions& /*options*/) {}

AnomalyStatus TelemetryPipeline::Ewma::Update(double x) {
  AnomalyStatus status;
  if (!std::isfinite(x)) return status;  // never folded in, never flagged
  if (points == 0) {
    mean = x;
    variance = 0.0;
    ++points;
    return status;
  }
  const double std_dev =
      std::max(kAnomalyMinStd, std::sqrt(std::max(0.0, variance)));
  status.ewma = mean;
  status.ewm_std = std_dev;
  status.zscore = (x - mean) / std_dev;
  status.anomalous = points >= kAnomalyWarmup &&
                     std::abs(status.zscore) > kAnomalyZThreshold;

  // Fold in, clamping an anomalous deviation to the threshold so a single
  // spike shifts the baseline no more than a just-below-threshold point
  // would (otherwise the spike itself would mask a following regression).
  double folded = x;
  if (status.anomalous) {
    const double limit = kAnomalyZThreshold * std_dev;
    folded = mean + (status.zscore > 0.0 ? limit : -limit);
  }
  const double delta = folded - mean;
  mean += kAnomalyAlpha * delta;
  variance =
      (1.0 - kAnomalyAlpha) * (variance + kAnomalyAlpha * delta * delta);
  ++points;
  return status;
}

CycleTelemetry TelemetryPipeline::RecordCycle(const CycleSample& sample) {
  filled_ = std::min(filled_ + 1, kSloSlowWindow);
  // Violating share of the newest min(window, filled_) cycles. The bits
  // are 0/1, so the popcount is the exact sum a window mean adds up.
  const auto share = [this](uint64_t bits, int window) {
    const int n = std::min(window, filled_);
    const uint64_t mask = (uint64_t{1} << n) - 1;
    return static_cast<double>(std::popcount(bits & mask)) /
           static_cast<double>(n);
  };

  CycleTelemetry derived;
  derived.populated = true;
  for (size_t i = 0; i < violations_.size(); ++i) {
    const SloObjective objective = DefaultSloObjectives()[i];
    SloStatus status;
    status.name = objective.name;
    status.value = sample.*objective.value;
    status.has_value = std::isfinite(status.value);
    // A cycle with no signal burns nothing: it records a non-violation so
    // the windows keep sliding instead of freezing on the last known state.
    status.violated =
        status.has_value && !(status.value < objective.threshold);
    violations_[i] = ((violations_[i] << 1) | (status.violated ? 1 : 0)) &
                     ((uint64_t{1} << kSloSlowWindow) - 1);

    status.fast_burn_rate =
        share(violations_[i], kSloFastWindow) / kSloBudgetFraction;
    status.slow_burn_rate =
        share(violations_[i], kSloSlowWindow) / kSloBudgetFraction;
    const bool fast_hot = status.fast_burn_rate >= kSloFastBurnThreshold;
    const bool slow_hot = status.slow_burn_rate >= kSloSlowBurnThreshold;
    status.alert = fast_hot && slow_hot ? SloAlertState::kPage
                   : fast_hot           ? SloAlertState::kFastBurn
                   : slow_hot           ? SloAlertState::kSlowBurn
                                        : SloAlertState::kOk;
    derived.slo.push_back(std::move(status));
  }
  derived.cost = cost_.Update(sample.seconds);
  derived.gap = gap_.Update(sample.optimality_gap);
  return derived;
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition
// ---------------------------------------------------------------------------

std::string OpenMetricsName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

namespace {

// OpenMetrics floats: full round-trip precision, +Inf spelled the
// OpenMetrics way.
std::string OmDouble(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  return StrFormat("%.17g", v);
}

}  // namespace

std::string OpenMetricsText(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " counter\n";
    out += om + "_total " + StrFormat("%llu", (unsigned long long)value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " gauge\n";
    out += om + " " + OmDouble(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string om = OpenMetricsName(name);
    out += "# TYPE " + om + " histogram\n";
    // Cumulative buckets, as the exposition format requires; the registry
    // keeps per-bucket counts, so accumulate while emitting. Empty buckets
    // are skipped except the mandatory +Inf bucket.
    uint64_t cumulative = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      cumulative += h.buckets[b];
      const bool last = b == Histogram::kNumBuckets - 1;
      if (h.buckets[b] == 0 && !last) continue;
      out += om + "_bucket{le=\"" + OmDouble(Histogram::BucketUpperBound(b)) +
             "\"} " + StrFormat("%llu", (unsigned long long)cumulative) + "\n";
    }
    out += om + "_sum " + OmDouble(h.sum) + "\n";
    out += om + "_count " + StrFormat("%llu", (unsigned long long)h.count) +
           "\n";
  }
  out += "# EOF\n";
  return out;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const TraceEvent& e : events) {
    if (e.duration_seconds < 0.0) continue;  // still open
    w.BeginObject();
    w.Key("ph").Value("X");
    w.Key("ts").Value(1e6 * e.start_seconds);
    w.Key("dur").Value(1e6 * e.duration_seconds);
    w.Key("pid").Value(1);
    w.Key("tid").Value(e.tid);
    w.Key("name").Value(e.name);
    w.Key("args").BeginObject();
    w.Key("id").Value(static_cast<long>(e.id));
    w.Key("parent").Value(static_cast<long>(e.parent));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").Value("ms");
  w.EndObject();
  return w.str();
}

// ---------------------------------------------------------------------------
// Strict JSON reader
// ---------------------------------------------------------------------------

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipSpace();
    JsonValue value;
    RASA_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return InvalidArgumentError(
        StrFormat("JSON parse error at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ConsumeWord(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(StrFormat("expected '%s'", word));
      }
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return ConsumeWord("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return ConsumeWord("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ConsumeWord("null");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipSpace();
      std::string key;
      RASA_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipSpace();
      JsonValue value;
      RASA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return Status::OK();
    while (true) {
      SkipSpace();
      JsonValue value;
      RASA_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // The writers only escape control characters, so a compact
          // Latin-1 decoding covers every code point they emit; anything
          // wider passes through as UTF-8 bytes.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&]() {
      size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    const size_t integer_start = pos_;
    if (digits() == 0) return Error("expected a number");
    // JSON forbids leading zeros: "0" is fine, "01" is not.
    if (pos_ - integer_start > 1 && text_[integer_start] == '0') {
      pos_ = integer_start;
      return Error("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) return Error("expected digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) return Error("expected exponent digits");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(text_.c_str() + start, nullptr);
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

// ---------------------------------------------------------------------------
// The journal
// ---------------------------------------------------------------------------

namespace {

// The sample's journal keys, by type, in line order after "v".
constexpr std::pair<const char*, int CycleSample::*> kIntFields[] = {
    {"cycle", &CycleSample::cycle},
    {"dirty_subproblems", &CycleSample::dirty_subproblems},
    {"reused_subproblems", &CycleSample::reused_subproblems},
};
constexpr std::pair<const char*, double CycleSample::*> kDoubleFields[] = {
    {"seconds", &CycleSample::seconds},
    {"affinity_before", &CycleSample::affinity_before},
    {"gained_affinity", &CycleSample::gained_affinity},
    {"optimality_gap", &CycleSample::optimality_gap},
    {"migration_truncation", &CycleSample::migration_truncation},
    {"lp_pivots", &CycleSample::lp_pivots},
    {"refactorizations", &CycleSample::refactorizations},
    {"latency_p50", &CycleSample::latency_p50},
    {"latency_p95", &CycleSample::latency_p95},
    {"latency_p99", &CycleSample::latency_p99},
    {"error_rate", &CycleSample::error_rate},
};
constexpr std::pair<const char*, bool CycleSample::*> kBoolFields[] = {
    {"executed", &CycleSample::executed},
    {"rolled_back", &CycleSample::rolled_back},
    {"solver_failed", &CycleSample::solver_failed},
};

Status SampleKeyError(const char* key, const char* what) {
  return InvalidArgumentError(
      StrFormat("telemetry sample key '%s' %s", key, what));
}

}  // namespace

std::string CycleSampleJson(const CycleSample& sample) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Value(2);
  for (const auto& [key, field] : kIntFields) w.Key(key).Value(sample.*field);
  for (const auto& [key, field] : kDoubleFields) {
    w.Key(key).Value(sample.*field);
  }
  for (const auto& [key, field] : kBoolFields) w.Key(key).Value(sample.*field);
  w.EndObject();
  return w.str();
}

StatusOr<CycleSample> ParseCycleSample(const JsonValue& line) {
  if (line.kind != JsonValue::Kind::kObject) {
    return InvalidArgumentError("telemetry line is not a JSON object");
  }
  const JsonValue* version = line.Get("v");
  if (version == nullptr || version->kind != JsonValue::Kind::kNumber ||
      (version->number != 1.0 && version->number != 2.0)) {
    return InvalidArgumentError(
        "telemetry line has no supported \"v\" (want 1 or 2)");
  }
  CycleSample sample;
  for (const auto& [key, field] : kIntFields) {
    const JsonValue* v = line.Get(key);
    if (v == nullptr) return SampleKeyError(key, "is missing");
    if (v->kind != JsonValue::Kind::kNumber ||
        std::trunc(v->number) != v->number ||
        std::abs(v->number) > std::numeric_limits<int>::max()) {
      return SampleKeyError(key, "is not an integer");
    }
    sample.*field = static_cast<int>(v->number);
  }
  for (const auto& [key, field] : kDoubleFields) {
    const JsonValue* v = line.Get(key);
    if (v == nullptr) return SampleKeyError(key, "is missing");
    // JsonWriter spells a non-finite double `null`.
    if (v->kind == JsonValue::Kind::kNull) {
      sample.*field = std::numeric_limits<double>::quiet_NaN();
    } else if (v->kind == JsonValue::Kind::kNumber) {
      sample.*field = v->number;
    } else {
      return SampleKeyError(key, "is not a number or null");
    }
  }
  for (const auto& [key, field] : kBoolFields) {
    const JsonValue* v = line.Get(key);
    if (v == nullptr) return SampleKeyError(key, "is missing");
    if (v->kind != JsonValue::Kind::kBool) {
      return SampleKeyError(key, "is not a boolean");
    }
    sample.*field = v->boolean;
  }
  return sample;
}

namespace {

StatusOr<CycleSample> ParseSampleLine(const std::string& text) {
  RASA_ASSIGN_OR_RETURN(const JsonValue json, ParseJson(text));
  return ParseCycleSample(json);
}

}  // namespace

StatusOr<std::vector<CycleSample>> ParseTelemetryJournal(
    const std::string& text) {
  std::vector<CycleSample> samples;
  size_t offset = 0;
  for (int line = 1;; ++line) {
    const size_t newline = text.find('\n', offset);
    if (newline == std::string::npos) break;  // torn or empty tail
    StatusOr<CycleSample> sample =
        ParseSampleLine(text.substr(offset, newline - offset));
    offset = newline + 1;
    if (!sample.ok()) {
      return InvalidArgumentError(StrFormat(
          "telemetry journal line %d: %s", line,
          sample.status().message().c_str()));
    }
    if (!samples.empty() && sample->cycle <= samples.back().cycle) {
      return InvalidArgumentError(StrFormat(
          "telemetry journal line %d: cycle %d does not follow cycle %d",
          line, sample->cycle, samples.back().cycle));
    }
    samples.push_back(*std::move(sample));
  }
  return samples;
}

}  // namespace rasa
