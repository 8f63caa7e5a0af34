#include "obs/report.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simprof::obs {
namespace {

namespace fs = std::filesystem;

std::string env_or(const char* name, std::string fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : std::move(fallback);
}

std::uint64_t unix_ms_now() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Build provenance.

BuildInfo build_info() {
#ifdef SIMPROF_BUILD_GIT_SHA
  const char* compiled_sha = SIMPROF_BUILD_GIT_SHA;
#else
  const char* compiled_sha = "unknown";
#endif
#ifdef SIMPROF_BUILD_TYPE_STR
  const char* compiled_type = SIMPROF_BUILD_TYPE_STR;
#else
  const char* compiled_type = "unspecified";
#endif
  BuildInfo info;
  info.git_sha = env_or("SIMPROF_GIT_SHA", compiled_sha);
  info.build_type = env_or("SIMPROF_BUILD_TYPE", compiled_type);
  if (info.git_sha.empty()) info.git_sha = "unknown";
  if (info.build_type.empty()) info.build_type = "unspecified";
  return info;
}

// ---------------------------------------------------------------------------
// Run ledger.

struct RunLedger::State {
  mutable std::mutex mu;
  bool begun = false;
  bool enabled = true;
  bool written = false;
  std::string tool;
  std::string verb;
  std::vector<std::string> args;
  std::string output_path;
  std::uint64_t started_unix_ms = 0;
  std::chrono::steady_clock::time_point started;
  int exit_code = 0;
  // std::map keeps sections sorted by key — deterministic manifests.
  std::map<std::string, std::string> config;
  std::map<std::string, double> quality;
  std::map<std::string, std::uint64_t> schemas;
};

void RunLedger::begin(std::string_view tool, std::string_view verb,
                      std::vector<std::string> args) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.begun = true;
  s.written = false;
  s.tool = std::string(tool);
  s.verb = std::string(verb);
  s.args = std::move(args);
  s.started_unix_ms = unix_ms_now();
  s.started = std::chrono::steady_clock::now();
}

void RunLedger::set_output_path(std::string path) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.output_path = std::move(path);
}

void RunLedger::disable() {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.enabled = false;
}

bool RunLedger::enabled() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  return s.enabled && s.begun;
}

void RunLedger::set_config(std::string_view key, std::string_view value) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.config[std::string(key)] = std::string(value);
}

void RunLedger::set_quality(std::string_view key, double value) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.quality[std::string(key)] = value;
}

void RunLedger::set_schema(std::string_view key, std::uint64_t version) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.schemas[std::string(key)] = version;
}

void RunLedger::set_exit_code(int code) {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.exit_code = code;
}

namespace {

/// Checkpoint-health keys derived from the counter snapshot: manifest field
/// name → counter name.
constexpr std::pair<const char*, const char*> kCheckpointCounters[] = {
    {"saves", "ckpt.save"},
    {"save_bytes", "ckpt.save_bytes"},
    {"restores", "ckpt.restore"},
    {"restore_bytes", "ckpt.restore_bytes"},
    {"cold_fallbacks", "ckpt.fallback"},
    {"pruned_dirs", "ckpt.pruned"},
    {"fast_forwarded_insts", "lab.fast_forward_skipped_insts"},
};

}  // namespace

std::string RunLedger::to_json() const {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  const double duration_ms =
      s.begun ? std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - s.started)
                    .count()
              : 0.0;
  const BuildInfo build = build_info();

  std::string out = "{\n";
  out += "  \"schema\": \"simprof.manifest/" +
         std::to_string(kManifestSchemaVersion) + "\",\n";
  out += "  \"schema_version\": " +
         json_number(static_cast<std::int64_t>(kManifestSchemaVersion)) +
         ",\n";
  out += "  \"tool\": " + json_quote(s.tool) + ",\n";
  out += "  \"verb\": " + json_quote(s.verb) + ",\n";
  out += "  \"args\": [";
  for (std::size_t i = 0; i < s.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_quote(s.args[i]);
  }
  out += "],\n";
  out += "  \"build\": {\"git_sha\": " + json_quote(build.git_sha) +
         ", \"build_type\": " + json_quote(build.build_type);
  for (const auto& [key, version] : s.schemas) {
    out += ", " + json_quote(key + "_schema") + ": " + json_number(version);
  }
  out += "},\n";
  out += "  \"started_unix_ms\": " + json_number(s.started_unix_ms) + ",\n";
  out += "  \"duration_ms\": " + json_number(duration_ms) + ",\n";
  out += "  \"exit_code\": " +
         json_number(static_cast<std::int64_t>(s.exit_code)) + ",\n";

  out += "  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : s.config) {
    out += first ? "" : ", ";
    first = false;
    out += json_quote(key) + ": " + json_quote(value);
  }
  out += "},\n";

  out += "  \"quality\": {";
  first = true;
  for (const auto& [key, value] : s.quality) {
    out += first ? "" : ", ";
    first = false;
    out += json_quote(key) + ": " + json_number(value);
  }
  out += "},\n";

  // Checkpoint health, derived from the (merged, deterministic) counters.
  const auto counters = metrics().counters_snapshot();
  auto counter_value = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  };
  out += "  \"checkpoint\": {";
  first = true;
  for (const auto& [field, counter] : kCheckpointCounters) {
    out += first ? "" : ", ";
    first = false;
    out += json_quote(field) + ": " + json_number(counter_value(counter));
  }
  out += "},\n";

  out += "  \"metrics\": " + metrics().to_json() + ",\n";

  out += "  \"span_rollup\": [";
  first = true;
  for (const SpanRollupRow& row : span_rollup()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\": " + json_quote(row.name);
    out += ", \"timeline\": ";
    out += row.virtual_timeline ? "\"virtual\"" : "\"wall\"";
    out += ", \"count\": " + json_number(row.count);
    out += ", \"total_us\": " + json_number(row.total_us);
    out += ", \"self_us\": " + json_number(row.self_us);
    out += ", \"max_us\": " + json_number(row.max_us);
    out += "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool RunLedger::write() {
  {
    State& s = *state_;
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.begun || !s.enabled || s.written) return false;
    if (s.output_path.empty()) s.output_path = default_manifest_path(s.verb);
  }
  const std::string doc = to_json();  // takes the lock itself
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  std::error_code ec;
  const fs::path path(s.output_path);
  if (path.has_parent_path()) fs::create_directories(path.parent_path(), ec);
  if (!write_json_file(s.output_path, doc, "run manifest")) return false;
  s.written = true;
  SIMPROF_LOG(kInfo) << "ledger: wrote run manifest " << s.output_path;
  return true;
}

void RunLedger::reset() {
  State& s = *state_;
  std::lock_guard<std::mutex> lock(s.mu);
  s.begun = false;
  s.enabled = true;
  s.written = false;
  s.tool.clear();
  s.verb.clear();
  s.args.clear();
  s.output_path.clear();
  s.started_unix_ms = 0;
  s.exit_code = 0;
  s.config.clear();
  s.quality.clear();
  s.schemas.clear();
}

RunLedger& ledger() {
  static RunLedger* instance = [] {
    auto* l = new RunLedger;  // leaky: written from static-dtor contexts
    l->state_ = std::make_unique<RunLedger::State>();
    return l;
  }();
  return *instance;
}

std::string default_manifest_path(std::string_view verb) {
  const std::string dir = env_or("SIMPROF_MANIFEST_DIR", ".simprof_manifests");
  std::string name = "manifest-";
  for (const char c : verb) {
    name.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  name += "-" + std::to_string(unix_ms_now()) + "-" +
          std::to_string(static_cast<long>(::getpid())) + ".json";
  return dir + "/" + name;
}

// ---------------------------------------------------------------------------
// JSON reader.

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type() == Type::kNumber) ? v->as_number()
                                                      : fallback;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type() == Type::kString)
             ? v->as_string()
             : std::string(fallback);
}

/// Recursive-descent parser; depth-capped so corrupt input cannot blow the
/// stack. Accepts exactly the JSON this repo emits (no comments, no NaN).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    JsonValue v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return false;
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type_ = JsonValue::Type::kString;
        return parse_string(out.str_);
      case 't':
        out.type_ = JsonValue::Type::kBool;
        out.b_ = true;
        return literal("true");
      case 'f':
        out.type_ = JsonValue::Type::kBool;
        out.b_ = false;
        return literal("false");
      case 'n':
        out.type_ = JsonValue::Type::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.type_ = JsonValue::Type::kObject;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
        return false;
      }
      if (!eat(':')) return false;
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.obj_.emplace_back(std::move(key), std::move(v));
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.type_ = JsonValue::Type::kArray;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      JsonValue v;
      if (!parse_value(v, depth + 1)) return false;
      out.arr_.push_back(std::move(v));
      if (eat(',')) continue;
      return eat(']');
    }
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return false;
          }
          // UTF-8 encode (surrogate pairs are not emitted by this repo's
          // writers; lone surrogates encode as-is, which round-trips).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return false;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out.type_ = JsonValue::Type::kNumber;
    out.num_ = v;
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

std::optional<JsonValue> load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    SIMPROF_LOG(kError) << "report: cannot read " << path;
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = parse_json(buf.str());
  if (!parsed) {
    SIMPROF_LOG(kError) << "report: invalid JSON in " << path;
  }
  return parsed;
}

// ---------------------------------------------------------------------------
// Diffing.

namespace {

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Direction table for quality figures: true → higher is better.
bool quality_higher_is_better(std::string_view key, bool& known) {
  known = true;
  if (key == "silhouette" || key == "service_qps" ||
      key == "loadgen_qps") {
    return true;
  }
  if (key == "sampling_error_frac" || key == "ci_rel_width" ||
      key == "mav_sampling_error_frac" || key == "two_phase_ci_rel_width" ||
      key == "cov_weighted" || key == "cov" || key == "service_p50_ms" ||
      key == "service_p99_ms" || key == "loadgen_p50_ms" ||
      key == "loadgen_p99_ms") {
    return false;
  }
  known = false;
  return false;
}

/// Quality keys that are denominators: they count the work a run actually
/// did (units profiled, requests served). A manifest reporting zero for one
/// of these did no work, so every other quality figure in it is vacuous —
/// previously such manifests sailed through the gate because each pairwise
/// comparison skips when both sides are zero/absent.
constexpr const char* kDenominatorQualityKeys[] = {
    "units",
    "units_measured",
    "service_requests",
    "loadgen_completed",
};

bool is_denominator_quality_key(std::string_view key) {
  for (const char* k : kDenominatorQualityKeys) {
    if (key == k) return true;
  }
  return false;
}

void add_finding(std::vector<ReportFinding>& out, ReportFinding::Kind kind,
                 std::string metric, double base, double cur,
                 std::string detail) {
  ReportFinding f;
  f.kind = kind;
  f.metric = std::move(metric);
  f.base = base;
  f.current = cur;
  f.detail = std::move(detail);
  out.push_back(std::move(f));
}

/// Latency-style comparison: higher is worse; flag when relative growth
/// exceeds the threshold AND absolute growth clears the noise floor.
void compare_latency(std::vector<ReportFinding>& out, const std::string& name,
                     double base, double cur, const ReportThresholds& t,
                     double min_delta) {
  if (base <= 0.0 && cur <= 0.0) return;
  const double delta = cur - base;
  const double rel = base > 0.0 ? delta / base : 0.0;
  if (delta > min_delta && rel > t.latency_frac) {
    add_finding(out, ReportFinding::Kind::kRegression, name, base, cur,
                name + " grew " + fmt(rel * 100.0) + "% (" + fmt(base) +
                    " -> " + fmt(cur) + ")");
  } else if (-delta > min_delta && base > 0.0 && -rel > t.latency_frac) {
    add_finding(out, ReportFinding::Kind::kImprovement, name, base, cur,
                name + " improved " + fmt(-rel * 100.0) + "% (" + fmt(base) +
                    " -> " + fmt(cur) + ")");
  }
}

const JsonValue* quantile_histograms(const JsonValue& manifest) {
  const JsonValue* metrics_obj = manifest.find("metrics");
  if (metrics_obj == nullptr) return nullptr;
  return metrics_obj->find("quantile_histograms");
}

std::uint64_t manifest_counter(const JsonValue& manifest,
                               std::string_view name) {
  const JsonValue* metrics_obj = manifest.find("metrics");
  if (metrics_obj == nullptr) return 0;
  const JsonValue* counters = metrics_obj->find("counters");
  if (counters == nullptr) return 0;
  return static_cast<std::uint64_t>(counters->number_or(name, 0.0));
}

}  // namespace

std::size_t RunReport::regressions() const {
  std::size_t n = 0;
  for (const ReportFinding& f : findings) {
    if (f.kind == ReportFinding::Kind::kRegression) ++n;
  }
  return n;
}

std::string RunReport::to_markdown() const {
  std::string out = "# simprof report\n\n";
  out += "Base: `" + base_label + "`\nCurrent: `" + current_label + "`\n\n";
  const std::size_t regs = regressions();
  out += regs == 0 ? "**No regressions.**\n\n"
                   : "**" + std::to_string(regs) + " regression" +
                         (regs == 1 ? "" : "s") + ".**\n\n";
  if (findings.empty()) return out;
  out += "| status | metric | base | current | detail |\n";
  out += "|---|---|---:|---:|---|\n";
  for (const ReportFinding& f : findings) {
    const char* status = f.kind == ReportFinding::Kind::kRegression
                             ? "REGRESSION"
                             : f.kind == ReportFinding::Kind::kImprovement
                                   ? "improvement"
                                   : "info";
    out += "| " + std::string(status) + " | " + f.metric + " | " +
           fmt(f.base) + " | " + fmt(f.current) + " | " + f.detail + " |\n";
  }
  return out;
}

std::string RunReport::to_json() const {
  std::string out = "{\n  \"schema\": \"simprof.report/1\",\n";
  out += "  \"base\": " + json_quote(base_label) + ",\n";
  out += "  \"current\": " + json_quote(current_label) + ",\n";
  out += "  \"regressions\": " +
         json_number(static_cast<std::uint64_t>(regressions())) + ",\n";
  out += "  \"findings\": [";
  bool first = true;
  for (const ReportFinding& f : findings) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    const char* kind = f.kind == ReportFinding::Kind::kRegression
                           ? "regression"
                           : f.kind == ReportFinding::Kind::kImprovement
                                 ? "improvement"
                                 : "info";
    out += "{\"kind\": \"" + std::string(kind) + "\", \"metric\": " +
           json_quote(f.metric) + ", \"base\": " + json_number(f.base) +
           ", \"current\": " + json_number(f.current) +
           ", \"detail\": " + json_quote(f.detail) + "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

RunReport diff_manifests(const JsonValue& base, const JsonValue& current,
                         const ReportThresholds& t, std::string_view base_label,
                         std::string_view current_label) {
  RunReport report;
  report.base_label = std::string(base_label);
  report.current_label = std::string(current_label);
  auto& out = report.findings;

  // Schema / context sanity (informational).
  const std::string bs = base.string_or("schema", "?");
  const std::string cs = current.string_or("schema", "?");
  if (bs != cs) {
    add_finding(out, ReportFinding::Kind::kInfo, "schema", 0, 0,
                "schema mismatch: " + bs + " vs " + cs);
  }
  const std::string bv = base.string_or("verb", "?");
  const std::string cv = current.string_or("verb", "?");
  if (bv != cv) {
    add_finding(out, ReportFinding::Kind::kInfo, "verb", 0, 0,
                "comparing different verbs: " + bv + " vs " + cv);
  }

  // End-to-end latency.
  compare_latency(out, "duration_ms", base.number_or("duration_ms", 0.0),
                  current.number_or("duration_ms", 0.0), t,
                  t.latency_min_delta_ms);

  // Shared quantile histograms: gate p50 and p99 (µs/ms-scale values — use
  // the relative threshold with a scaled noise floor).
  const JsonValue* bq = quantile_histograms(base);
  const JsonValue* cq = quantile_histograms(current);
  if (bq != nullptr && cq != nullptr) {
    for (const auto& [name, bh] : bq->as_object()) {
      const JsonValue* ch = cq->find(name);
      if (ch == nullptr || bh.type() != JsonValue::Type::kObject ||
          ch->type() != JsonValue::Type::kObject) {
        continue;
      }
      for (const char* p : {"p50", "p99"}) {
        const double b = bh.number_or(p, 0.0);
        const double c = ch->number_or(p, 0.0);
        // Noise floor: 1/16 relative bucket resolution means tiny absolute
        // shifts are quantization, not signal.
        const double floor_abs =
            std::max(b, c) / QuantileHistogram::kSubBuckets;
        compare_latency(out, name + "." + p, b, c, t, floor_abs);
      }
    }
  }

  // Quality figures (direction-aware).
  const JsonValue* bqual = base.find("quality");
  const JsonValue* cqual = current.find("quality");

  // Empty-denominator guard: a manifest whose work count (units profiled,
  // requests served) is zero computed its other quality figures over nothing,
  // and every pairwise check below skips zero-vs-zero — so a run that
  // silently did no work would gate as "no regressions". Make it explicit.
  if (cqual != nullptr) {
    for (const auto& [key, cval] : cqual->as_object()) {
      if (!is_denominator_quality_key(key) ||
          cval.type() != JsonValue::Type::kNumber) {
        continue;
      }
      const double c = cval.as_number();
      if (c > 0.0) continue;
      const double b = bqual != nullptr ? bqual->number_or(key, 0.0) : 0.0;
      add_finding(out, ReportFinding::Kind::kRegression, "quality." + key, b, c,
                  "quality." + key + " is " + fmt(c) +
                      ": the run did no work, so its quality figures are "
                      "vacuous");
    }
  }
  if (bqual != nullptr) {
    for (const auto& [key, bval] : bqual->as_object()) {
      if (!is_denominator_quality_key(key) ||
          bval.type() != JsonValue::Type::kNumber) {
        continue;
      }
      if (cqual == nullptr || cqual->find(key) == nullptr) {
        add_finding(out, ReportFinding::Kind::kRegression, "quality." + key,
                    bval.as_number(), 0.0,
                    "quality." + key +
                        " disappeared from the current manifest — cannot "
                        "prove the run did any work");
      }
    }
  }

  if (bqual != nullptr && cqual != nullptr) {
    for (const auto& [key, bval] : bqual->as_object()) {
      const JsonValue* cval = cqual->find(key);
      if (cval == nullptr || bval.type() != JsonValue::Type::kNumber ||
          cval->type() != JsonValue::Type::kNumber) {
        continue;
      }
      const double b = bval.as_number();
      const double c = cval->as_number();
      const std::string metric = "quality." + key;
      if (key == "phase_count") {
        // Phase structure is deterministic — any drift is a regression.
        if (b != c) {
          add_finding(out, ReportFinding::Kind::kRegression, metric, b, c,
                      "phase count drifted: " + fmt(b) + " -> " + fmt(c));
        }
        continue;
      }
      bool known = false;
      const bool higher_better = quality_higher_is_better(key, known);
      if (!known) {
        if (b != c) {
          add_finding(out, ReportFinding::Kind::kInfo, metric, b, c,
                      metric + " changed (no gating direction known)");
        }
        continue;
      }
      const double degraded = higher_better ? b - c : c - b;
      const double scale = std::max(std::abs(b), 1e-12);
      if (degraded / scale > t.quality_frac) {
        add_finding(out, ReportFinding::Kind::kRegression, metric, b, c,
                    metric + " degraded " + fmt(degraded / scale * 100.0) +
                        "% (" + fmt(b) + " -> " + fmt(c) + ")");
      } else if (-degraded / scale > t.quality_frac) {
        add_finding(out, ReportFinding::Kind::kImprovement, metric, b, c,
                    metric + " improved (" + fmt(b) + " -> " + fmt(c) + ")");
      }
    }
  }

  // Checkpoint health: new cold fallbacks are a regression.
  const JsonValue* bckpt = base.find("checkpoint");
  const JsonValue* cckpt = current.find("checkpoint");
  if (bckpt != nullptr && cckpt != nullptr) {
    const double b = bckpt->number_or("cold_fallbacks", 0.0);
    const double c = cckpt->number_or("cold_fallbacks", 0.0);
    if (c > b) {
      add_finding(out, ReportFinding::Kind::kRegression,
                  "checkpoint.cold_fallbacks", b, c,
                  "checkpoint cold fallbacks increased (" + fmt(b) + " -> " +
                      fmt(c) + ")");
    }
  }

  // Instrumentation health: non-finite JSON numbers appearing is a bug.
  const auto bnf =
      static_cast<double>(manifest_counter(base, "obs.json_nonfinite"));
  const auto cnf =
      static_cast<double>(manifest_counter(current, "obs.json_nonfinite"));
  if (cnf > bnf) {
    add_finding(out, ReportFinding::Kind::kRegression, "obs.json_nonfinite",
                bnf, cnf, "non-finite numbers hit the JSON writer");
  }

  // Regressions first, then improvements, then info — stable within kinds.
  std::stable_sort(out.begin(), out.end(),
                   [](const ReportFinding& a, const ReportFinding& b) {
                     return static_cast<int>(a.kind) < static_cast<int>(b.kind);
                   });
  return report;
}

std::optional<DirectoryReport> report_directory(
    const std::string& dir, const ReportThresholds& thresholds) {
  struct Entry {
    std::uint64_t started_ms;
    std::string path;
    JsonValue manifest;
  };
  std::vector<Entry> entries;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir, ec)) {
    if (!de.is_regular_file()) continue;
    if (de.path().extension() != ".json") continue;
    auto parsed = load_json_file(de.path().string());
    if (!parsed) continue;
    const std::string schema = parsed->string_or("schema", "");
    if (schema.rfind("simprof.manifest/", 0) != 0) continue;
    Entry e;
    e.started_ms =
        static_cast<std::uint64_t>(parsed->number_or("started_unix_ms", 0.0));
    e.path = de.path().filename().string();
    e.manifest = std::move(*parsed);
    entries.push_back(std::move(e));
  }
  if (ec) {
    SIMPROF_LOG(kError) << "report: cannot list " << dir << ": "
                        << ec.message();
    return std::nullopt;
  }
  if (entries.size() < 2) {
    SIMPROF_LOG(kError) << "report: need at least 2 manifests in " << dir
                        << ", found " << entries.size();
    return std::nullopt;
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.started_ms != b.started_ms) return a.started_ms < b.started_ms;
    return a.path < b.path;
  });

  DirectoryReport out;
  out.manifest_count = entries.size();
  const Entry& prev = entries[entries.size() - 2];
  const Entry& newest = entries.back();
  out.gate = diff_manifests(prev.manifest, newest.manifest, thresholds,
                            prev.path, newest.path);

  std::string md = "## series (" + std::to_string(entries.size()) +
                   " manifests)\n\n";
  md += "| manifest | verb | git sha | duration_ms | exit |\n";
  md += "|---|---|---|---:|---:|\n";
  for (const Entry& e : entries) {
    std::string sha = "?";
    if (const JsonValue* build = e.manifest.find("build")) {
      sha = build->string_or("git_sha", "?");
    }
    md += "| " + e.path + " | " + e.manifest.string_or("verb", "?") + " | " +
          sha + " | " + fmt(e.manifest.number_or("duration_ms", 0.0)) + " | " +
          fmt(e.manifest.number_or("exit_code", 0.0)) + " |\n";
  }
  out.series_md = std::move(md);
  return out;
}

}  // namespace simprof::obs
