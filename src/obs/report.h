// Run ledger + regression report: the self-observability layer's persistent
// output and the tool that reads it back.
//
// Every simprof command and bench run emits a schema-versioned JSON run
// manifest ("simprof.manifest/1") at process exit: build provenance
// (git sha, build type, cache/checkpoint schema versions), the full config
// and seed, the complete metrics snapshot, a span-rollup profile
// (self/inclusive time and call counts, deterministic across thread
// counts), estimator-quality figures (phase count, silhouette, CI widths,
// sampling error vs oracle) and checkpoint health. `simprof report` diffs
// two manifests — or gates the newest run of a directory time series
// against its predecessor — and exits non-zero when a latency or quality
// threshold is breached, so CI can gate on the repo's own numbers.
//
// Determinism contract: the ledger only *observes* (counters, rollups,
// quality figures already computed by the pipeline); writing a manifest
// never feeds back into any computation. The manifest's deterministic
// sections (span-rollup (name, count), quality figures, metrics counters)
// are bit-identical across thread counts; wall-clock fields are
// measurements and are compared only against thresholds, never for
// identity.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace simprof::obs {

inline constexpr int kManifestSchemaVersion = 1;

// ---------------------------------------------------------------------------
// Build provenance.

struct BuildInfo {
  std::string git_sha;     ///< short sha, "unknown" outside a checkout
  std::string build_type;  ///< CMAKE_BUILD_TYPE, "unspecified" if empty
};

/// Compile-time provenance (CMake-injected), overridable at runtime via
/// $SIMPROF_GIT_SHA / $SIMPROF_BUILD_TYPE (bench/run.sh stamps HEAD's sha,
/// which may be newer than the last configure).
BuildInfo build_info();

// ---------------------------------------------------------------------------
// Run ledger: accumulates run facts, writes the manifest at process exit.

class RunLedger {
 public:
  /// Start a run: records tool/verb/args and the start timestamp, enables
  /// manifest emission. Idempotent facts (config/quality) may be set before
  /// or after begin().
  void begin(std::string_view tool, std::string_view verb,
             std::vector<std::string> args);

  /// Where write() puts the manifest. Unset → default_manifest_path(verb).
  void set_output_path(std::string path);

  /// Turn emission off (e.g. --no-manifest); write() becomes a no-op.
  void disable();
  bool enabled() const;

  /// Config facts (seed, scale, workload …) — rendered as JSON strings.
  void set_config(std::string_view key, std::string_view value);
  /// Estimator-quality figures (silhouette, sampling_error_frac …).
  void set_quality(std::string_view key, double value);
  /// Schema versions beyond the built-in cache/checkpoint pair.
  void set_schema(std::string_view key, std::uint64_t version);
  void set_exit_code(int code);

  /// The manifest as a JSON document (always available, even when
  /// disabled — tests use this without touching the filesystem).
  std::string to_json() const;

  /// Write the manifest to the output path (creating parent directories).
  /// No-op unless begin() ran and the ledger is enabled. Returns true when
  /// a file was written.
  bool write();

  /// Test support: forget everything, as if begin() never ran.
  void reset();

 private:
  friend RunLedger& ledger();
  RunLedger() = default;

  struct State;
  std::unique_ptr<State> state_;
};

/// The process-wide ledger (leaky singleton).
RunLedger& ledger();

/// Default manifest location for a verb: $SIMPROF_MANIFEST_DIR (or
/// ".simprof_manifests") / "manifest-<verb>-<unix_ms>-<pid>.json".
std::string default_manifest_path(std::string_view verb);

// ---------------------------------------------------------------------------
// Minimal JSON reader (reading is confined to this component; the emission
// helpers in json.h stay parse-free).

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }

  bool as_bool() const { return b_; }
  double as_number() const { return num_; }
  const std::string& as_string() const { return str_; }
  const std::vector<JsonValue>& as_array() const { return arr_; }
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const {
    return obj_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
  /// Convenience: find(key) as a number, or `fallback`.
  double number_or(std::string_view key, double fallback) const;
  /// Convenience: find(key) as a string, or `fallback`.
  std::string string_or(std::string_view key, std::string_view fallback) const;

 private:
  friend std::optional<JsonValue> parse_json(std::string_view text);
  friend class JsonParser;

  Type type_ = Type::kNull;
  bool b_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

/// Parse a complete JSON document (trailing garbage → nullopt).
std::optional<JsonValue> parse_json(std::string_view text);

/// Read + parse a file; logs a kError line and returns nullopt on failure.
std::optional<JsonValue> load_json_file(const std::string& path);

// ---------------------------------------------------------------------------
// Manifest diffing / regression gating.

struct ReportThresholds {
  /// Relative wall-time growth that counts as a regression (0.25 = +25%).
  double latency_frac = 0.25;
  /// Relative degradation of a quality figure that counts as a regression.
  double quality_frac = 0.10;
  /// Absolute wall-time floor (ms): growth below this never flags, so
  /// micro-runs don't trip on scheduler noise.
  double latency_min_delta_ms = 5.0;
};

struct ReportFinding {
  enum class Kind { kRegression, kImprovement, kInfo };
  Kind kind = Kind::kInfo;
  std::string metric;   ///< e.g. "duration_ms", "quality.silhouette"
  double base = 0.0;
  double current = 0.0;
  std::string detail;   ///< human-readable one-liner
};

struct RunReport {
  std::string base_label;
  std::string current_label;
  std::vector<ReportFinding> findings;

  std::size_t regressions() const;
  std::string to_markdown() const;
  std::string to_json() const;
};

/// Diff two parsed manifests (base vs current) against the thresholds.
RunReport diff_manifests(const JsonValue& base, const JsonValue& current,
                         const ReportThresholds& thresholds,
                         std::string_view base_label,
                         std::string_view current_label);

struct DirectoryReport {
  RunReport gate;           ///< newest vs previous manifest
  std::string series_md;    ///< markdown time-series table (all manifests)
  std::size_t manifest_count = 0;
};

/// Load every "*.json" manifest in `dir` (schema-checked), order by
/// started_unix_ms, gate newest vs previous, and render a series table.
/// nullopt when fewer than two manifests parse.
std::optional<DirectoryReport> report_directory(
    const std::string& dir, const ReportThresholds& thresholds);

}  // namespace simprof::obs
