// simprof — command-line driver for the framework. `simprof --help` lists
// the subcommands and global flags (the kCommands / kGlobalFlags tables
// below), and `simprof <subcommand> --help` the flags of one verb.
//
// `profile` runs a Table I workload on the simulated cluster and writes the
// thread profile; the analysis subcommands operate on saved profiles, so a
// profile collected once can be explored offline — the same split as the
// real tool's agent/analyzer. Every analysis decision (feature space,
// estimator, selections, sensitivity, the measured estimate) lives in
// core/analysis.h, shared with the daemon: a verb here only decodes its
// flags, calls that module and prints the result. All flags are decoded
// before any lab work starts; a malformed value exits 2.
//
// Every invocation (unless --no-manifest) writes a schema-versioned run
// manifest at exit — build sha, config, metrics, span rollup, quality — and
// `simprof report` diffs two of them (or gates the newest of a directory),
// exiting non-zero on a latency/quality regression. See DESIGN.md §6g.
#if __has_include(<malloc.h>)
#include <malloc.h>
#endif
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/analysis.h"
#include "core/checkpoint.h"
#include "data/catalog.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "support/serialize.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "verify/fault_inject.h"
#include "verify/oracle.h"
#include "verify/roundtrip.h"
#include "workloads/workloads.h"

namespace {

using namespace simprof;

struct FlagSpec {
  std::string name;    // without leading dashes; "n" doubles as "-n"
  std::string value;   // metavariable shown in help; empty → boolean flag
  std::string help;
};

const std::vector<FlagSpec> kGlobalFlags = {
    {"threads", "N",
     "worker threads for phase formation and batched lab runs "
     "(0 = hardware; output bit-identical for any N)"},
    {"checkpoint-dir", "DIR",
     "checkpoint archive root (default $SIMPROF_CHECKPOINT_DIR or "
     "<cache>/ckpt)"},
    {"checkpoint-stride", "K",
     "save a checkpoint every K unit boundaries; 0 disables (default 2)"},
    {"log-level", "LEVEL", "trace|debug|info|warn|error|off (default info)"},
    {"metrics-out", "FILE", "write a JSON metrics snapshot on exit"},
    {"trace-out", "FILE", "write Chrome trace events (Perfetto) on exit"},
    {"manifest-out", "FILE",
     "run-manifest path (default $SIMPROF_MANIFEST_DIR or "
     ".simprof_manifests/)"},
    {"no-manifest", "", "do not write a run manifest"},
    {"heartbeat", "SECS",
     "periodic progress line every SECS seconds; SIGUSR1 writes a live "
     "flight record"},
    {"help", "", "show this help"},
};

struct CommandSpec {
  std::string name;
  std::string positional;  // e.g. "<workload>"; empty → none
  std::string summary;
  std::vector<FlagSpec> flags;
};

/// The --features / --estimator flags; `what` names what they select for.
FlagSpec features_flag(const std::string& what) {
  return {"features", "MODE", what + ": freq|mav|combined (default freq)"};
}
FlagSpec estimator_flag(const std::string& what, bool with_default = true) {
  return {"estimator", "E",
          what + ": neyman|two-phase" +
              (with_default ? " (default neyman)" : "")};
}

const std::vector<CommandSpec> kCommands = {
    {"list", "", "list Table I workloads and Table II graph inputs", {}},
    {"profile",
     "<workload>",
     "run a workload under the thread profiler, write <name>.sprf",
     {{"input", "NAME", "Table II graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 1.0)"},
      {"seed", "N", "simulation seed (default 42)"},
      {"out", "FILE", "output profile path"}}},
    {"phases",
     "<profile.sprf>",
     "form phases from a saved profile and print the phase table",
     {features_flag("feature space")}},
    {"sample",
     "<profile.sprf>",
     "draw simulation points with a sampling technique",
     {{"n", "N", "sample size (default 20)"},
      {"technique", "T",
       "simprof|srs|second|code|systematic|smarts|simprof-sys "
       "(default simprof)"},
      {"seed", "N", "sampling seed (default 1)"},
      features_flag("feature space for phase formation"),
      estimator_flag("stratified estimator for the simprof technique")}},
    {"size",
     "<profile.sprf>",
     "required sample size for a target error bound",
     {{"error", "E", "relative error margin (default 0.05)"},
      {"confidence", "PCT", "confidence level: 90|95|99|99.7 (default 99.7)"},
      features_flag("feature space for phase formation")}},
    {"sensitivity",
     "<workload>",
     "train on one input, test phase sensitivity across the rest",
     {{"train", "NAME", "training graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 1.0)"},
      {"seed", "N", "simulation seed (default 42)"},
      features_flag("feature space for phase formation"),
      estimator_flag("stratified estimator for the point-budget sample")}},
    {"measure",
     "<workload>",
     "measure selected sampling units via checkpoint restore + "
     "op-tape replay (SMARTS-style)",
     {{"input", "NAME", "Table II graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 1.0)"},
      {"seed", "N", "simulation seed (default 42)"},
      {"units", "LIST", "comma-separated unit ids (overrides -n)"},
      {"n", "N", "SMARTS systematic selection size (default 10)"},
      {"sample-seed", "N", "selection seed for -n (default 1)"},
      features_flag("feature space for --estimator selection"),
      estimator_flag("select units with a stratified plan instead of SMARTS "
                     "and report its weighted CPI estimate",
                     false)}},
    {"verify",
     "",
     "fault-injection + oracle verification of the archive/cache and "
     "statistics layers",
     {{"cases", "N", "seeded archive corruption cases (default 500)"},
      {"seed", "N", "verification seed (default 1)"},
      {"resamples", "N", "CI-coverage resamples (default 10000)"},
      {"skip-lab", "", "skip the on-disk lab-cache recovery drill"}}},
    {"serve",
     "",
     "run the resident profiling daemon on a Unix socket: shared lab "
     "cache, request queue, per-client quotas and a fixed number of "
     "admission tickets (SIGINT/SIGTERM drains and exits cleanly)",
     {{"socket", "PATH", "Unix-domain socket path to listen on (required)"},
      {"max-queue", "N", "request queue capacity (default 64)"},
      {"client-inflight", "N",
       "per-connection in-flight request quota (default 8)"},
      {"tickets", "N",
       "requests run at once, one worker thread each (default 0: the "
       "host's core count; at most 256)"},
      {"tickets-max", "N",
       "ignored: kept so scripts written for the removed throughput prober "
       "still run"},
      {"fixed", "",
       "ignored: tickets are always fixed; kept so older scripts still run"},
      {"request-threads", "N",
       "threads each request's lab/analysis may use (default 1; "
       "concurrency comes from admission tickets)"}}},
    {"loadgen",
     "",
     "closed-loop load generator against a running daemon; prints QPS, "
     "latency quantiles and typed rejection counts",
     {{"socket", "PATH", "daemon socket path (required)"},
      {"clients", "N", "concurrent connections (default 4)"},
      {"requests", "N", "requests per connection (default 8)"},
      {"inflight", "N",
       "pipelined requests per connection (default 1; set above the "
       "daemon's --client-inflight to exercise typed rejections)"},
      {"workloads", "LIST",
       "comma-separated workload mix (default grep_sp)"},
      {"input", "NAME", "Table II graph input (default Google)"},
      {"scale", "S", "workload scale factor (default 0.05)"},
      {"seed", "N", "simulation seed (default 42)"},
      {"vary-seed", "",
       "use seed+i per request so each request is a distinct oracle pass"},
      {"no-analyze", "", "skip phase formation + sampling on the daemon"},
      {"sample", "N", "simulation points per request (default 8)"},
      features_flag("feature space for daemon-side analysis"),
      estimator_flag("stratified estimator for daemon-side selections"),
      {"json", "FILE", "write the loadgen report as JSON"}}},
    {"report",
     "<base.json> <new.json> | <manifest-dir>",
     "diff two run manifests (or gate the newest of a directory) and flag "
     "latency/quality regressions; exits 1 on a breach",
     {{"latency-threshold", "FRAC",
       "relative wall-time growth that fails the gate (default 0.25)"},
      {"quality-threshold", "FRAC",
       "relative quality degradation that fails the gate (default 0.10)"},
      {"min-delta", "MS",
       "absolute wall-time noise floor in ms (default 5)"},
      {"md", "FILE", "also write the markdown report to FILE"},
      {"json", "FILE", "also write the JSON report to FILE"}}},
};

/// A flag value that fails validation. main() prints it and exits 2; every
/// verb decodes all of its flags before any lab work starts.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The whole of `s` as a T; nullopt for anything else (empty, trailing
/// characters, a sign on an unsigned type, overflow).
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool help = false;

  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string opt(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }

  /// Numeric flag value, or `fallback` when the flag is absent. A malformed
  /// value throws UsageError naming the flag.
  template <typename T>
  T num(const std::string& key, T fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    if (const auto v = parse_number<T>(it->second)) return *v;
    throw UsageError("--" + key + " expects " +
                     (std::is_integral_v<T> ? "a non-negative integer"
                                            : "a number") +
                     ", got '" + it->second + "'");
  }
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

const CommandSpec* find_command(const std::string& name) {
  for (const auto& c : kCommands) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

void print_flag(std::ostream& os, const FlagSpec& f) {
  std::string left = "  --" + f.name;
  if (f.name.size() == 1) left += ", -" + f.name;
  if (!f.value.empty()) left += " " + f.value;
  os << left;
  for (std::size_t pad = left.size(); pad < 26; ++pad) os << ' ';
  os << f.help << '\n';
}

void print_usage(std::ostream& os) {
  os << "simprof — sampling framework for data-analytic workloads\n\n"
        "usage: simprof <subcommand> [flags]\n\nsubcommands:\n";
  for (const auto& c : kCommands) {
    std::string left = "  " + c.name + " " + c.positional;
    os << left;
    for (std::size_t pad = left.size(); pad < 28; ++pad) os << ' ';
    os << c.summary << '\n';
  }
  os << "\nglobal flags:\n";
  for (const auto& f : kGlobalFlags) print_flag(os, f);
  os << "\nrun `simprof <subcommand> --help` for per-subcommand flags;\n"
        "`simprof --version` prints build sha + schema versions.\n";
}

void print_command_usage(std::ostream& os, const CommandSpec& cmd) {
  os << "usage: simprof " << cmd.name;
  if (!cmd.positional.empty()) os << ' ' << cmd.positional;
  for (const auto& f : cmd.flags) {
    os << " [--" << f.name << (f.value.empty() ? "" : " " + f.value) << ']';
  }
  os << "\n\n" << cmd.summary << "\n";
  if (!cmd.flags.empty()) {
    os << "\nflags:\n";
    for (const auto& f : cmd.flags) print_flag(os, f);
  }
  os << "\nglobal flags:\n";
  for (const auto& f : kGlobalFlags) print_flag(os, f);
}

const FlagSpec* find_flag(const CommandSpec& cmd, const std::string& key) {
  for (const auto& f : cmd.flags) {
    if (f.name == key) return &f;
  }
  for (const auto& f : kGlobalFlags) {
    if (f.name == key) return &f;
  }
  return nullptr;
}

/// Parse argv[2..] against the subcommand's flag spec. Returns false (after
/// printing a diagnostic) on an unknown flag or a flag missing its value.
bool parse(const CommandSpec& cmd, int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "-h" || a == "--help") {
      args.help = true;
      continue;
    }
    const bool long_flag = a.rfind("--", 0) == 0;
    const bool short_flag = !long_flag && a.size() == 2 && a[0] == '-' &&
                            std::isalpha(static_cast<unsigned char>(a[1]));
    if (!long_flag && !short_flag) {
      args.positional.push_back(a);
      continue;
    }
    std::string key = long_flag ? a.substr(2) : a.substr(1);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      inline_value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_inline = true;
    }
    const FlagSpec* spec = find_flag(cmd, key);
    if (spec == nullptr) {
      std::cerr << "error: unknown flag '" << a << "' for `simprof "
                << cmd.name << "`\nvalid flags:";
      for (const auto& f : cmd.flags) std::cerr << " --" << f.name;
      for (const auto& f : kGlobalFlags) std::cerr << " --" << f.name;
      std::cerr << "\nrun `simprof " << cmd.name << " --help` for details.\n";
      return false;
    }
    if (spec->value.empty()) {  // boolean flag
      args.options[key] = "1";
      continue;
    }
    if (has_inline) {
      args.options[key] = inline_value;
    } else if (i + 1 < argc) {
      args.options[key] = argv[++i];
    } else {
      std::cerr << "error: flag '--" << key << "' expects a value ("
                << spec->value << ")\n";
      return false;
    }
  }
  return true;
}

/// Confidence percentage → normal z-score for the common levels.
bool confidence_to_z(double pct, double& z) {
  struct Level { double pct, z; };
  static constexpr Level kLevels[] = {
      {90.0, 1.645}, {95.0, 1.960}, {99.0, 2.576}, {99.7, 3.0}};
  for (const auto& l : kLevels) {
    if (std::abs(pct - l.pct) < 0.05) {
      z = l.z;
      return true;
    }
  }
  return false;
}

/// --features and --estimator (defaults freq and neyman).
core::AnalysisOptions analysis_options(const Args& args) {
  const std::string f = args.opt("features", "freq");
  const auto mode = features::parse_feature_mode(f);
  if (!mode) {
    throw UsageError("--features must be freq|mav|combined (got '" + f +
                     "')");
  }
  const std::string e = args.opt("estimator", "neyman");
  const auto est = core::parse_estimator(e);
  if (!est) {
    throw UsageError("--estimator must be neyman|two-phase (got '" + e +
                     "')");
  }
  core::AnalysisOptions options;
  options.features = *mode;
  options.estimator = *est;
  return options;
}

/// Echo the analysis selectors into the run manifest.
void set_analysis_config(const core::AnalysisOptions& options) {
  obs::ledger().set_config("features",
                           std::string(features::to_string(options.features)));
  obs::ledger().set_config("estimator",
                           std::string(core::to_string(options.estimator)));
}

void set_quality(const core::QualityFigures& figures) {
  for (const auto& [name, value] : figures) {
    obs::ledger().set_quality(name, value);
  }
}

/// --scale, --seed and the global checkpoint flags as a lab configuration.
core::LabConfig lab_config(const Args& args) {
  core::LabConfig cfg;
  cfg.scale = args.num("scale", cfg.scale);
  cfg.seed = args.num("seed", cfg.seed);
  cfg.checkpoint_dir = args.opt("checkpoint-dir", "");
  cfg.checkpoint_stride = args.num("checkpoint-stride", cfg.checkpoint_stride);
  return cfg;
}

core::ThreadProfile load_profile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open profile: " + path);
  }
  return core::ThreadProfile::load(in);
}

int cmd_list() {
  Table t({"name", "benchmark", "framework", "graph"});
  for (const auto& w : workloads::all_workloads()) {
    t.row({w.name, w.benchmark, std::string(workloads::to_string(w.framework)),
           w.graph_workload ? "yes" : "no"});
  }
  t.print_aligned(std::cout);
  std::cout << "\nTable II graph inputs:";
  for (const auto& e : data::snap_catalog()) {
    std::cout << ' ' << e.name << (e.training ? "(train)" : "");
  }
  std::cout << '\n';
  return 0;
}

int cmd_profile(const Args& args) {
  const std::string workload = args.positional[0];
  core::LabConfig cfg = lab_config(args);
  cfg.use_cache = false;
  const std::string input = args.opt("input", "Google");
  const std::string out = args.opt("out", workload + "-" + input + ".sprf");

  // An unwritable --out fails here, not after the oracle pass.
  const std::filesystem::path out_dir =
      std::filesystem::path(out).parent_path();
  if (::access(out_dir.empty() ? "." : out_dir.c_str(), W_OK | X_OK) != 0) {
    std::cerr << "error: cannot write profile " << out << '\n';
    return 1;
  }

  core::WorkloadLab lab(cfg);
  obs::ledger().set_config("workload", workload);
  obs::ledger().set_config("input", input);
  obs::ledger().set_config("scale", args.opt("scale", "1.0"));
  obs::ledger().set_config("seed", args.opt("seed", "42"));
  std::cout << "running " << workload << " (input " << input << ", scale "
            << cfg.scale << ") ...\n";
  auto run = lab.run(workload, input);
  if (!publish_file(out, [&](std::ostream& os) { run.profile.save(os); })) {
    std::cerr << "error: cannot write profile " << out << '\n';
    return 1;
  }
  obs::ledger().set_quality("units", static_cast<double>(run.profile.num_units()));
  obs::ledger().set_quality("oracle_cpi", run.profile.oracle_cpi());
  std::cout << "wrote " << run.profile.num_units() << " sampling units ("
            << run.profile.num_methods() << " methods) to " << out
            << "\noracle CPI " << Table::num(run.profile.oracle_cpi(), 4)
            << ", records out " << run.result.records_out << '\n';
  return 0;
}

int cmd_phases(const Args& args) {
  const core::AnalysisOptions options = analysis_options(args);
  const auto profile = load_profile(args.positional[0]);
  const auto model = core::analyze_phases(profile, options);
  const auto cov = core::cov_summary(profile, model);
  obs::ledger().set_config("profile", args.positional[0]);
  obs::ledger().set_config("features",
                           std::string(features::to_string(options.features)));
  obs::ledger().set_quality("phase_count", static_cast<double>(model.k));
  if (model.k >= 1 && model.k <= model.silhouette_scores.size()) {
    obs::ledger().set_quality("silhouette",
                              model.silhouette_scores[model.k - 1]);
  }
  obs::ledger().set_quality("cov_weighted", cov.weighted);
  std::cout << profile.num_units() << " units, " << model.k
            << " phases; CoV population " << Table::num(cov.population)
            << ", weighted " << Table::num(cov.weighted) << ", max "
            << Table::num(cov.maximum) << "\n\n";
  Table t({"phase", "units", "weight", "mean_cpi", "cov", "type",
           "dominant_method"});
  for (std::size_t h = 0; h < model.k; ++h) {
    t.row({std::to_string(h), std::to_string(model.phases[h].count),
           Table::pct(model.phases[h].weight),
           Table::num(model.phases[h].mean_cpi),
           Table::num(model.phases[h].cov),
           std::string(jvm::to_string(model.phase_types[h])),
           core::dominant_method(model, h).value_or("-")});
  }
  t.print_aligned(std::cout);
  return 0;
}

int cmd_sample(const Args& args) {
  const auto n = args.num<std::size_t>("n", 20);
  const auto seed = args.num<std::uint64_t>("seed", 1);
  const core::AnalysisOptions options = analysis_options(args);
  const std::string tech = args.opt("technique", "simprof");
  const auto technique = core::parse_technique(tech);
  if (!technique) {
    throw UsageError("unknown technique '" + tech +
                     "' (simprof|srs|second|code|systematic|smarts|"
                     "simprof-sys)");
  }
  const auto profile = load_profile(args.positional[0]);
  const core::SamplePlan plan =
      core::sample_with(profile, *technique, n, seed, options);

  obs::ledger().set_config("profile", args.positional[0]);
  obs::ledger().set_config("technique", tech);
  obs::ledger().set_config("n", args.opt("n", "20"));
  obs::ledger().set_config("seed", args.opt("seed", "1"));
  set_analysis_config(options);
  set_quality(core::plan_quality(plan, profile, options));
  std::cout << to_string(plan.technique) << " selected "
            << plan.sample_size() << " simulation points\n";
  std::cout << "estimate " << Table::num(plan.estimated_cpi, 4) << " vs oracle "
            << Table::num(profile.oracle_cpi(), 4) << " (error "
            << Table::pct(core::relative_error(plan, profile), 2) << ")";
  if (plan.standard_error > 0.0) {
    std::cout << ", 99.7% CI ±" << Table::num(plan.ci.margin, 4);
  }
  std::cout << "\nunit_id,phase,weight\n";
  for (const auto& pt : plan.points) {
    std::cout << profile.units[pt.unit_index].unit_id << ',' << pt.phase << ','
              << Table::num(pt.weight, 5) << '\n';
  }
  return 0;
}

int cmd_size(const Args& args) {
  const core::AnalysisOptions options = analysis_options(args);
  const double err = args.num("error", 0.05);
  const double conf = args.num("confidence", 99.7);
  double z = 3.0;
  if (!confidence_to_z(conf, z)) {
    std::cerr << "error: --confidence must be one of 90, 95, 99, 99.7 (got "
              << conf << ")\n";
    return 2;
  }
  const auto profile = load_profile(args.positional[0]);
  const auto model = core::analyze_phases(profile, options);
  const auto n = core::required_sample_size(model, err, z);
  std::cout << "units for " << Table::pct(err, 0) << " error at " << conf
            << "% confidence: " << n << " of " << profile.num_units() << " ("
            << Table::pct(static_cast<double>(n) /
                          static_cast<double>(profile.num_units()))
            << " of the run)\n";
  return 0;
}

int cmd_sensitivity(const Args& args) {
  const std::string workload = args.positional[0];
  const core::LabConfig cfg = lab_config(args);
  const std::string train_name = args.opt("train", "Google");
  core::SensitivityStudy study = core::graph_input_study(workload, train_name);
  study.options = analysis_options(args);
  study.budget_n = 20;
  study.budget_seed = 1;

  core::WorkloadLab lab(cfg);
  std::cout << "profiling " << train_name << " + " << study.references.size()
            << " reference inputs as one batch...\n";
  const core::SensitivityAnalysis analysed =
      core::analyze_sensitivity(lab, study);
  obs::ledger().set_config("workload", workload);
  obs::ledger().set_config("train", train_name);
  set_analysis_config(study.options);
  obs::ledger().set_quality("phase_count",
                            static_cast<double>(analysed.model.k));
  obs::ledger().set_quality(
      "sensitive_phases",
      static_cast<double>(analysed.report.num_sensitive()));
  set_quality(analysed.budget_quality);
  std::cout << analysed.report.num_sensitive() << "/" << analysed.model.k
            << " phases input-sensitive; simulation points needed per "
               "reference input: "
            << Table::pct(
                   analysed.report.sensitive_point_fraction(*analysed.budget))
            << '\n';
  return 0;
}

int cmd_measure(const Args& args) {
  const std::string workload = args.positional[0];
  const core::LabConfig cfg = lab_config(args);
  const std::string input = args.opt("input", "Google");
  // --estimator switches the selection from SMARTS-systematic to a
  // stratified plan over the formed phases (in the chosen feature space);
  // the measured units then feed that plan's weighted CPI estimate.
  const core::AnalysisOptions options = analysis_options(args);
  std::optional<core::AnalysisOptions> stratified;
  if (args.has("estimator")) stratified = options;
  std::vector<std::uint64_t> units;
  for (const std::string& tok : split_csv(args.opt("units", ""))) {
    const auto id = parse_number<std::uint64_t>(tok);
    if (!id) {
      throw UsageError("--units expects comma-separated unit ids, got '" +
                       tok + "'");
    }
    units.push_back(*id);
  }
  const auto n = args.num<std::size_t>("n", 10);
  const auto sample_seed = args.num<std::uint64_t>("sample-seed", 1);

  // The oracle pass populates the profile cache and (stride permitting)
  // records the checkpoint archives the fast path restores from.
  core::WorkloadLab lab(cfg);
  const core::LabRun run = lab.run(workload, input);
  std::optional<core::Selection> selection;
  if (units.empty()) {
    selection = core::measure_selection(run.profile, n, sample_seed,
                                        stratified);
    units = selection->unit_ids;
  }

  const auto m = lab.measure_units(workload, input, units);
  obs::ledger().set_config("workload", workload);
  obs::ledger().set_config("input", input);
  obs::ledger().set_config("seed", args.opt("seed", "42"));
  if (stratified) set_analysis_config(options);
  obs::ledger().set_quality("units_measured",
                            static_cast<double>(m.records.size()));
  Table t({"unit_id", "instructions", "cycles", "cpi"});
  for (const auto& u : m.records) {
    t.row({std::to_string(u.unit_id), std::to_string(u.counters.instructions),
           std::to_string(u.counters.cycles), Table::num(u.cpi(), 4)});
  }
  t.print_aligned(std::cout);
  std::cout << "measured " << m.records.size() << "/" << units.size()
            << " requested units\n"
            << "checkpoints_restored=" << m.checkpoints_restored
            << " fallback=" << (m.fallback ? 1 : 0)
            << " fast_forwarded_instrs=" << m.fast_forwarded_instrs << '\n';

  if (stratified && selection) {
    if (const auto est = core::measured_estimate(*selection, run.profile,
                                                 m.records, options)) {
      set_quality(est->quality);
      std::cout << "stratified estimate " << Table::num(est->cpi, 4)
                << " vs oracle " << Table::num(est->oracle_cpi, 4)
                << " (error " << Table::pct(est->error, 2) << ")\n";
    }
  }
  return 0;
}

int cmd_verify(const Args& args) {
  const auto cases = args.num<std::size_t>("cases", 500);
  const auto seed = args.num<std::uint64_t>("seed", 1);
  const auto resamples = args.num<std::size_t>("resamples", 10000);

  verify::VerifyReport report;
  std::cout << "round-trip differential check...\n";
  report.merge(verify::verify_roundtrip(seed));
  std::cout << "archive fault injection (" << cases << " cases, seed " << seed
            << ")...\n";
  report.merge(verify::verify_archive_robustness({seed, cases}));
  std::cout << "checkpoint fault injection (" << cases << " cases, seed "
            << seed << ")...\n";
  report.merge(verify::verify_checkpoint_robustness({seed, cases}));
  std::cout << "statistical oracle harness (" << resamples
            << " coverage resamples)...\n";
  verify::OracleConfig oracle;
  oracle.seed = seed;
  oracle.coverage_resamples = resamples;
  report.merge(verify::verify_statistics(oracle));
  if (!args.has("skip-lab")) {
    std::cout << "lab cache corruption drill (tiny workload)...\n";
    report.merge(verify::verify_lab_cache_recovery(seed));
    std::cout << "checkpoint corruption drill (tiny workload)...\n";
    report.merge(verify::verify_checkpoint_recovery(seed));
  }

  std::cout << '\n';
  Table t({"check", "status", "detail"});
  for (const auto& c : report.checks) {
    t.row({c.name, c.passed ? "ok" : "FAIL", c.detail});
  }
  t.print_aligned(std::cout);
  std::cout << '\n'
            << report.checks.size() - report.failures() << "/"
            << report.checks.size() << " checks passed over "
            << report.cases_run << " seeded cases (fingerprint "
            << report.fingerprint << ")\n";
  if (!report.ok()) {
    std::cerr << "error: " << report.failures() << " verification check(s) "
              << "failed\n";
    return 1;
  }
  return 0;
}

int cmd_report(const Args& args) {
  obs::ReportThresholds thresholds;
  thresholds.latency_frac = args.num("latency-threshold", 0.25);
  thresholds.quality_frac = args.num("quality-threshold", 0.10);
  thresholds.latency_min_delta_ms = args.num("min-delta", 5.0);

  obs::RunReport report;
  std::string series_md;
  if (args.positional.size() == 2) {
    const auto base = obs::load_json_file(args.positional[0]);
    const auto cur = obs::load_json_file(args.positional[1]);
    if (!base || !cur) {
      std::cerr << "error: cannot load manifests\n";
      return 2;
    }
    report = obs::diff_manifests(*base, *cur, thresholds, args.positional[0],
                                 args.positional[1]);
  } else if (args.positional.size() == 1) {
    const auto dir = obs::report_directory(args.positional[0], thresholds);
    if (!dir) {
      std::cerr << "error: need a readable directory with >= 2 manifests\n";
      return 2;
    }
    report = dir->gate;
    series_md = dir->series_md;
  } else {
    std::cerr << "error: `simprof report` takes <base.json> <new.json> or "
                 "one <manifest-dir>\n";
    return 2;
  }

  std::string md = report.to_markdown();
  if (!series_md.empty()) md += "\n" + series_md;
  std::cout << md;
  bool written = true;
  if (const std::string f = args.opt("md", ""); !f.empty()) {
    written = obs::write_json_file(f, md, "markdown report") && written;
  }
  if (const std::string f = args.opt("json", ""); !f.empty()) {
    written = obs::write_json_file(f, report.to_json(), "report") && written;
  }
  obs::ledger().set_quality("regressions",
                            static_cast<double>(report.regressions()));
  return report.regressions() > 0 || !written ? 1 : 0;
}

void print_version() {
  const obs::BuildInfo build = obs::build_info();
  std::cout << "simprof " << build.git_sha << " (" << build.build_type
            << ")\n"
            << "  cache schema      v" << core::kLabCacheSchema << "\n"
            << "  checkpoint schema v" << core::kCheckpointVersion << "\n"
            << "  manifest schema   simprof.manifest/"
            << obs::kManifestSchemaVersion << "\n";
}

/// The run-session config for the global observability flags. All values
/// are decoded here, before the session starts; throws UsageError on a
/// malformed flag.
obs::RunSessionConfig session_config(const Args& args, const std::string& verb,
                                     int argc, char** argv) {
  obs::RunSessionConfig config;
  config.tool = "simprof";
  config.verb = verb;
  config.args.assign(argv + 2, argv + argc);
  config.schemas = {{"cache", core::kLabCacheSchema},
                    {"checkpoint", core::kCheckpointVersion}};
  if (const std::string l = args.opt("log-level", ""); !l.empty()) {
    config.log_level = obs::parse_log_level(l);
    if (!config.log_level) {
      throw UsageError(
          "--log-level must be trace|debug|info|warn|error|off (got '" + l +
          "')");
    }
  }
  config.metrics_out = args.opt("metrics-out", "");
  config.trace_out = args.opt("trace-out", "");
  config.manifest_out = args.opt("manifest-out", "");
  config.no_manifest = args.has("no-manifest");
  if (args.has("heartbeat")) {
    config.heartbeat.emplace();
    config.heartbeat->period_s =
        args.num("heartbeat", config.heartbeat->period_s);
  }
  return config;
}

/// The running `serve` daemon, if any — the signal watcher routes the first
/// SIGINT/SIGTERM to its graceful drain instead of exiting.
std::atomic<simprof::service::ServiceServer*> g_serve_instance{nullptr};
sigset_t g_watched_signals;

/// Block SIGINT/SIGTERM for the whole process. Must run before any thread
/// is spawned so every thread inherits the mask and delivery is funnelled
/// to the watcher's sigwait.
void block_termination_signals() {
  sigemptyset(&g_watched_signals);
  sigaddset(&g_watched_signals, SIGINT);
  sigaddset(&g_watched_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &g_watched_signals, nullptr);
}

/// Watcher thread: sigwait for SIGINT/SIGTERM on a normal thread so the
/// response can do real work (I/O, locks) instead of being confined to
/// async-signal-safe calls. First signal: graceful — a running daemon
/// drains and the command returns 0 through the normal path; a one-shot
/// verb flushes manifests/metrics/trace and exits 128+sig (the distinct
/// interrupted exit code). Second signal: force-exit immediately.
void start_signal_watcher(obs::RunSession* session) {
  std::thread([session] {
    int signals_seen = 0;
    for (;;) {
      int sig = 0;
      if (sigwait(&g_watched_signals, &sig) != 0) continue;
      ++signals_seen;
      if (auto* server = g_serve_instance.load(std::memory_order_acquire);
          server != nullptr && signals_seen == 1) {
        std::cerr << "\nsimprof: caught " << strsignal(sig)
                  << ", draining in-flight requests (signal again to force "
                     "exit)\n";
        server->request_stop();
        continue;
      }
      std::cerr << "\nsimprof: caught " << strsignal(sig)
                << ", flushing observability outputs\n";
      session->flush(128 + sig);
      std::_Exit(128 + sig);
    }
  }).detach();
}

int cmd_serve(const Args& args) {
  service::ServiceConfig cfg;
  cfg.socket_path = args.opt("socket", "");
  if (cfg.socket_path.empty()) {
    throw UsageError("`simprof serve` needs --socket PATH");
  }
  cfg.lab = lab_config(args);
  cfg.max_queue = args.num("max-queue", cfg.max_queue);
  cfg.client_max_inflight =
      args.num("client-inflight", cfg.client_max_inflight);
  cfg.tickets = args.num("tickets", cfg.tickets);
  cfg.request_threads = args.num("request-threads", cfg.request_threads);

#ifdef M_ARENA_MAX
  // glibc gives each new thread its own malloc arena (up to 8 per core), and
  // an arena keeps the memory its thread freed: each worker (one per
  // ticket) a request lands on would keep that request's peak. With two
  // arenas the RSS levels off under distinct-key traffic; one slowed warm
  // requests by a third.
  ::mallopt(M_ARENA_MAX, 2);
#endif
  std::optional<service::ServiceServer> server;
  try {
    server.emplace(cfg);
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  const std::size_t tickets = server->config().tickets;
  obs::ledger().set_config("socket", cfg.socket_path);
  obs::ledger().set_config("tickets", std::to_string(tickets));
  const auto started = std::chrono::steady_clock::now();
  server->start();
  g_serve_instance.store(&*server, std::memory_order_release);
  std::cout << "serving on " << cfg.socket_path << " (" << tickets
            << " tickets; SIGINT/SIGTERM drains and exits)\n"
            << std::flush;
  server->wait();  // blocks until the signal watcher requests the drain
  g_serve_instance.store(nullptr, std::memory_order_release);
  const double uptime_sec = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - started)
                                .count();

  auto& metrics = obs::metrics();
  const std::uint64_t completed = metrics.counter("svc.completed").value();
  const double admission_level = metrics.gauge("svc.admission_level").value();
  obs::ledger().set_quality("service_requests",
                            static_cast<double>(completed));
  obs::ledger().set_quality(
      "service_qps",
      uptime_sec > 0.0 ? static_cast<double>(completed) / uptime_sec : 0.0);
  auto& request_ms = metrics.quantile_histogram("svc.request_ms");
  obs::ledger().set_quality("service_p50_ms", request_ms.quantile(0.50));
  obs::ledger().set_quality("service_p99_ms", request_ms.quantile(0.99));
  obs::ledger().set_quality("service_admission_level", admission_level);
  std::cout << "served " << completed << " requests ("
            << metrics.counter("svc.rejected").value() << " rejected, "
            << metrics.counter("svc.errors").value() << " errors) in "
            << Table::num(uptime_sec, 1) << "s at " << admission_level
            << " tickets\n";
  return 0;
}

int cmd_loadgen(const Args& args) {
  service::LoadgenConfig cfg;
  cfg.socket_path = args.opt("socket", "");
  if (cfg.socket_path.empty()) {
    throw UsageError("`simprof loadgen` needs --socket PATH");
  }
  cfg.clients = args.num("clients", cfg.clients);
  cfg.requests_per_client = args.num("requests", cfg.requests_per_client);
  cfg.inflight_per_client = args.num("inflight", cfg.inflight_per_client);
  cfg.scale = args.num("scale", cfg.scale);
  cfg.seed = args.num("seed", cfg.seed);
  cfg.sample_n = args.num("sample", cfg.sample_n);
  cfg.workloads = split_csv(args.opt("workloads", "grep_sp"));
  if (cfg.workloads.empty()) {
    throw UsageError("--workloads needs at least one name");
  }
  cfg.input = args.opt("input", "Google");
  cfg.analyze = !args.has("no-analyze");
  cfg.vary_seed = args.has("vary-seed");
  const core::AnalysisOptions options = analysis_options(args);
  cfg.features = static_cast<std::uint8_t>(options.features);
  cfg.estimator = static_cast<std::uint8_t>(options.estimator);

  const service::LoadgenReport report = service::run_loadgen(cfg);

  obs::ledger().set_config("socket", cfg.socket_path);
  obs::ledger().set_config("clients", std::to_string(cfg.clients));
  obs::ledger().set_config("inflight", std::to_string(cfg.inflight_per_client));
  obs::ledger().set_quality("loadgen_completed",
                            static_cast<double>(report.completed));
  obs::ledger().set_quality("loadgen_rejected",
                            static_cast<double>(report.rejected));
  obs::ledger().set_quality("loadgen_qps", report.qps);
  obs::ledger().set_quality("loadgen_p50_ms", report.p50_ms);
  obs::ledger().set_quality("loadgen_p99_ms", report.p99_ms);

  std::cout << "offered " << cfg.clients << " clients x "
            << cfg.requests_per_client << " requests (inflight "
            << cfg.inflight_per_client << ")\n"
            << "completed " << report.completed << ", rejected "
            << report.rejected << ", errors " << report.errors << '\n'
            << "qps " << Table::num(report.qps, 2) << ", p50 "
            << Table::num(report.p50_ms, 1) << "ms, p90 "
            << Table::num(report.p90_ms, 1) << "ms, p99 "
            << Table::num(report.p99_ms, 1) << "ms\n";

  if (const std::string f = args.opt("json", ""); !f.empty()) {
    std::ostringstream out;
    out << "{\n  \"completed\": " << report.completed
        << ",\n  \"rejected\": " << report.rejected
        << ",\n  \"errors\": " << report.errors
        << ",\n  \"elapsed_sec\": " << report.elapsed_sec
        << ",\n  \"qps\": " << report.qps
        << ",\n  \"p50_ms\": " << report.p50_ms
        << ",\n  \"p90_ms\": " << report.p90_ms
        << ",\n  \"p99_ms\": " << report.p99_ms << "\n}\n";
    if (!obs::write_json_file(f, out.str(), "loadgen report")) return 1;
  }
  return report.errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 2;
  }
  const std::string cmd_name = argv[1];
  if (cmd_name == "--help" || cmd_name == "-h" || cmd_name == "help") {
    print_usage(std::cout);
    return 0;
  }
  if (cmd_name == "--version" || cmd_name == "-V" || cmd_name == "version") {
    print_version();
    return 0;
  }
  const CommandSpec* cmd = find_command(cmd_name);
  if (cmd == nullptr) {
    std::cerr << "error: unknown subcommand '" << cmd_name
              << "'\nsubcommands:";
    for (const auto& c : kCommands) std::cerr << ' ' << c.name;
    std::cerr << "\nrun `simprof --help` for details.\n";
    return 2;
  }
  Args args;
  if (!parse(*cmd, argc, argv, args)) return 2;
  if (args.help) {
    print_command_usage(std::cout, *cmd);
    return 0;
  }
  if (!cmd->positional.empty() && args.positional.empty()) {
    std::cerr << "error: `simprof " << cmd->name << "` needs "
              << cmd->positional << '\n';
    print_command_usage(std::cerr, *cmd);
    return 2;
  }

  std::optional<obs::RunSession> session;
  int rc = 2;
  try {
    // Signals are blocked before any thread exists, the session's heartbeat
    // included (so every thread inherits the mask), and handled by a
    // dedicated watcher: graceful daemon drain on the first SIGINT/SIGTERM,
    // flush-then-exit(128+sig) otherwise.
    block_termination_signals();
    session.emplace(session_config(args, cmd->name, argc, argv));
    start_signal_watcher(&*session);
    // Global: --threads N caps the phase-formation thread pool for every
    // subcommand. Output is bit-identical regardless of the value.
    if (args.has("threads")) {
      support::set_default_thread_count(args.num<std::size_t>("threads", 0));
    }
    if (cmd->name == "list") rc = cmd_list();
    else if (cmd->name == "profile") rc = cmd_profile(args);
    else if (cmd->name == "phases") rc = cmd_phases(args);
    else if (cmd->name == "sample") rc = cmd_sample(args);
    else if (cmd->name == "size") rc = cmd_size(args);
    else if (cmd->name == "sensitivity") rc = cmd_sensitivity(args);
    else if (cmd->name == "measure") rc = cmd_measure(args);
    else if (cmd->name == "verify") rc = cmd_verify(args);
    else if (cmd->name == "report") rc = cmd_report(args);
    else if (cmd->name == "serve") rc = cmd_serve(args);
    else if (cmd->name == "loadgen") rc = cmd_loadgen(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << '\n';
    rc = 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    rc = 1;
  }
  if (session) session->flush(rc);
  return rc;
}
