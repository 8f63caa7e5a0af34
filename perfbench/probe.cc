// perfbench_probe: the in-process half of the repository benchmark. run.py
// builds it next to the `simprof` CLI and drives it; every subcommand prints
// one JSON object as the last line of stdout.
//
//   golden  --dir D --seed S --threads T
//       write the 12 scale-1 profiles into the lab cache D (no checkpoints)
//       and print their mean Fig. 7 sampling error (freq features, Neyman,
//       n=20, sample seeds 1000..1006).
//   clients --socket P --daemon-pid N --seed S --scale X --cold N --warm N
//           --measure N --seconds X --out-dir D
//       serve_mixed traffic from 2 closed-loop clients against a running
//       `simprof serve`: N cold profile requests, then warm profile
//       requests until X seconds have passed (at least N of them), then N
//       checkpoint-replayed measure requests.
//   layers  --dir D --seed S --scale X --ckpt-scale X --threads T
//           [--trace-out F]
//       per-layer probe: times calls into each layer's public functions
//       from outside, under spans recorded by this file.
//
// Nothing here changes what the library computes; every figure that is a
// simulated statistic is exact and repeats for a given seed.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/lab.h"
#include "core/phase.h"
#include "core/profile.h"
#include "core/sampling.h"
#include "data/catalog.h"
#include "data/kronecker.h"
#include "data/text.h"
#include "hw/mav.h"
#include "hw/memory_system.h"
#include "service/client.h"
#include "service/protocol.h"
#include "stats/feature_select.h"
#include "stats/kmeans.h"
#include "support/rng.h"
#include "support/zipf.h"
#include "workloads/workloads.h"

namespace fs = std::filesystem;
using namespace simprof;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used by this process (all threads). Timings report CPU time:
/// the work is CPU-bound, and on a virtual machine wall time also counts the
/// time the hypervisor lends the CPU to other guests.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- args ----

struct Args {
  std::map<std::string, std::string> kv;
  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  double num(const std::string& k, double def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::stod(it->second);
  }
  std::uint64_t u64(const std::string& k, std::uint64_t def) const {
    auto it = kv.find(k);
    return it == kv.end() ? def : std::stoull(it->second);
  }
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument: " + k);
    }
    a.kv[k.substr(2)] = argv[++i];
  }
  return a;
}

// ---------------------------------------------------------------- json ----

/// Flat JSON object writer (numbers, strings, number arrays).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    return raw(k, std::isfinite(v) ? s.str() : "null");
  }
  /// `v` as a JSON string literal.
  static std::string quote(const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return q + "\"";
  }
  Json& arr(const std::string& k, const std::vector<double>& v) {
    std::ostringstream s;
    s.precision(17);
    s << '[';
    for (std::size_t i = 0; i < v.size(); ++i) s << (i ? "," : "") << v[i];
    s << ']';
    return raw(k, s.str());
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --------------------------------------------------------------- spans ----

/// Spans recorded around calls into the library: name, parent, start, end
/// (wall clock) and the process CPU time spent inside. Kept in memory and
/// written as Chrome trace events when the probe ends.
class Spans {
 public:
  struct Rec {
    std::string name;
    int parent;
    double t0_us, t1_us;
    double cpu0_s, cpu1_s;
  };

  class Scope {
   public:
    Scope(Spans& s, std::string name) : s_(s), id_(s.open(std::move(name))) {}
    ~Scope() { s_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// CPU seconds since this span opened.
    double elapsed() const { return cpu_now() - s_.recs_[id_].cpu0_s; }

   private:
    Spans& s_;
    int id_;
  };

  /// Total CPU seconds spent in spans named `name`.
  double total_s(const std::string& name) const {
    double t = 0;
    for (const auto& r : recs_) {
      if (r.name == name) t += r.cpu1_s - r.cpu0_s;
    }
    return t;
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const auto& r = recs_[i];
      out << (i ? "," : "") << "{\"name\":\"" << r.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << r.t0_us
          << ",\"dur\":" << (r.t1_us - r.t0_us) << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << r.parent
          << ",\"cpu_us\":" << (r.cpu1_s - r.cpu0_s) * 1e6 << "}}";
    }
    out << "]}\n";
  }

 private:
  int open(std::string name) {
    recs_.push_back({std::move(name), stack_.empty() ? -1 : stack_.back(),
                     now_us(), 0.0, cpu_now(), 0.0});
    stack_.push_back(static_cast<int>(recs_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    recs_[id].t1_us = now_us();
    recs_[id].cpu1_s = cpu_now();
    stack_.pop_back();
  }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Rec> recs_;
  std::vector<int> stack_;
};

// ------------------------------------------------------------- helpers ----

const std::vector<std::string>& all_configs() {
  static const std::vector<std::string> names = {
      "sort_hp", "sort_sp", "wc_hp",   "wc_sp", "grep_hp", "grep_sp",
      "bayes_hp", "bayes_sp", "cc_hp", "cc_sp", "rank_hp", "rank_sp"};
  return names;
}

/// CPU seconds (user + system) used so far by process `pid`, from procfs.
double proc_cpu_s(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), {});
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string f;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i >= 14) ticks += std::stod(f);  // utime, stime
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

core::ThreadProfile decode(const std::string& bytes) {
  std::istringstream in(bytes);
  return core::ThreadProfile::load(in);
}

std::string encode(const core::ThreadProfile& p) {
  std::ostringstream out;
  p.save(out);
  return out.str();
}

constexpr std::size_t kSampleN = 20;
constexpr int kSampleSeeds = 7;  // sample seeds 1000..1006, as in Fig. 7
constexpr features::FeatureMode kModes[] = {features::FeatureMode::kFreq,
                                            features::FeatureMode::kMav,
                                            features::FeatureMode::kCombined};

/// Mean relative CPI error of freq-feature Neyman samples over the sample
/// seeds (the paper's Fig. 7 figure for one profile).
double fig7_error(const core::ThreadProfile& prof, const core::PhaseModel& model) {
  double e = 0;
  for (int s = 0; s < kSampleSeeds; ++s) {
    e += core::relative_error(core::simprof_sample(prof, model, kSampleN, 1000 + s),
                              prof);
  }
  return e / kSampleSeeds;
}

// -------------------------------------------------------------- golden ----

int cmd_golden(const Args& a) {
  core::LabConfig cfg;
  cfg.scale = 1.0;
  cfg.seed = a.u64("seed", 42);
  cfg.cache_dir = a.get("dir");
  cfg.checkpoint_dir = (fs::path(cfg.cache_dir) / "ckpt").string();
  cfg.checkpoint_stride = 0;
  cfg.threads = a.u64("threads", 2);
  core::WorkloadLab lab(cfg);
  std::vector<core::BatchItem> items;
  for (const auto& c : all_configs()) items.push_back({c, "Google", {}});
  double error = 0;
  for (const auto& r : lab.run_batch(items)) {
    error += fig7_error(r.profile, core::form_phases(r.profile));
  }
  std::cout << Json()
                   .num("sampling_error_pct",
                        100.0 * error / static_cast<double>(items.size()))
                   .str()
            << '\n';
  return 0;
}

// ------------------------------------------------------------- clients ----

struct Key {
  std::string workload;
  std::uint64_t seed;
};

int cmd_clients(const Args& a) {
  const std::string socket = a.get("socket");
  const std::uint64_t seed = a.u64("seed", 42);
  const double scale = a.num("scale", 0.1);
  const std::size_t n_cold = a.u64("cold", 20);
  const std::size_t n_warm = a.u64("warm", 200);
  const std::size_t n_measure = a.u64("measure", 20);
  const long daemon_pid = static_cast<long>(a.u64("daemon-pid", 0));
  const double budget = a.num("seconds", 0);
  const auto start = Clock::now();
  const fs::path out_dir = a.get("out-dir");
  constexpr int kClients = 2;
  constexpr std::size_t kMeasureUnits = 8;

  const std::vector<std::string> mix = {"wc_sp", "grep_sp", "sort_hp"};
  std::vector<Key> keys;
  for (std::size_t i = 0; i < n_cold; ++i) keys.push_back({mix[i % 3], seed + i});

  std::mutex mu;  // guards everything below
  std::vector<double> phase_s, daemon_cpu_s, cold_ms, warm_ms, measure_ms;
  // Warm latencies per request kind (key x feature mode x estimator).
  std::vector<std::vector<double>> warm_by_kind(keys.size() * 6);
  std::vector<core::ThreadProfile> profiles(keys.size());
  std::vector<std::string> blobs(keys.size());
  std::vector<std::vector<std::uint64_t>> selections(keys.size());
  std::uint64_t attempted = 0, failed = 0, errors = 0;
  std::vector<std::string> failures;
  auto fail = [&](const std::string& why, bool error) {
    ++failed;
    if (error) ++errors;
    if (failures.size() < 8) failures.push_back(why);
  };

  // Runs `n` operations (n = 0: at least `min`, until `budget` seconds
  // after start) from kClients closed-loop connections.
  auto drive = [&](std::size_t n, std::size_t min,
                   const std::function<void(service::ServiceClient&,
                                            std::size_t)>& op) {
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    const double cpu0 = proc_cpu_s(daemon_pid);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&] {
        try {
          service::ServiceClient client(socket);
          for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (n > 0 ? i >= n : (i >= min && seconds_since(start) >= budget)) {
              break;
            }
            op(client, i);
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(mu);
          fail(std::string("client: ") + e.what(), true);
        }
      });
    }
    for (auto& t : threads) t.join();
    phase_s.push_back(seconds_since(t0));
    daemon_cpu_s.push_back(proc_cpu_s(daemon_pid) - cpu0);
  };
  auto status_ok = [&](service::Status s, const std::string& what,
                       const std::string& msg) {
    if (s == service::Status::kOk) return true;
    fail(what + ": " + std::string(service::to_string(s)) + " " + msg,
         !service::is_rejection(s));
    return false;
  };

  // (a) cold profile requests on distinct keys: oracle pass + checkpoint
  // recording on the daemon, profile bytes returned for the identity gate.
  drive(keys.size(), 0, [&](service::ServiceClient& client, std::size_t i) {
    service::ProfileRequest q;
    q.workload = keys[i].workload;
    q.scale = scale;
    q.seed = keys[i].seed;
    q.want_profile_bytes = 1;
    const auto t0 = Clock::now();
    auto reply = client.profile(q);
    const double ms = seconds_since(t0) * 1e3;
    core::ThreadProfile prof;
    bool decoded = false;
    if (reply.status == service::Status::kOk) {
      try {
        prof = decode(reply.result.profile_bytes);
        decoded = true;
      } catch (const std::exception&) {
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!status_ok(reply.status, "cold " + q.workload, reply.message)) return;
    cold_ms.push_back(ms);
    if (!decoded || reply.result.from_cache ||
        prof.num_units() != reply.result.units) {
      fail("cold " + q.workload + ": bad profile bytes", false);
      return;
    }
    blobs[i] = std::move(reply.result.profile_bytes);
    profiles[i] = std::move(prof);
    selections[i] = reply.result.selected_units;
  });

  // (b) warm profile requests cycling over keys × feature modes ×
  // estimators: cache hits plus analysis.
  drive(0, n_warm, [&](service::ServiceClient& client, std::size_t j) {
    const std::size_t i = j % keys.size();
    service::ProfileRequest q;
    q.workload = keys[i].workload;
    q.scale = scale;
    q.seed = keys[i].seed;
    q.features = static_cast<std::uint8_t>((j / keys.size()) % 3);
    q.estimator = static_cast<std::uint8_t>((j / (3 * keys.size())) % 2);
    const auto t0 = Clock::now();
    const auto reply = client.profile(q);
    const double ms = seconds_since(t0) * 1e3;
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!status_ok(reply.status, "warm " + q.workload, reply.message)) return;
    warm_ms.push_back(ms);
    warm_by_kind[j % warm_by_kind.size()].push_back(ms);
    const auto& p = profiles[i];
    if (!reply.result.from_cache || p.num_units() != reply.result.units ||
        p.oracle_cpi() != reply.result.oracle_cpi ||
        reply.result.features != q.features ||
        reply.result.estimator != q.estimator) {
      fail("warm " + q.workload + ": result differs from cold profile", false);
    }
  });

  // (c) measure requests of 8 selected units, served by checkpoint replay;
  // replayed CPIs must equal the profile's unit CPIs bit for bit. They go
  // to the grep_sp and sort_hp keys only: wc_sp replay has a known defect
  // (OS-migration draws can land in a different unit than in the oracle
  // pass), which the layers probe counts as ckpt.replay_mismatches.
  std::vector<std::size_t> measurable;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].workload != "wc_sp") measurable.push_back(i);
  }
  drive(n_measure, 0, [&](service::ServiceClient& client, std::size_t m) {
    const std::size_t i = measurable[m % measurable.size()];
    service::MeasureRequest q;
    q.workload = keys[i].workload;
    q.scale = scale;
    q.seed = keys[i].seed;
    {
      std::lock_guard<std::mutex> lock(mu);
      std::vector<std::uint64_t> units = selections[i];
      std::sort(units.begin(), units.end());
      units.erase(std::unique(units.begin(), units.end()), units.end());
      if (units.size() > kMeasureUnits) units.resize(kMeasureUnits);
      q.units = units;
    }
    const auto t0 = Clock::now();
    const auto reply = client.measure(q);
    const double ms = seconds_since(t0) * 1e3;
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!status_ok(reply.status, "measure " + q.workload, reply.message)) {
      return;
    }
    measure_ms.push_back(ms);
    const auto& r = reply.result;
    std::string why;
    if (!r.used_checkpoints || r.fallback) why = "not served by checkpoint replay";
    if (q.units.empty() || r.unit_ids != q.units || r.cpis.size() != q.units.size()) {
      why = "wrong unit set";
    }
    for (std::size_t k = 0; why.empty() && k < r.cpis.size(); ++k) {
      const std::uint64_t u = r.unit_ids[k];
      if (u >= profiles[i].num_units() || profiles[i].units[u].cpi() != r.cpis[k]) {
        why = "unit " + std::to_string(u) + " CPI differs from the profile";
      }
    }
    if (!why.empty()) {
      fail("measure " + q.workload + " seed " + std::to_string(q.seed) + ": " + why,
           false);
    }
  });

  service::StatsResult st;
  try {
    service::ServiceClient client(socket);
    st = client.stats();
  } catch (const std::exception& e) {
    fail(std::string("stats: ") + e.what(), true);
  }

  // One key per workload of the mix goes back to run.py, which compares it
  // with a one-shot `simprof profile` of the same configuration.
  fs::create_directories(out_dir);
  std::string one_shot = "[";
  for (std::size_t i = 0; i < std::min<std::size_t>(3, keys.size()); ++i) {
    std::ofstream(out_dir / ("key" + std::to_string(i) + ".sprf"),
                  std::ios::binary)
        << blobs[i];
    one_shot += (i ? ",[\"" : "[\"") + keys[i].workload + "\"," +
                std::to_string(keys[i].seed) + "]";
  }
  one_shot += "]";
  // Each kind's median latency: a kind recurs many times per run, and its
  // median drops the requests a descheduled virtual CPU stretched.
  std::vector<double> warm_kind_ms;
  for (auto& v : warm_by_kind) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    warm_kind_ms.push_back(v.size() % 2 ? v[v.size() / 2]
                                        : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2);
  }
  std::string why = "[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    why += (i ? "," : "") + Json::quote(failures[i]);
  }
  why += "]";
  std::cout << Json()
                   .arr("phase_s", phase_s)
                   .arr("daemon_cpu_s", daemon_cpu_s)
                   .arr("cold_ms", cold_ms)
                   .arr("warm_ms", warm_ms)
                   .arr("warm_kind_ms", warm_kind_ms)
                   .arr("measure_ms", measure_ms)
                   .num("attempted", static_cast<double>(attempted))
                   .num("failed", static_cast<double>(failed))
                   .num("errors", static_cast<double>(errors))
                   .num("rejected", static_cast<double>(st.rejected))
                   .num("admission_level", static_cast<double>(st.admission_level))
                   .raw("one_shot", one_shot)
                   .raw("failures", why)
                   .str()
            << '\n';
  return 0;
}

// -------------------------------------------------------------- layers ----

/// Input configuration of a cold_profile workload, mirroring the private
/// helpers in src/workloads (text: corpus_config; graphs: load_graph).
struct Inputs {
  bool graph = false;
  data::TextConfig text;
  data::KroneckerConfig kron;
  bool symmetrize = false;
};

Inputs inputs_of(const std::string& config, double scale, std::uint64_t seed) {
  Inputs in;
  if (config == "cc_sp" || config == "rank_hp") {
    in.graph = true;
    in.symmetrize = config == "cc_sp";
    in.kron = data::catalog_entry("Google", in.symmetrize ? 17 : 16).kron;
    in.kron.seed ^= seed * 0x9e37ULL;
    return in;
  }
  const auto ts = workloads::detail::text_scale(scale);
  in.text.num_words = ts.num_words;
  in.text.vocabulary = ts.vocabulary;
  in.text.zipf_skew = 1.0;
  in.text.mean_doc_words = 160;
  in.text.seed = seed;
  return in;
}

int cmd_layers(const Args& a) {
  const fs::path dir = a.get("dir");
  const std::uint64_t seed = a.u64("seed", 42);
  const double scale = a.num("scale", 1.0);
  const double ckpt_scale = a.num("ckpt-scale", 0.1);
  const std::size_t threads = a.u64("threads", 2);
  fs::create_directories(dir);

  Spans spans;
  Json out;
  std::uint64_t attempted = 0, failed = 0;

  core::LabConfig base;
  base.scale = scale;
  base.seed = seed;
  exec::ClusterConfig cc = core::WorkloadLab(base).cluster_config();
  cc.seed = seed;

  // Input synthesis, functional execution and profiler hooks, per config.
  // The timed synthesis is the non-memoized entry point; the memoized one
  // is then primed untimed, so every workload call finds its inputs built.
  // The hooked call sits between two unprofiled ones, and the hook's cost
  // is its excess over their mean, so drift within the probe cancels.
  std::vector<std::string> profiles;
  hw::PmuCounters sim;
  std::uint64_t units = 0;
  double save_s = 0, load_s = 0, bytes = 0;
  for (const std::string config : {"wc_sp", "sort_hp", "cc_sp", "rank_hp"}) {
    const Inputs in = inputs_of(config, scale, seed);
    workloads::WorkloadParams params;
    params.scale = scale;
    params.seed = seed;
    const auto& info = workloads::workload(config);
    double synth_s = 0;
    {
      Spans::Scope s(spans, in.graph ? "data.graph_synth" : "data.text_synth");
      if (in.graph) {
        const auto g = data::kronecker_graph(in.kron, in.symmetrize);
        if (config == "cc_sp") out.num("data.edges", static_cast<double>(g.num_edges()));
      } else {
        const auto corpus = data::TextCorpus::synthesize(in.text);
        if (config == "wc_sp") out.num("data.words", static_cast<double>(corpus.words().size()));
      }
      synth_s = s.elapsed();
    }
    if (in.graph) {
      data::kronecker_graph_shared(in.kron, in.symmetrize);
    } else {
      data::TextCorpus::synthesize_shared(in.text);
    }
    if (config == "wc_sp") out.num("data.text_synth_ms", synth_s * 1e3);
    if (config == "cc_sp") out.num("data.graph_synth_ms", synth_s * 1e3);

    auto run_unprofiled = [&] {
      Spans::Scope s(spans, "exec.run_unprofiled");
      exec::Cluster cluster(cc);
      info.run(cluster, params);
      return s.elapsed();
    };
    core::ThreadProfile prof;
    double hooked_s = 0;
    double plain_s = run_unprofiled();
    {
      Spans::Scope s(spans, "exec.hooked_run");
      exec::Cluster cluster(cc);
      core::SamplingManager manager(cluster.methods());
      cluster.set_profiling_hook(&manager);
      info.run(cluster, params);
      prof = manager.take_profile();
      hooked_s = s.elapsed();
    }
    plain_s = (plain_s + run_unprofiled()) / 2;
    std::string blob;
    double cfg_save_s = 0;
    {
      Spans::Scope s(spans, "lab.profile_save");
      blob = encode(prof);
      cfg_save_s = s.elapsed();
    }
    core::ThreadProfile loaded;
    {
      Spans::Scope s(spans, "lab.profile_load");
      loaded = decode(blob);
      load_s += s.elapsed();
    }
    ++attempted;
    if (encode(loaded) != blob) ++failed;  // the round trip is exact
    save_s += cfg_save_s;
    bytes += static_cast<double>(blob.size());
    const std::string p = "split." + config + ".";
    out.num(p + "synth_s", synth_s)
        .num(p + "run_unprofiled_s", plain_s)
        .num(p + "hook_s", hooked_s - plain_s)
        .num(p + "save_s", cfg_save_s);
    if (config == "wc_sp") {
      std::uint64_t touches = 0;
      for (const auto& u : prof.units) touches += u.counters.line_touches;
      out.num("wc_sp.line_touches", static_cast<double>(touches))
          .num("exec.run_unprofiled_s", plain_s)
          .num("core.hook_s", hooked_s - plain_s);
    }
    for (const auto& u : prof.units) {
      sim.instructions += u.counters.instructions;
      sim.cycles += u.counters.cycles;
      sim.line_touches += u.counters.line_touches;
      sim.l1_misses += u.counters.l1_misses;
      sim.l2_misses += u.counters.l2_misses;
      sim.llc_misses += u.counters.llc_misses;
    }
    units += prof.num_units();
    profiles.push_back(std::move(blob));
  }
  out.num("lab.profile_save_ms", save_s * 1e3 / 4)
      .num("lab.profile_load_ms", load_s * 1e3 / 4)
      .num("lab.profile_bytes", bytes)
      .num("sim.units", static_cast<double>(units))
      .num("sim.instructions", static_cast<double>(sim.instructions))
      .num("sim.line_touches", static_cast<double>(sim.line_touches))
      .num("sim.l1_misses", static_cast<double>(sim.l1_misses))
      .num("sim.l2_misses", static_cast<double>(sim.l2_misses))
      .num("sim.llc_misses", static_cast<double>(sim.llc_misses))
      .num("sim.oracle_cpi", sim.cpi());

  // Zipf draws over the wc_sp vocabulary.
  {
    const Inputs in = inputs_of("wc_sp", scale, seed);
    const ZipfSampler zipf(in.text.vocabulary, in.text.zipf_skew);
    Rng rng(seed);
    constexpr std::size_t kDraws = 2'000'000;
    std::uint64_t sink = 0;
    Spans::Scope s(spans, "support.zipf_sample");
    for (std::size_t i = 0; i < kDraws; ++i) sink += zipf.sample(rng);
    out.num("support.zipf_ns_per_draw", s.elapsed() * 1e9 / kDraws);
    if (sink == 0) std::cerr << "zipf: empty draws\n";
  }

  // Checkpoint record/save/load/replay on wc_sp at the daemon's scale.
  {
    core::LabConfig lc;
    lc.scale = ckpt_scale;
    lc.seed = seed;
    lc.threads = 1;
    auto lab_at = [&](const std::string& name, std::uint64_t stride) {
      core::LabConfig c = lc;
      c.cache_dir = (dir / name).string();
      c.checkpoint_dir = (dir / name / "ckpt").string();
      c.checkpoint_stride = stride;
      return core::WorkloadLab(c);
    };
    lab_at("warm", 0).run("wc_sp");  // memoize inputs for both timed passes
    core::WorkloadLab rec = lab_at("rec", 2);
    double rec_s = 0, plain_s = 0;
    core::ThreadProfile prof;
    {
      Spans::Scope s(spans, "ckpt.record_run");
      prof = rec.run("wc_sp").profile;
      rec_s = s.elapsed();
    }
    {
      Spans::Scope s(spans, "ckpt.plain_run");
      lab_at("plain", 0).run("wc_sp");
      plain_s = s.elapsed();
    }
    out.num("ckpt.record_s", rec_s - plain_s);

    const fs::path cdir = rec.checkpoint_dir_for("wc_sp", "Google", seed);
    const std::string key = cdir.filename().string();
    std::vector<std::pair<std::uint64_t, fs::path>> archives;
    double archive_bytes = 0;
    for (const auto& e : fs::directory_iterator(cdir)) {
      const std::string n = e.path().filename().string();
      if (n.rfind("ckpt-u", 0) != 0) continue;
      archives.emplace_back(std::stoull(n.substr(6)), e.path());
      archive_bytes += static_cast<double>(fs::file_size(e.path()));
    }
    std::sort(archives.begin(), archives.end());
    out.num("ckpt.archives", static_cast<double>(archives.size()))
        .num("ckpt.archive_bytes", archive_bytes);

    // Load and re-save up to 8 archives spread over the run; their op tapes
    // feed the cache-model and MAV timings below.
    exec::ClusterConfig rcc = rec.cluster_config();
    rcc.seed = seed;
    std::vector<core::CheckpointTape> tapes;
    double load_ms = 0, save_ms = 0;
    const std::size_t step = std::max<std::size_t>(1, archives.size() / 8);
    for (std::size_t i = 0; i < archives.size(); i += step) {
      exec::Cluster cluster(rcc);
      core::CheckpointTape tape;
      {
        Spans::Scope s(spans, "ckpt.load");
        std::ifstream in(archives[i].second, std::ios::binary);
        core::load_checkpoint(in, cluster, key, archives[i].first, &tape);
        load_ms += s.elapsed() * 1e3;
      }
      {
        Spans::Scope s(spans, "ckpt.save");
        std::ostringstream os;
        core::save_checkpoint(os, cluster, key, archives[i].first, tape);
        save_ms += s.elapsed() * 1e3;
      }
      tapes.push_back(std::move(tape));
    }
    const double n_loaded = static_cast<double>(std::max<std::size_t>(1, tapes.size()));
    out.num("ckpt.load_ms", load_ms / n_loaded).num("ckpt.save_ms", save_ms / n_loaded);

    std::vector<std::uint64_t> targets;
    for (std::size_t k = 0; k < 8; ++k) {
      targets.push_back(prof.num_units() * (2 * k + 1) / 16);
    }
    {
      Spans::Scope s(spans, "ckpt.replay");
      const auto m = rec.measure_units("wc_sp", "Google", targets);
      out.num("ckpt.replay_ms_per_unit", s.elapsed() * 1e3 / 8);
      ++attempted;
      if (!m.used_checkpoints || m.fallback || m.records.size() != 8) ++failed;
    }
    // Replay every unit and count those whose counters differ from the
    // oracle pass: a known wc_sp defect, reported as an exact count rather
    // than as failed operations.
    {
      std::vector<std::uint64_t> all(prof.num_units());
      for (std::uint64_t u = 0; u < all.size(); ++u) all[u] = u;
      const auto m = rec.measure_units("wc_sp", "Google", all);
      double mismatches = 0;
      for (const auto& r : m.records) {
        if (r.cpi() != prof.units[r.unit_id].cpi()) ++mismatches;
      }
      out.num("ckpt.replay_mismatches", mismatches);
    }

    // Cache model, then MAV tracker, over the recorded touches.
    hw::MemorySystem memory(rcc.memory);
    std::vector<std::pair<hw::LineAddr, hw::AccessLevel>> touches;
    {
      Spans::Scope s(spans, "hw.cache_model");
      for (const auto& tape : tapes) {
        for (const auto& op : tape) {
          for (const auto& ref : op.refs) {
            touches.emplace_back(ref.line, memory.access_outcome(0, ref).level);
          }
        }
      }
      out.num("hw.cache_ns_per_touch",
              s.elapsed() * 1e9 / static_cast<double>(std::max<std::size_t>(1, touches.size())));
    }
    {
      hw::ReuseTracker tracker;
      std::uint64_t sink = 0;
      Spans::Scope s(spans, "hw.mav_tracker");
      std::size_t t = 0;
      for (const auto& tape : tapes) {
        for (const auto& op : tape) {
          for (std::size_t r = 0; r < op.refs.size(); ++r, ++t) {
            tracker.record(touches[t].first, touches[t].second);
          }
        }
        sink += tracker.block().total();
        tracker.reset();
      }
      out.num("hw.mav_ns_per_touch",
              s.elapsed() * 1e9 / static_cast<double>(std::max<std::size_t>(1, touches.size())));
      if (sink != touches.size()) ++failed;
      ++attempted;
    }
  }

  // Feature build, clustering and sampling on the 4 profiles above.
  double error_sum = 0;
  for (const auto& blob : profiles) {
    const core::ThreadProfile prof = decode(blob);
    for (const auto mode : kModes) {
      const std::string m(features::to_string(mode));
      stats::SparseMatrix sparse;
      {
        Spans::Scope s(spans, "features.build." + m);
        sparse = core::build_sparse_feature_matrix(prof, mode);
      }
      if (mode == features::FeatureMode::kFreq) {
        // The two stats steps of form_phases, called directly.
        std::vector<double> ipc(prof.num_units());
        for (std::size_t u = 0; u < ipc.size(); ++u) ipc[u] = prof.units[u].ipc();
        std::vector<double> scores;
        {
          Spans::Scope s(spans, "stats.f_regression");
          scores = stats::f_regression(sparse, ipc, threads);
        }
        core::PhaseFormationConfig defaults;
        for (double& v : scores) {
          if (v < defaults.min_f_score) v = 0.0;
        }
        const auto selected = stats::top_k_indices(scores, defaults.top_k_features);
        if (!selected.empty()) {
          stats::Matrix x = sparse.select_columns_dense(selected, threads);
          x.normalize_rows_l1();
          Rng rng(defaults.seed);
          stats::ChooseKConfig ck = defaults.choose_k;
          ck.threads = threads;
          Spans::Scope s(spans, "stats.choose_k");
          stats::choose_k(x, rng, ck);
        }
      }
      core::PhaseFormationConfig cfg;
      cfg.features = mode;
      cfg.threads = threads;
      core::PhaseModel model;
      {
        Spans::Scope s(spans, "core.form_phases." + m);
        model = core::form_phases(prof, cfg);
      }
      for (int sd = 0; sd < kSampleSeeds; ++sd) {
        core::SamplePlan ney;
        {
          Spans::Scope s(spans, "core.sample.neyman");
          ney = core::simprof_sample(prof, model, kSampleN, 1000 + sd);
        }
        {
          Spans::Scope s(spans, "core.sample.two_phase");
          core::two_phase_sample(prof, model, kSampleN, 1000 + sd);
        }
        if (mode == features::FeatureMode::kFreq) {
          error_sum += core::relative_error(ney, prof) / kSampleSeeds;
        }
      }
    }
  }
  const double np = static_cast<double>(profiles.size());
  for (const char* m : {"freq", "mav", "combined"}) {
    out.num(std::string("features.build_ms.") + m,
            spans.total_s(std::string("features.build.") + m) * 1e3 / np)
        .num(std::string("core.form_phases_ms.") + m,
             spans.total_s(std::string("core.form_phases.") + m) * 1e3 / np);
  }
  out.num("stats.f_regression_ms", spans.total_s("stats.f_regression") * 1e3 / np)
      .num("stats.choose_k_ms", spans.total_s("stats.choose_k") * 1e3 / np)
      .num("core.sample_ms.neyman",
           spans.total_s("core.sample.neyman") * 1e3 / (np * 3 * kSampleSeeds))
      .num("core.sample_ms.two_phase",
           spans.total_s("core.sample.two_phase") * 1e3 / (np * 3 * kSampleSeeds))
      .num("quality.sampling_error_pct", 100.0 * error_sum / np);

  // Service codec: a warm ProfileResult write/read round trip.
  {
    service::ProfileResult r;
    r.units = 1000;
    r.oracle_cpi = 1.25;
    for (std::uint64_t u = 0; u < 8; ++u) {
      r.selected_units.push_back(u * 97);
      r.weights.push_back(0.125);
    }
    constexpr int kTrips = 20000;
    std::uint64_t sink = 0;
    Spans::Scope s(spans, "svc.codec");
    for (int i = 0; i < kTrips; ++i) {
      std::ostringstream os;
      BinaryWriter w(os);
      r.write(w);
      std::istringstream is(os.str());
      BinaryReader rd(is);
      sink += service::ProfileResult::read(rd).selected_units.size();
    }
    out.num("svc.codec_us", s.elapsed() * 1e6 / kTrips);
    ++attempted;
    if (sink != 8ull * kTrips) ++failed;
  }

  spans.write(a.get("trace-out"));
  out.num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed));
  std::cout << out.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe golden|clients|layers "
                 "[--key value]...\n";
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args a = parse_args(argc, argv);
    if (cmd == "golden") return cmd_golden(a);
    if (cmd == "clients") return cmd_clients(a);
    if (cmd == "layers") return cmd_layers(a);
    std::cerr << "unknown subcommand " << cmd << '\n';
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << '\n';
  }
  return 1;
}
