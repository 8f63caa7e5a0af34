// Service daemon suite: protocol round-trips, the ticket count's default
// and ceiling, and an in-process ServiceServer driven over a real Unix
// socket — bit-identity with the one-shot lab, N
// concurrent same-config clients collapsing to one oracle pass, typed
// over-quota / queue-full / shutting-down rejections, a typed refusal of
// an older protocol version, and graceful drain.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/lab.h"
#include "core/phase.h"
#include "core/sampling.h"
#include "features/feature_mode.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/loadgen.h"
#include "service/protocol.h"
#include "service/server.h"
#include "support/assert.h"

namespace simprof::service {
namespace {

class ScratchDir {
 public:
  ScratchDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("simprof_svc_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path path_;
};

/// Small, fast lab + service configuration on a private socket and cache.
ServiceConfig small_service(const ScratchDir& dir) {
  ServiceConfig cfg;
  cfg.socket_path = dir.str() + "/sock";
  cfg.lab.scale = 0.05;
  cfg.lab.graph_scale_override = 12;
  cfg.lab.cache_dir = dir.str() + "/cache";
  cfg.tickets = 2;
  return cfg;
}

template <typename T>
T roundtrip(const T& v) {
  std::ostringstream os(std::ios::binary);
  BinaryWriter w(os);
  v.write(w);
  std::istringstream is(os.str());
  BinaryReader r(is);
  return T::read(r);
}

std::uint64_t counter_value(const char* name) {
  return obs::metrics().counter(name).value();
}

/// A registry counter's rise since construction. The svc.* counters are
/// process-wide, so a test reads only what its own traffic added.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : name_(name), start_(counter_value(name)) {}
  std::uint64_t operator()() const { return counter_value(name_) - start_; }
  std::uint64_t start() const { return start_; }

 private:
  const char* name_;
  std::uint64_t start_;
};

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(ServiceProtocol, ProfileMessagesRoundTrip) {
  ProfileRequest q;
  q.workload = "grep_sp";
  q.input = "Wiki";
  q.scale = 0.125;
  q.seed = 99;
  q.analyze = 0;
  q.sample_n = 3;
  q.want_profile_bytes = 1;
  q.features = 2;   // combined
  q.estimator = 1;  // two-phase
  const ProfileRequest q2 = roundtrip(q);
  EXPECT_EQ(q2.workload, q.workload);
  EXPECT_EQ(q2.input, q.input);
  EXPECT_EQ(q2.scale, q.scale);
  EXPECT_EQ(q2.seed, q.seed);
  EXPECT_EQ(q2.analyze, q.analyze);
  EXPECT_EQ(q2.sample_n, q.sample_n);
  EXPECT_EQ(q2.want_profile_bytes, q.want_profile_bytes);
  EXPECT_EQ(q2.features, q.features);
  EXPECT_EQ(q2.estimator, q.estimator);

  ProfileResult res;
  res.from_cache = 1;
  res.units = 18;
  res.methods = 7;
  res.oracle_cpi = 1.25;
  res.phase_count = 3;
  res.estimated_cpi = 1.24;
  res.standard_error = 0.01;
  res.selected_units = {2, 9, 17};
  res.weights = {0.5, 0.25, 0.25};
  res.profile_bytes = std::string("bin\0ary\x01\xff", 9);  // embedded NULs
  res.features = 1;
  res.estimator = 1;
  const ProfileResult res2 = roundtrip(res);
  EXPECT_EQ(res2.units, res.units);
  EXPECT_EQ(res2.selected_units, res.selected_units);
  EXPECT_EQ(res2.weights, res.weights);
  EXPECT_EQ(res2.profile_bytes, res.profile_bytes);
  EXPECT_EQ(res2.oracle_cpi, res.oracle_cpi);
  EXPECT_EQ(res2.features, res.features);
  EXPECT_EQ(res2.estimator, res.estimator);
}

TEST(ServiceProtocol, SensitivityMeasureStatsRoundTrip) {
  SensitivityRequest s;
  s.workload = "wc_sp";
  s.references = {"grep_sp", "sort_mr"};
  s.threshold = 0.2;
  const SensitivityRequest s2 = roundtrip(s);
  EXPECT_EQ(s2.references, s.references);
  EXPECT_EQ(s2.threshold, s.threshold);

  MeasureRequest m;
  m.workload = "grep_sp";
  m.units = {0, 5, 11};
  EXPECT_EQ(roundtrip(m).units, m.units);

  MeasureResultMsg mr;
  mr.used_checkpoints = 1;
  mr.checkpoints_restored = 3;
  mr.unit_ids = {0, 5, 11};
  mr.cpis = {1.0, 1.5, 2.0};
  const MeasureResultMsg mr2 = roundtrip(mr);
  EXPECT_EQ(mr2.unit_ids, mr.unit_ids);
  EXPECT_EQ(mr2.cpis, mr.cpis);

  StatsResult st;
  st.accepted = 10;
  st.rejected = 2;
  st.admission_level = 4;
  const StatsResult st2 = roundtrip(st);
  EXPECT_EQ(st2.accepted, st.accepted);
  EXPECT_EQ(st2.admission_level, st.admission_level);
}

/// Length and FNV-1a digest of `v`'s wire encoding.
template <typename T>
std::pair<std::size_t, std::uint64_t> encoded(const T& v) {
  std::string bytes;
  BinaryWriter w(bytes);
  v.write(w);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return {bytes.size(), h};
}

TEST(ServiceProtocol, EncodedBytesPinned) {
  // Protocol version 3's encoding of every message, each field set to a
  // non-default value: a change to any field's order, width or framing
  // shows here, not only as a failed round trip.
  using Pin = std::pair<std::size_t, std::uint64_t>;
  ProfileRequest q;
  q.workload = "grep_sp";
  q.input = "Wiki";
  q.scale = 0.125;
  q.seed = 99;
  q.analyze = 0;
  q.sample_n = 3;
  q.want_profile_bytes = 1;
  q.features = 2;
  q.estimator = 1;
  EXPECT_EQ(encoded(q), (Pin{55, 0xa415759cca4a0001ULL}));

  ProfileResult res;
  res.from_cache = 1;
  res.units = 18;
  res.methods = 7;
  res.oracle_cpi = 1.25;
  res.phase_count = 3;
  res.estimated_cpi = 1.24;
  res.standard_error = 0.01;
  res.selected_units = {2, 9, 17};
  res.weights = {0.5, 0.25, 0.25};
  res.profile_bytes = std::string("bin\0ary\x01\xff", 9);
  res.features = 1;
  res.estimator = 1;
  EXPECT_EQ(encoded(res), (Pin{132, 0xe1785ee761481c50ULL}));

  SensitivityRequest s;
  s.workload = "wc_sp";
  s.input = "Road";
  s.scale = 0.25;
  s.seed = 7;
  s.references = {"grep_sp", "sort_hp"};
  s.threshold = 0.2;
  EXPECT_EQ(encoded(s), (Pin{87, 0x85b2f28eae2d0ebaULL}));

  SensitivityResult sr;
  sr.phases = 5;
  sr.sensitive = 2;
  EXPECT_EQ(encoded(sr), (Pin{16, 0x3b1f40e317747f62ULL}));

  MeasureRequest m;
  m.workload = "grep_sp";
  m.input = "Wiki";
  m.scale = 0.5;
  m.seed = 11;
  m.units = {0, 5, 11};
  EXPECT_EQ(encoded(m), (Pin{75, 0xa1d6195376946bf7ULL}));

  MeasureResultMsg mr;
  mr.used_checkpoints = 1;
  mr.fallback = 1;
  mr.checkpoints_restored = 3;
  mr.unit_ids = {0, 5, 11};
  mr.cpis = {1.0, 1.5, 2.0};
  EXPECT_EQ(encoded(mr), (Pin{74, 0xbd9bae549d1913c2ULL}));

  StatsResult st;
  st.accepted = 10;
  st.rejected = 2;
  st.completed = 8;
  st.queue_depth = 1;
  st.inflight = 3;
  st.admission_level = 4;
  EXPECT_EQ(encoded(st), (Pin{48, 0x5cc81199b9248b03ULL}));
}

TEST(ServiceProtocol, HeaderValidatesMagicAndVersion) {
  const std::string ok = pack_message(MsgKind::kProfileRequest, 42);
  std::istringstream is(ok);
  BinaryReader r(is);
  const MessageHeader h = read_header(r);
  EXPECT_EQ(h.kind, MsgKind::kProfileRequest);
  EXPECT_EQ(h.request_id, 42u);

  std::string bad = ok;
  bad[0] = 'X';  // corrupt the magic
  std::istringstream bis(bad);
  BinaryReader br(bis);
  EXPECT_THROW(read_header(br), SerializeError);

  std::string old = ok;
  old[4] = static_cast<char>(kProtocolVersion - 1);  // version's low byte
  std::istringstream ois(old);
  BinaryReader obr(ois);
  EXPECT_THROW(read_header(obr), SerializeError);
}

TEST(ServiceProtocol, StatusTaxonomy) {
  EXPECT_TRUE(is_rejection(Status::kOverQuota));
  EXPECT_TRUE(is_rejection(Status::kQueueFull));
  EXPECT_TRUE(is_rejection(Status::kShuttingDown));
  EXPECT_FALSE(is_rejection(Status::kOk));
  EXPECT_FALSE(is_rejection(Status::kBadRequest));
  EXPECT_EQ(to_string(Status::kOverQuota), "over_quota");
}

// ---------------------------------------------------------------------------
// Ticket count. Construction starts no thread, so the ceiling is tested
// without ever starting that many.

TEST(ServiceServer, TicketCountDefaultsToCoresAndIsBounded) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.tickets = 0;
  EXPECT_EQ(ServiceServer(cfg).config().tickets,
            std::max<std::size_t>(std::thread::hardware_concurrency(), 1));
  cfg.tickets = kMaxTickets;
  EXPECT_EQ(ServiceServer(cfg).config().tickets, kMaxTickets);
  cfg.tickets = kMaxTickets + 1;
  EXPECT_THROW(ServiceServer{cfg}, std::invalid_argument);
  cfg.tickets = 100'000;
  EXPECT_THROW(ServiceServer{cfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// In-process server over a real Unix socket.

TEST(ServiceServer, HelloStatsAndUnknownWorkload) {
  ScratchDir dir;
  const CounterDelta completed("svc.completed");
  const CounterDelta errors("svc.errors");
  ServiceServer server(small_service(dir));
  server.start();

  ServiceClient client(server.config().socket_path);
  const StatsResult st = client.stats();
  EXPECT_EQ(st.completed - completed.start(), 0u);
  EXPECT_EQ(st.admission_level, 2u);

  ProfileRequest q;
  q.workload = "no_such_workload";
  const auto reply = client.profile(q);
  EXPECT_EQ(reply.status, Status::kUnknownWorkload);
  EXPECT_FALSE(reply.message.empty());

  server.request_stop();
  server.wait();
  EXPECT_EQ(completed(), 0u);
  EXPECT_EQ(errors(), 0u);
}

TEST(ServiceServer, StatsReplyMatchesTheRegistry) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.client_max_inflight = 1;
  ServiceServer server(cfg);
  server.start();
  ServiceClient client(cfg.socket_path);
  const StatsResult before = client.stats();
  const CounterDelta accepted("svc.accepted");
  const CounterDelta rejected("svc.rejected");
  const CounterDelta completed("svc.completed");

  // Three in flight against a quota of 1 on a cold cache: some requests
  // complete, the overflow is rejected over quota.
  LoadgenConfig lg;
  lg.socket_path = cfg.socket_path;
  lg.clients = 1;
  lg.requests_per_client = 6;
  lg.inflight_per_client = 3;
  const LoadgenReport report = run_loadgen(lg);
  ASSERT_GT(report.completed, 0u);
  ASSERT_GT(report.rejected, 0u);

  // A request is counted after its response is sent: wait until none is
  // queued or running.
  StatsResult after = client.stats();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((after.inflight != 0 || after.queue_depth != 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = client.stats();
  }
  ASSERT_EQ(after.inflight, 0u);
  ASSERT_EQ(after.queue_depth, 0u);

  EXPECT_EQ(after.accepted - before.accepted, accepted());
  EXPECT_EQ(after.rejected - before.rejected, rejected());
  EXPECT_EQ(after.completed - before.completed, completed());
  EXPECT_EQ(completed(), report.completed);
  EXPECT_EQ(rejected(), report.rejected);
  server.request_stop();
  server.wait();
}

TEST(ServiceServer, ProfileBitIdenticalToDirectLab) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();

  ProfileRequest q;
  q.workload = "grep_sp";
  q.seed = 42;
  q.sample_n = 8;
  q.want_profile_bytes = 1;
  ServiceClient client(cfg.socket_path);
  const auto reply = client.profile(q);
  ASSERT_EQ(reply.status, Status::kOk) << reply.message;
  server.request_stop();
  server.wait();

  // One-shot reference in a separate cache dir so nothing is shared.
  ScratchDir ref_dir;
  core::LabConfig lc = cfg.lab;
  lc.scale = q.scale;
  lc.seed = q.seed;
  lc.cache_dir = ref_dir.str() + "/cache";
  lc.threads = 1;
  core::WorkloadLab lab(lc);
  const core::LabRun run = lab.run(q.workload, q.input);
  std::ostringstream os;
  run.profile.save(os);
  EXPECT_EQ(reply.result.profile_bytes, os.str());
  EXPECT_EQ(reply.result.units, run.profile.num_units());
  EXPECT_EQ(reply.result.oracle_cpi, run.profile.oracle_cpi());

  // The analysis riding on the profile matches the library path exactly.
  core::PhaseFormationConfig fc;
  fc.threads = 1;
  const core::PhaseModel model = core::form_phases(run.profile, fc);
  EXPECT_EQ(reply.result.phase_count, model.k);
  const auto n =
      std::min<std::size_t>(q.sample_n, run.profile.num_units());
  const core::SamplePlan plan =
      core::simprof_sample(run.profile, model, n, q.seed);
  EXPECT_EQ(reply.result.estimated_cpi, plan.estimated_cpi);
  EXPECT_EQ(reply.result.standard_error, plan.standard_error);
  ASSERT_EQ(reply.result.selected_units.size(), plan.points.size());
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    EXPECT_EQ(reply.result.selected_units[i],
              run.profile.units[plan.points[i].unit_index].unit_id);
    EXPECT_EQ(reply.result.weights[i], plan.points[i].weight);
  }
}

TEST(ServiceServer, ConcurrentSameConfigClientsShareOneOraclePass) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  // All four clients dispatch concurrently: one ticket each.
  cfg.tickets = 4;
  ServiceServer server(cfg);
  server.start();

  const std::uint64_t misses0 = counter_value("lab.cache_misses");
  const std::uint64_t shared0 =
      counter_value("lab.batch_dedup") + counter_value("lab.cache_hits");
  const CounterDelta completed("svc.completed");

  constexpr std::size_t kClients = 4;
  std::vector<ServiceClient::ProfileReply> replies(kClients);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ProfileRequest q;
      q.workload = "grep_sp";
      q.want_profile_bytes = 1;
      ServiceClient client(cfg.socket_path);
      replies[i] = client.profile(q);
    });
  }
  for (auto& t : threads) t.join();
  server.request_stop();
  server.wait();

  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_EQ(replies[i].status, Status::kOk) << replies[i].message;
    EXPECT_EQ(replies[i].result.profile_bytes, replies[0].result.profile_bytes)
        << "client " << i << " got a different profile";
  }
  // Exactly one oracle pass ran; every other client shared it, either by
  // waiting on the single-flight (lab.batch_dedup) or by hitting the cache
  // the runner published (lab.cache_hits — a waiter inside the key lock
  // counts in both, so ≥).
  EXPECT_EQ(counter_value("lab.cache_misses") - misses0, 1u);
  EXPECT_GE(counter_value("lab.batch_dedup") + counter_value("lab.cache_hits") -
                shared0,
            kClients - 1);
  EXPECT_EQ(completed(), kClients);
}

TEST(ServiceServer, StartsOneWorkerPerTicket) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.tickets = 2;
  const CounterDelta completed("svc.completed");
  ServiceServer server(cfg);
  server.start();
  EXPECT_EQ(obs::metrics().gauge("svc.admission_level").value(), 2.0);

  // Four concurrent requests from two clients all finish on two workers.
  constexpr std::size_t kRequests = 4;
  std::vector<ServiceClient::ProfileReply> replies(kRequests);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client(cfg.socket_path);
      for (std::size_t i = c; i < kRequests; i += 2) {
        ProfileRequest q;
        q.workload = "grep_sp";
        q.seed = 42 + i;
        q.analyze = 0;
        replies[i] = client.profile(q);
      }
    });
  }
  for (auto& t : clients) t.join();
  ServiceClient client(cfg.socket_path);
  EXPECT_EQ(client.stats().admission_level, 2u);
  server.request_stop();
  server.wait();
  for (std::size_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(replies[i].status, Status::kOk) << replies[i].message;
  }
  EXPECT_EQ(completed(), kRequests);
}

TEST(ServiceServer, DistinctFeatureModesShareOraclePassNotAnalysis) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  ServiceServer server(cfg);
  server.start();

  const std::uint64_t misses0 = counter_value("lab.cache_misses");

  // Four requests over ONE workload configuration: every feature mode plus
  // a two-phase-estimator variant. The oracle pass must dedup to a single
  // run (the cache key is mode-independent), while each request gets its
  // own analysis — distinct modes must NOT collapse into one result.
  struct Case {
    std::uint8_t features;
    std::uint8_t estimator;
  };
  const Case cases[] = {{0, 0}, {1, 0}, {2, 0}, {2, 1}};
  std::vector<ServiceClient::ProfileReply> replies;
  for (const Case& c : cases) {
    ProfileRequest q;
    q.workload = "grep_sp";
    q.want_profile_bytes = 1;
    q.features = c.features;
    q.estimator = c.estimator;
    ServiceClient client(cfg.socket_path);
    replies.push_back(client.profile(q));
  }

  // An out-of-range selector is a typed bad request, not a crash.
  {
    ProfileRequest q;
    q.workload = "grep_sp";
    q.features = 9;
    ServiceClient client(cfg.socket_path);
    EXPECT_EQ(client.profile(q).status, Status::kBadRequest);
  }
  server.request_stop();
  server.wait();

  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].status, Status::kOk) << replies[i].message;
    EXPECT_EQ(replies[i].result.features, cases[i].features);
    EXPECT_EQ(replies[i].result.estimator, cases[i].estimator);
    // Same oracle pass → same profile bytes for every mode.
    EXPECT_EQ(replies[i].result.profile_bytes, replies[0].result.profile_bytes);
  }
  EXPECT_EQ(counter_value("lab.cache_misses") - misses0, 1u);

  // Each reply's analysis is bit-identical to the library run under its own
  // mode/estimator — the proof that per-request analysis was not deduped.
  std::istringstream is(replies[0].result.profile_bytes);
  const core::ThreadProfile profile = core::ThreadProfile::load(is);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    core::PhaseFormationConfig fc;
    fc.features = static_cast<features::FeatureMode>(cases[i].features);
    fc.threads = 1;
    const core::PhaseModel model = core::form_phases(profile, fc);
    EXPECT_EQ(replies[i].result.phase_count, model.k) << "case " << i;
    const auto n = std::min<std::size_t>(8, profile.num_units());
    const core::SamplePlan plan =
        cases[i].estimator == 1
            ? core::two_phase_sample(profile, model, n, 42)
            : core::simprof_sample(profile, model, n, 42);
    EXPECT_EQ(replies[i].result.estimated_cpi, plan.estimated_cpi)
        << "case " << i;
    EXPECT_EQ(replies[i].result.standard_error, plan.standard_error)
        << "case " << i;
  }
}

TEST(ServiceServer, OutOfRangeSelectorsAreTypedBadRequests) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  const CounterDelta completed("svc.completed");
  ServiceServer server(cfg);
  server.start();
  ServiceClient client(cfg.socket_path);
  ProfileRequest q;
  q.workload = "grep_sp";
  q.features = 3;
  EXPECT_EQ(client.profile(q).status, Status::kBadRequest);
  q.features = 0;
  q.estimator = 2;
  EXPECT_EQ(client.profile(q).status, Status::kBadRequest);
  server.request_stop();
  server.wait();
  EXPECT_EQ(completed(), 0u);
}

TEST(ServiceServer, OverQuotaIsATypedRejectionNotAHang) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.client_max_inflight = 1;
  const CounterDelta rejected_quota("svc.rejected.quota");
  ServiceServer server(cfg);
  server.start();

  // A closed loop pushing 3 in-flight against a quota of 1: the overflow
  // must come back as immediate kOverQuota responses, never hang.
  LoadgenConfig lg;
  lg.socket_path = cfg.socket_path;
  lg.clients = 1;
  lg.requests_per_client = 6;
  lg.inflight_per_client = 3;
  const LoadgenReport report = run_loadgen(lg);
  server.request_stop();
  server.wait();

  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.completed + report.rejected, 6u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_EQ(rejected_quota(), report.rejected);
}

TEST(ServiceServer, FullQueueIsATypedRejection) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.max_queue = 0;  // nothing fits: every request is rejected typed
  const CounterDelta rejected_queue_full("svc.rejected.queue_full");
  ServiceServer server(cfg);
  server.start();

  ProfileRequest q;
  q.workload = "grep_sp";
  ServiceClient client(cfg.socket_path);
  const auto reply = client.profile(q);
  EXPECT_EQ(reply.status, Status::kQueueFull);
  server.request_stop();
  server.wait();
  EXPECT_EQ(rejected_queue_full(), 1u);
}

TEST(ServiceServer, OlderProtocolVersionIsATypedBadRequest) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  const CounterDelta accepted("svc.accepted");
  const CounterDelta bad_request("svc.bad_request");
  ServiceServer server(cfg);
  server.start();

  // A well-framed version-2 profile request, body in v2's field order (the
  // streaming u8 and u64 sat between want_profile_bytes and features).
  std::string frame;
  BinaryWriter w(frame);
  w.u32(kProtocolMagic);
  w.u32(2);
  w.u32(static_cast<std::uint32_t>(MsgKind::kProfileRequest));
  w.u64(7);
  w.str("grep_sp");
  w.str("Google");
  w.f64(0.05);
  w.u64(42);
  w.u8(1);   // analyze
  w.u64(8);  // sample_n
  w.u8(0);   // want_profile_bytes
  w.u8(1);   // v2: streaming on
  w.u64(0);  // v2: retention cap
  w.u8(0);   // features
  w.u8(0);   // estimator

  const int fd = connect_unix(cfg.socket_path);
  ASSERT_TRUE(write_frame(fd, frame));
  std::string payload;
  ASSERT_TRUE(read_frame(fd, payload));
  std::istringstream is(payload);
  BinaryReader r(is);
  EXPECT_EQ(read_header(r).kind, MsgKind::kResponse);
  EXPECT_EQ(static_cast<Status>(r.u32()), Status::kBadRequest);

  // The connection stays usable: a current-version frame is answered.
  ASSERT_TRUE(write_frame(fd, pack_message(MsgKind::kHello, 8)));
  ASSERT_TRUE(read_frame(fd, payload));
  std::istringstream his(payload);
  BinaryReader hr(his);
  const MessageHeader ack = read_header(hr);
  EXPECT_EQ(ack.kind, MsgKind::kHelloAck);
  EXPECT_EQ(ack.request_id, 8u);
  ::close(fd);
  server.request_stop();
  server.wait();
  EXPECT_EQ(accepted(), 0u);
  EXPECT_EQ(bad_request(), 1u);
}

TEST(ServiceServer, GracefulDrainFinishesInFlightAndRejectsNew) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  const CounterDelta completed("svc.completed");
  const CounterDelta rejected_shutdown("svc.rejected.shutdown");
  ServiceServer server(cfg);
  server.start();

  // Raw frames so request B can be sent while A is still in flight.
  const int fd = connect_unix(cfg.socket_path);
  ProfileRequest q;
  q.workload = "grep_sp";
  ASSERT_TRUE(write_frame(
      fd, pack_message(MsgKind::kProfileRequest, 1,
                       [&](BinaryWriter& w) { q.write(w); })));
  // Let A get admitted (a cold oracle pass holds it in flight for a while),
  // then start the drain and submit B.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_stop();
  ASSERT_TRUE(write_frame(
      fd, pack_message(MsgKind::kProfileRequest, 2,
                       [&](BinaryWriter& w) { q.write(w); })));

  Status status_a = Status::kInternalError;
  Status status_b = Status::kInternalError;
  std::string payload;
  int answered = 0;
  while (answered < 2 && read_frame(fd, payload)) {
    std::istringstream is(payload);
    BinaryReader r(is);
    const MessageHeader h = read_header(r);
    if (h.kind != MsgKind::kResponse) continue;
    const auto status = static_cast<Status>(r.u32());
    if (h.request_id == 1) status_a = status;
    if (h.request_id == 2) status_b = status;
    ++answered;
  }
  ::close(fd);
  server.wait();

  EXPECT_EQ(status_a, Status::kOk);  // in-flight work drains to completion
  EXPECT_EQ(status_b, Status::kShuttingDown);
  EXPECT_EQ(completed(), 1u);
  EXPECT_EQ(rejected_shutdown(), 1u);
  // The socket file is gone after wait() — a restart can bind cleanly.
  EXPECT_FALSE(std::filesystem::exists(cfg.socket_path));
}

TEST(ServiceServer, MeasureAndSensitivityVerbsWork) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  const CounterDelta completed("svc.completed");
  const CounterDelta errors("svc.errors");
  ServiceServer server(cfg);
  server.start();
  ServiceClient client(cfg.socket_path);

  // Profile first so the cache and checkpoint archives exist.
  ProfileRequest pq;
  pq.workload = "grep_sp";
  const auto pr = client.profile(pq);
  ASSERT_EQ(pr.status, Status::kOk) << pr.message;
  ASSERT_GE(pr.result.selected_units.size(), 2u);

  MeasureRequest mq;
  mq.workload = "grep_sp";
  mq.units = {pr.result.selected_units[0], pr.result.selected_units[1]};
  const auto mr = client.measure(mq);
  ASSERT_EQ(mr.status, Status::kOk) << mr.message;
  EXPECT_EQ(mr.result.unit_ids.size(), 2u);

  SensitivityRequest sq;
  sq.workload = "grep_sp";
  sq.references = {"wc_sp"};
  const auto sr = client.sensitivity(sq);
  ASSERT_EQ(sr.status, Status::kOk) << sr.message;
  EXPECT_GE(sr.result.phases, 1u);

  server.request_stop();
  server.wait();
  EXPECT_EQ(completed(), 3u);
  EXPECT_EQ(errors(), 0u);
}

TEST(ServiceServer, DistinctSeedRequestsKeepAtMostOneInputResident) {
  ScratchDir dir;
  ServiceConfig cfg = small_service(dir);
  cfg.lab.checkpoint_stride = 0;
  ServiceServer server(cfg);
  server.start();
  const std::uint64_t synth0 =
      counter_value("data.corpus_synth") + counter_value("data.graph_synth");

  // Every request is a distinct oracle pass over its own input: a corpus
  // (wc_sp) or a Kronecker graph (cc_sp). The daemon keeps the inputs only
  // while a pass uses them, plus the latest built of each kind.
  LoadgenConfig lg;
  lg.socket_path = cfg.socket_path;
  lg.clients = 2;
  lg.requests_per_client = 4;
  lg.workloads = {"wc_sp", "cc_sp"};
  lg.seed = 5000;
  lg.vary_seed = true;
  lg.analyze = false;
  const LoadgenReport report = run_loadgen(lg);
  server.request_stop();
  server.wait();

  EXPECT_EQ(report.completed, 8u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(counter_value("data.corpus_synth") +
                counter_value("data.graph_synth") - synth0,
            8u);
  // Only the latest input of each kind outlives its request.
  EXPECT_EQ(obs::metrics().gauge("data.corpus_resident").value(), 1.0);
  EXPECT_EQ(obs::metrics().gauge("data.graph_resident").value(), 1.0);
}

}  // namespace
}  // namespace simprof::service
