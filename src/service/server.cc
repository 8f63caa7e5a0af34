#include "service/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/analysis.h"
#include "obs/obs.h"
#include "support/assert.h"
#include "workloads/workloads.h"

namespace simprof::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct SvcMetrics {
  obs::Counter& accepted = obs::metrics().counter("svc.accepted");
  obs::Counter& queued = obs::metrics().counter("svc.queued");
  obs::Counter& rejected = obs::metrics().counter("svc.rejected");
  obs::Counter& rejected_quota = obs::metrics().counter("svc.rejected.quota");
  obs::Counter& rejected_queue_full =
      obs::metrics().counter("svc.rejected.queue_full");
  obs::Counter& rejected_shutdown =
      obs::metrics().counter("svc.rejected.shutdown");
  obs::Counter& bad_request = obs::metrics().counter("svc.bad_request");
  obs::Counter& completed = obs::metrics().counter("svc.completed");
  /// Non-ok responses to accepted work.
  obs::Counter& errors = obs::metrics().counter("svc.errors");
  obs::QuantileHistogram& queue_wait_ms =
      obs::metrics().quantile_histogram("svc.queue_wait_ms");
  obs::QuantileHistogram& request_ms =
      obs::metrics().quantile_histogram("svc.request_ms");
  obs::Gauge& queue_depth = obs::metrics().gauge("svc.queue_depth");
  obs::Gauge& inflight = obs::metrics().gauge("svc.inflight");
  obs::Gauge& admission_level = obs::metrics().gauge("svc.admission_level");
};

SvcMetrics& svc_metrics() {
  static SvcMetrics m;
  return m;
}

}  // namespace

struct ServiceServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  std::mutex write_mu;
  std::atomic<std::size_t> inflight{0};
  std::atomic<bool> dead{false};
};

ServiceServer::ServiceServer(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  SIMPROF_EXPECTS(!cfg_.socket_path.empty(), "service: socket_path required");
  if (cfg_.tickets == 0) {
    cfg_.tickets =
        std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  if (cfg_.tickets > kMaxTickets) {
    throw std::invalid_argument("service: " + std::to_string(cfg_.tickets) +
                                " tickets is above the ceiling of " +
                                std::to_string(kMaxTickets));
  }
  cfg_.lab.use_cache = true;
  cfg_.lab.threads = cfg_.request_threads;
}

ServiceServer::~ServiceServer() {
  request_stop();
  wait();
}

void ServiceServer::start() {
  SIMPROF_EXPECTS(!started_.exchange(true), "service: start() called twice");
  listen_fd_ = listen_unix(cfg_.socket_path);
  svc_metrics().admission_level.set(static_cast<double>(cfg_.tickets));
  SIMPROF_LOG(kInfo) << "svc: listening on " << cfg_.socket_path
                     << " tickets=" << cfg_.tickets;
  workers_.reserve(cfg_.tickets);
  for (std::size_t i = 0; i < cfg_.tickets; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  listener_ = std::thread([this] { listener_loop(); });
}

void ServiceServer::request_stop() {
  {
    // stop_ is flipped under mu_ so admit() (which checks it under the same
    // lock) can never enqueue after the last worker observed the drained
    // queue and exited.
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  }
  cv_.notify_all();
}

void ServiceServer::wait() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (joined_.exchange(true)) return;
  if (listener_.joinable()) listener_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Every queued request has been answered; now wake the readers (blocked
  // in recv) and join them.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& slot : readers_) {
      if (!slot.conn->dead.load()) ::shutdown(slot.conn->fd, SHUT_RDWR);
    }
  }
  for (auto& slot : readers_) {
    if (slot.thread.joinable()) slot.thread.join();
    ::close(slot.conn->fd);
  }
  readers_.clear();
  ::unlink(cfg_.socket_path.c_str());
  SIMPROF_LOG(kInfo) << "svc: drained and stopped; completed="
                     << svc_metrics().completed.value()
                     << " rejected=" << svc_metrics().rejected.value();
}

core::WorkloadLab ServiceServer::make_lab(double scale,
                                          std::uint64_t seed) const {
  core::LabConfig lc = cfg_.lab;  // cache on, request_threads workers
  lc.scale = scale;
  lc.seed = seed;
  return core::WorkloadLab(lc);
}

void ServiceServer::listener_loop() {
  for (;;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 100);
    if (stop_.load(std::memory_order_acquire)) break;
    // Reap finished readers so a long-lived daemon doesn't accumulate one
    // joinable thread handle per historical connection.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = readers_.begin(); it != readers_.end();) {
        if (it->conn->dead.load() && it->conn->inflight.load() == 0) {
          it->thread.join();
          ::close(it->conn->fd);
          it = readers_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (rc <= 0 || !(pfd.revents & POLLIN)) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = ++next_conn_id_;
      readers_.push_back(
          {std::thread([this, conn] { reader_loop(conn); }), conn});
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void ServiceServer::reader_loop(std::shared_ptr<Connection> conn) {
  std::string payload;
  try {
    while (read_frame(conn->fd, payload)) {
      handle_frame(conn, payload);
    }
  } catch (const SerializeError& e) {
    SIMPROF_LOG(kWarn) << "svc: dropping conn " << conn->id << ": " << e.what();
  }
  conn->dead.store(true);
}

void ServiceServer::handle_frame(const std::shared_ptr<Connection>& conn,
                                 const std::string& payload) {
  std::istringstream is(payload);
  BinaryReader r(is);
  MessageHeader h;
  try {
    h = read_header(r);
  } catch (const SerializeError& e) {
    svc_metrics().bad_request.increment();
    send_payload(conn, pack_response(0, Status::kBadRequest, e.what()));
    return;
  }
  switch (h.kind) {
    case MsgKind::kHello:
      send_payload(conn, pack_message(MsgKind::kHelloAck, h.request_id));
      return;
    case MsgKind::kStatsRequest: {
      // Read under mu_: a worker counts its request before it takes mu_ to
      // retire it, so a reply showing nothing in flight counts every
      // finished request.
      const auto& m = svc_metrics();
      StatsResult out;
      {
        std::lock_guard<std::mutex> lock(mu_);
        out.accepted = m.accepted.value();
        out.rejected = m.rejected.value();
        out.completed = m.completed.value();
        out.queue_depth = static_cast<std::uint64_t>(m.queue_depth.value());
        out.inflight = static_cast<std::uint64_t>(m.inflight.value());
        out.admission_level =
            static_cast<std::uint64_t>(m.admission_level.value());
      }
      send_payload(conn,
                   pack_response(h.request_id, Status::kOk, "",
                                 [&](BinaryWriter& w) { out.write(w); }));
      return;
    }
    case MsgKind::kProfileRequest:
    case MsgKind::kSensitivityRequest:
    case MsgKind::kMeasureRequest: {
      RequestBody body;
      try {
        if (h.kind == MsgKind::kProfileRequest) {
          body = ProfileRequest::read(r);
        } else if (h.kind == MsgKind::kSensitivityRequest) {
          body = SensitivityRequest::read(r);
        } else {
          body = MeasureRequest::read(r);
        }
      } catch (const SerializeError& e) {
        svc_metrics().bad_request.increment();
        send_payload(conn,
                     pack_response(h.request_id, Status::kBadRequest, e.what()));
        return;
      }
      admit(conn, h, std::move(body));
      return;
    }
    default:
      svc_metrics().bad_request.increment();
      send_payload(conn, pack_response(h.request_id, Status::kBadRequest,
                                       "unknown message kind"));
      return;
  }
}

void ServiceServer::reject(const std::shared_ptr<Connection>& conn,
                           std::uint64_t request_id, Status status,
                           const std::string& message) {
  auto& m = svc_metrics();
  m.rejected.increment();
  switch (status) {
    case Status::kOverQuota:
      m.rejected_quota.increment();
      break;
    case Status::kQueueFull:
      m.rejected_queue_full.increment();
      break;
    case Status::kShuttingDown:
      m.rejected_shutdown.increment();
      break;
    default:
      break;
  }
  send_payload(conn, pack_response(request_id, status, message));
}

void ServiceServer::admit(const std::shared_ptr<Connection>& conn,
                          const MessageHeader& header, RequestBody body) {
  // Validate the request's workload names up front so a typo is a fast
  // typed rejection, not a queued request that fails mid-execution.
  try {
    std::visit(
        [](const auto& q) {
          using T = std::decay_t<decltype(q)>;
          workloads::workload(q.workload);
          if constexpr (std::is_same_v<T, SensitivityRequest>) {
            for (const auto& ref : q.references) workloads::workload(ref);
          }
        },
        body);
  } catch (const ContractViolation& e) {
    svc_metrics().bad_request.increment();
    send_payload(conn, pack_response(header.request_id,
                                     Status::kUnknownWorkload, e.what()));
    return;
  }

  // Per-client quota. Frames of one connection are handled serially by its
  // reader thread, so check-then-increment cannot race with itself.
  if (conn->inflight.load(std::memory_order_relaxed) >=
      cfg_.client_max_inflight) {
    reject(conn, header.request_id, Status::kOverQuota,
           "client in-flight quota (" +
               std::to_string(cfg_.client_max_inflight) + ") exceeded");
    return;
  }

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_.load(std::memory_order_relaxed)) {
      lock.unlock();
      reject(conn, header.request_id, Status::kShuttingDown,
             "server is draining");
      return;
    }
    if (queue_.size() >= cfg_.max_queue) {
      lock.unlock();
      reject(conn, header.request_id, Status::kQueueFull,
             "request queue at capacity (" + std::to_string(cfg_.max_queue) +
                 ")");
      return;
    }
    queue_.push_back({conn, header, std::move(body), Clock::now()});
    conn->inflight.fetch_add(1, std::memory_order_relaxed);
    svc_metrics().queue_depth.set(static_cast<double>(queue_.size()));
  }
  auto& m = svc_metrics();
  m.accepted.increment();
  m.queued.increment();
  cv_.notify_one();
}

void ServiceServer::worker_loop() {
  auto& m = svc_metrics();
  for (;;) {
    QueuedRequest req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return !queue_.empty() || stop_.load(std::memory_order_relaxed);
      });
      if (queue_.empty()) return;  // stop_ && drained
      req = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      m.queue_depth.set(static_cast<double>(queue_.size()));
      m.inflight.set(static_cast<double>(active_));
    }
    m.queue_wait_ms.observe(ms_since(req.enqueued));
    execute(req);
    std::lock_guard<std::mutex> lock(mu_);
    --active_;
    m.inflight.set(static_cast<double>(active_));
  }
}

void ServiceServer::execute(QueuedRequest& req) {
  obs::ObsSpan span("svc.request");
  const auto exec_start = Clock::now();
  Status status = Status::kOk;
  std::string message;
  try {
    std::visit(
        [&](const auto& q) {
          using T = std::decay_t<decltype(q)>;
          if constexpr (std::is_same_v<T, ProfileRequest>) {
            run_profile(req, q);
          } else if constexpr (std::is_same_v<T, SensitivityRequest>) {
            run_sensitivity(req, q);
          } else {
            run_measure(req, q);
          }
        },
        req.body);
  } catch (const ContractViolation& e) {
    status = Status::kBadRequest;
    message = e.what();
  } catch (const std::exception& e) {
    status = Status::kInternalError;
    message = e.what();
  }
  if (status != Status::kOk) {
    svc_metrics().errors.increment();
    send_payload(req.conn, pack_response(req.header.request_id, status, message));
  } else {
    svc_metrics().completed.increment();
  }
  svc_metrics().request_ms.observe(
      std::chrono::duration<double, std::milli>(Clock::now() - exec_start)
          .count());
  req.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
}

void ServiceServer::run_profile(QueuedRequest& req, const ProfileRequest& q) {
  // The selectors are decoded before the lab runs, so a bad value is a
  // typed rejection. The lab cache key is mode-independent (profiles always
  // carry the MAV blocks): distinct feature modes over one workload config
  // still single-flight into one oracle pass, and only the analysis differs.
  core::ProfileAnalysisRequest analysis;
  analysis.options.features = core::feature_mode_from_wire(q.features);
  analysis.options.estimator = core::estimator_from_wire(q.estimator);
  analysis.options.threads = cfg_.request_threads;
  analysis.seed = q.seed;
  analysis.sample_n = static_cast<std::size_t>(q.sample_n);

  core::WorkloadLab lab = make_lab(q.scale, q.seed);
  const core::LabRun run = lab.run(q.workload, q.input);
  const core::ThreadProfile& profile = run.profile;

  ProfileResult res;
  res.from_cache = run.from_cache ? 1 : 0;
  res.units = profile.num_units();
  res.methods = profile.num_methods();
  res.oracle_cpi = profile.num_units() > 0 ? profile.oracle_cpi() : 0.0;
  if (q.want_profile_bytes) {
    std::ostringstream os;
    profile.save(os);
    res.profile_bytes = os.str();
  }
  res.features = q.features;
  res.estimator = q.estimator;

  if (q.analyze && profile.num_units() > 0) {
    auto analysed = core::analyze_profile(profile, analysis);
    res.phase_count = analysed.model.k;
    if (analysed.selection) {
      const core::SamplePlan& plan = analysed.selection->plan;
      res.estimated_cpi = plan.estimated_cpi;
      res.standard_error = plan.standard_error;
      res.selected_units = std::move(analysed.selection->unit_ids);
      res.weights.reserve(plan.points.size());
      for (const auto& p : plan.points) res.weights.push_back(p.weight);
    }
  }

  send_payload(req.conn,
               pack_response(req.header.request_id, Status::kOk, "",
                             [&](BinaryWriter& w) { res.write(w); }));
}

void ServiceServer::run_sensitivity(QueuedRequest& req,
                                    const SensitivityRequest& q) {
  core::WorkloadLab lab = make_lab(q.scale, q.seed);
  core::SensitivityStudy study;
  study.train = {q.workload, q.input, q.seed};
  for (const auto& ref : q.references) {
    study.references.push_back({ref, q.input, q.seed});
  }
  study.reference_names = q.references;
  study.options.threads = cfg_.request_threads;
  study.threshold = q.threshold;
  const core::SensitivityAnalysis analysed =
      core::analyze_sensitivity(lab, study);

  SensitivityResult res;
  res.phases = analysed.report.phase_sensitive.size();
  res.sensitive = analysed.report.num_sensitive();
  send_payload(req.conn,
               pack_response(req.header.request_id, Status::kOk, "",
                             [&](BinaryWriter& w) { res.write(w); }));
}

void ServiceServer::run_measure(QueuedRequest& req, const MeasureRequest& q) {
  core::WorkloadLab lab = make_lab(q.scale, q.seed);
  const auto mr = lab.measure_units(q.workload, q.input, q.units);

  MeasureResultMsg res;
  res.used_checkpoints = mr.used_checkpoints ? 1 : 0;
  res.fallback = mr.fallback ? 1 : 0;
  res.checkpoints_restored = mr.checkpoints_restored;
  res.unit_ids.reserve(mr.records.size());
  res.cpis.reserve(mr.records.size());
  for (const auto& rec : mr.records) {
    res.unit_ids.push_back(rec.unit_id);
    res.cpis.push_back(rec.cpi());
  }
  send_payload(req.conn,
               pack_response(req.header.request_id, Status::kOk, "",
                             [&](BinaryWriter& w) { res.write(w); }));
}

bool ServiceServer::send_payload(const std::shared_ptr<Connection>& conn,
                                 const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->dead.load(std::memory_order_relaxed)) return false;
  if (!write_frame(conn->fd, payload)) {
    conn->dead.store(true);
    ::shutdown(conn->fd, SHUT_RDWR);  // wake the reader so it can exit
    return false;
  }
  return true;
}

}  // namespace simprof::service
