// The SimProf service daemon: a resident server that owns the lab cache and
// serves concurrent profile / sensitivity / measure requests over a Unix
// domain socket (protocol.h), so N clients share one warm process instead
// of paying CLI startup + cold caches per request.
//
// Thread architecture:
//
//   listener ──accept──▶ reader (one per connection)
//                           │ parse + validate + admission checks
//                           ▼
//                      request queue  ◀── typed rejections happen here:
//                           │             kOverQuota (client in-flight cap),
//                           ▼             kQueueFull, kShuttingDown
//   workers (one thread per admission ticket; one per core by default)
//           │ WorkloadLab::run — concurrent identical configs collapse to
//           │ ONE oracle pass via the lab's single-flight (lab.batch_dedup)
//
// Bookkeeping lives only in the metrics registry (svc.* counters and
// gauges); the kStatsRequest reply and the CLI's summary read it there.
//
// Per-client quota: at most client_max_inflight queued+running requests
// per connection.
//
// Determinism: request execution is a pure function of the request (the
// lab cache key covers every parameter), and the analysis runs through the
// same core/analysis.h calls as the one-shot CLI, so daemon results are
// bit-identical to it for the same config+seed (service_test compares the
// profile_bytes blob and the selections). The ticket count only decides
// *when* a request runs, never what it computes.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/lab.h"
#include "service/protocol.h"

namespace simprof::service {

struct ServiceConfig {
  std::string socket_path;
  /// Base lab configuration (cache dir, unit size, cores). Per-request
  /// scale/seed override it; use_cache is forced on — the shared warm cache
  /// is the point of a resident daemon.
  core::LabConfig lab;
  /// Requests that run at once, one worker thread each. 0 means the host's
  /// core count (std::thread::hardware_concurrency(), at least 1); the
  /// server resolves it at construction, so config().tickets is the count.
  std::size_t tickets = 0;
  /// Request queue capacity; arrivals beyond it get kQueueFull.
  std::size_t max_queue = 64;
  /// Per-connection cap on queued+running requests; beyond it, kOverQuota.
  std::size_t client_max_inflight = 8;
  /// Threads each request's lab/analysis stages may use. 1 keeps requests
  /// independent (concurrency comes from admission tickets); >1 funnels
  /// concurrent requests through the shared pool's job queue.
  std::size_t request_threads = 1;
};

/// The most tickets a server takes. Each ticket is a thread and the count
/// comes from outside the program, so the constructor rejects more.
inline constexpr std::size_t kMaxTickets = 256;

class ServiceServer {
 public:
  /// Throws std::invalid_argument when cfg.tickets exceeds kMaxTickets.
  explicit ServiceServer(ServiceConfig cfg);
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Bind the socket and spawn the listener and worker threads. Throws on
  /// bind failure.
  void start();

  /// Begin graceful shutdown: stop accepting connections, answer new
  /// requests with kShuttingDown, let queued + in-flight work drain. Safe
  /// to call from any thread (e.g. a signal-watcher); idempotent.
  void request_stop();

  /// Block until fully drained and every thread is joined. Idempotent.
  void wait();

  bool stopping() const { return stop_.load(std::memory_order_acquire); }

  const ServiceConfig& config() const { return cfg_; }

 private:
  struct Connection;
  using RequestBody =
      std::variant<ProfileRequest, SensitivityRequest, MeasureRequest>;
  struct QueuedRequest {
    std::shared_ptr<Connection> conn;
    MessageHeader header;
    RequestBody body;
    std::chrono::steady_clock::time_point enqueued;
  };

  void listener_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop();

  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  void admit(const std::shared_ptr<Connection>& conn,
             const MessageHeader& header, RequestBody body);
  void execute(QueuedRequest& req);
  void run_profile(QueuedRequest& req, const ProfileRequest& q);
  void run_sensitivity(QueuedRequest& req, const SensitivityRequest& q);
  void run_measure(QueuedRequest& req, const MeasureRequest& q);

  void reject(const std::shared_ptr<Connection>& conn, std::uint64_t request_id,
              Status status, const std::string& message);
  bool send_payload(const std::shared_ptr<Connection>& conn,
                    const std::string& payload);
  core::WorkloadLab make_lab(double scale, std::uint64_t seed) const;

  ServiceConfig cfg_;
  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> joined_{false};

  /// Guards queue_ and active_; the svc.queue_depth and svc.inflight
  /// gauges are set under it.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueuedRequest> queue_;
  std::size_t active_ = 0;

  std::thread listener_;
  std::vector<std::thread> workers_;

  mutable std::mutex conns_mu_;
  struct ReaderSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
  };
  std::vector<ReaderSlot> readers_;
  std::uint64_t next_conn_id_ = 0;
};

}  // namespace simprof::service
