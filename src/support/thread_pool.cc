#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace simprof::support {

namespace {
/// Set while a pool worker executes chunks so nested parallel_for calls
/// degrade to the serial inline path instead of deadlocking on the pool.
thread_local bool tls_inside_pool_worker = false;

std::size_t chunk_count(std::size_t begin, std::size_t end, std::size_t grain) {
  if (end <= begin) return 0;
  return (end - begin + grain - 1) / grain;
}
}  // namespace

struct ThreadPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait here for a job
  std::condition_variable done_cv;   // parallel_for waits here for completion

  // Current job, published under `mu`. A new job bumps `generation`; workers
  // with index < helper_limit join, pull chunks from the atomic `next_chunk`
  // race, and count themselves in/out via `active`. `fn` doubles as the
  // "job live" flag: it points at the caller's stack, which parallel_for
  // keeps alive until `active` drains back to zero.
  std::uint64_t generation = 0;
  const ChunkFn* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  std::size_t helper_limit = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::size_t active = 0;
  std::exception_ptr error;

  // Top-level callers that arrive while a job is in flight wait here until
  // `fn` drains back to nullptr; `queued` counts them for the depth gauge.
  std::condition_variable queue_cv;
  std::size_t queued = 0;

  bool stopping = false;
  std::vector<std::thread> threads;

  /// Returns the number of chunks this thread won in the race.
  std::size_t run_chunks(const ChunkFn& f) {
    std::size_t won = 0;
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return won;
      const std::size_t b = begin + c * grain;
      const std::size_t e = std::min(b + grain, end);
      try {
        f(c, b, e);
        ++won;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        // Skip the remaining chunks so the failed job finishes promptly.
        next_chunk.store(chunks, std::memory_order_relaxed);
        return won;
      }
    }
  }

  void worker(std::size_t index) {
    static obs::Counter& helper_chunks =
        obs::metrics().counter("pool.chunks.helper");
    static obs::Counter& idle_ns = obs::metrics().counter("pool.idle_ns");
    std::unique_lock<std::mutex> lock(mu);
    std::uint64_t seen = 0;
    for (;;) {
      const auto idle_start = std::chrono::steady_clock::now();
      work_cv.wait(lock, [&] { return stopping || generation != seen; });
      idle_ns.add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - idle_start)
              .count()));
      if (stopping) return;
      seen = generation;
      // A worker that wakes after the job already drained (fn reset) or that
      // is beyond this job's thread cap goes back to waiting.
      if (fn == nullptr || index >= helper_limit) continue;
      const ChunkFn* job = fn;
      ++active;
      lock.unlock();
      tls_inside_pool_worker = true;
      helper_chunks.add(run_chunks(*job));
      tls_inside_pool_worker = false;
      lock.lock();
      if (--active == 0) done_cv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(std::size_t workers) : impl_(new Impl) {
  impl_->threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->threads.emplace_back([this, i] { impl_->worker(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

std::size_t ThreadPool::workers() const { return impl_->threads.size(); }

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, const ChunkFn& fn,
                              std::size_t max_parallelism) {
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(begin, end, grain);
  if (chunks == 0) return;

  const std::size_t parallelism =
      max_parallelism == 0 ? workers() + 1 : max_parallelism;
  // Serial inline path: single-thread cap, single chunk, nested call, or a
  // poolless pool. Identical chunk order keeps results bit-identical.
  if (parallelism <= 1 || chunks == 1 || workers() == 0 ||
      tls_inside_pool_worker) {
    static obs::Counter& inline_jobs =
        obs::metrics().counter("pool.inline_jobs");
    inline_jobs.increment();
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t b = begin + c * grain;
      fn(c, b, std::min(b + grain, end));
    }
    return;
  }

  static obs::Counter& jobs = obs::metrics().counter("pool.jobs");
  static obs::Counter& total_chunks = obs::metrics().counter("pool.chunks");
  static obs::Counter& caller_chunks =
      obs::metrics().counter("pool.chunks.caller");
  const std::size_t helpers = std::min(workers(), parallelism - 1);
  jobs.increment();
  total_chunks.add(chunks);

  static obs::Gauge& queue_depth = obs::metrics().gauge("pool.queue_depth");
  static obs::QuantileHistogram& queue_wait_ms =
      obs::metrics().quantile_histogram("pool.queue_wait_ms");

  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mu);
  // Concurrent top-level callers queue behind the in-flight job. One
  // observation per pooled job (0.0 when the pool was free) keeps the
  // histogram's count equal to pool.jobs regardless of contention.
  double waited_ms = 0.0;
  if (im.fn != nullptr) {
    ++im.queued;
    queue_depth.set(static_cast<double>(im.queued));
    const auto wait_start = std::chrono::steady_clock::now();
    im.queue_cv.wait(lock, [&] { return im.fn == nullptr; });
    waited_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wait_start)
                    .count();
    --im.queued;
    queue_depth.set(static_cast<double>(im.queued));
  }
  queue_wait_ms.observe(waited_ms);
  im.fn = &fn;
  im.begin = begin;
  im.end = end;
  im.grain = grain;
  im.chunks = chunks;
  im.helper_limit = helpers;
  im.next_chunk.store(0, std::memory_order_relaxed);
  im.error = nullptr;
  ++im.generation;
  lock.unlock();
  im.work_cv.notify_all();

  // The calling thread races for chunks alongside the helpers. It counts as
  // inside the pool while doing so, so nested parallel_for calls from its
  // chunks take the inline path instead of publishing a second job.
  tls_inside_pool_worker = true;
  caller_chunks.add(im.run_chunks(fn));
  tls_inside_pool_worker = false;

  lock.lock();
  im.done_cv.wait(lock, [&] { return im.active == 0; });
  im.fn = nullptr;
  std::exception_ptr error = im.error;
  im.error = nullptr;
  lock.unlock();
  im.queue_cv.notify_all();
  if (error) std::rethrow_exception(error);
}

namespace {
std::atomic<std::size_t> g_default_threads{0};
}  // namespace

std::size_t default_thread_count() {
  const std::size_t set = g_default_threads.load(std::memory_order_relaxed);
  if (set > 0) return set;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void set_default_thread_count(std::size_t n) {
  g_default_threads.store(n, std::memory_order_relaxed);
}

std::size_t resolve_threads(std::size_t requested) {
  return requested > 0 ? requested : default_thread_count();
}

ThreadPool& global_pool() {
  // Sized so that --threads above hardware_concurrency (and the determinism
  // tests' threads = 2 sweep on single-core hosts) still exercise real
  // worker threads; parallel_for caps participation per call.
  static ThreadPool pool(std::max<std::size_t>(default_thread_count(), 8) - 1);
  return pool;
}

void parallel_for(std::size_t threads, std::size_t begin, std::size_t end,
                  std::size_t grain, const ThreadPool::ChunkFn& fn) {
  global_pool().parallel_for(begin, end, grain, fn, resolve_threads(threads));
}

}  // namespace simprof::support
