#include "core/parallel.hpp"

#include <atomic>

#include "core/instrument.hpp"
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace gia::core {

namespace {

/// One parallel_for invocation: a shared chunk queue claimed by atomic
/// increment. `active` counts pool workers currently touching the job so
/// the caller knows when the stack-allocated Job may be destroyed.
struct Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  /// Submitting thread's open instrumentation span: workers adopt it so
  /// spans opened inside the body nest under the caller's span.
  void* span_ctx = nullptr;
  std::size_t n_chunks = 0;
  std::size_t chunk_size = 0;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<int> active{0};
  std::atomic<bool> abort{false};
  std::mutex err_mu;
  std::exception_ptr eptr;

  /// No chunk is left to claim.
  bool exhausted() const {
    return abort.load(std::memory_order_relaxed) ||
           next.load(std::memory_order_relaxed) >= n_chunks;
  }

  void run_chunks() {
    for (;;) {
      if (abort.load(std::memory_order_relaxed)) return;
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= n_chunks) return;
      const std::size_t begin = c * chunk_size;
      const std::size_t end = std::min(n, begin + chunk_size);
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!eptr) eptr = std::current_exception();
        abort.store(true, std::memory_order_relaxed);
      }
    }
  }
};

/// Worker threads shared by every parallel_for in flight: top-level,
/// nested inside another call's body, or concurrent from other threads.
/// Each call registers its Job; an idle worker claims chunks from the
/// newest job that still has some. A caller runs its job's unclaimed
/// chunks itself and then waits only for chunks already running on
/// workers, so progress never depends on a free worker.
class Pool {
 public:
  explicit Pool(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) threads_.emplace_back([this] { worker(); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  int workers() const { return static_cast<int>(threads_.size()); }

  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      jobs_.push_back(&job);
    }
    cv_.notify_all();

    // The caller is a full participant; workers join as they wake.
    job.run_chunks();

    // Deregister first so no worker can claim the job any more, then wait
    // for the chunks still running elsewhere.
    std::unique_lock<std::mutex> lk(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    cv_done_.wait(lk, [&] { return job.active.load(std::memory_order_relaxed) == 0; });
  }

 private:
  /// Newest registered job with unclaimed chunks, or nullptr. Under mu_.
  Job* claimable() const {
    for (auto it = jobs_.rbegin(); it != jobs_.rend(); ++it) {
      if (!(*it)->exhausted()) return *it;
    }
    return nullptr;
  }

  void worker() {
    for (;;) {
      Job* job = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || (job = claimable()) != nullptr; });
        if (stop_) return;
        // Registered under the lock while the job is still listed: its
        // caller deregisters under the same lock before it waits on
        // `active`, so the job outlives this worker's use of it.
        job->active.fetch_add(1, std::memory_order_relaxed);
      }
      {
        instrument::ContextScope span_ctx(job->span_ctx);
        job->run_chunks();
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        job->active.fetch_sub(1, std::memory_order_relaxed);
      }
      cv_done_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable cv_done_;
  std::vector<Job*> jobs_;  ///< registered jobs, oldest first
  bool stop_ = false;
};

int env_thread_count() {
  if (const char* env = std::getenv("GIA_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<int>(std::min<long>(v, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(std::min<unsigned>(hw, 256u)) : 1;
}

struct PoolState {
  std::mutex mu;
  int desired = 0;  ///< 0 = not yet initialized from the environment
  /// Shared with every parallel_for in flight: a thread-count change
  /// swaps in a new pool while running calls finish on the old one.
  std::shared_ptr<Pool> pool;

  int resolve_desired() {
    if (desired == 0) desired = env_thread_count();
    return desired;
  }

  /// Returns the pool to use (workers = desired - 1, the caller being the
  /// remaining executor), or nullptr for serial execution.
  std::shared_ptr<Pool> acquire() {
    std::lock_guard<std::mutex> lk(mu);
    const int want = resolve_desired() - 1;
    if (want <= 0) {
      pool.reset();
      return nullptr;
    }
    if (!pool || pool->workers() != want) pool = std::make_shared<Pool>(want);
    return pool;
  }
};

PoolState& state() {
  static PoolState s;
  return s;
}

}  // namespace

int thread_count() {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.resolve_desired();
}

void set_thread_count(int n) {
  auto& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (n <= 0) {
    s.desired = env_thread_count();
  } else {
    s.desired = std::min(n, 256);
  }
  if (s.desired == 1) s.pool.reset();
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::shared_ptr<Pool> pool = n == 1 ? nullptr : state().acquire();
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.span_ctx = instrument::current_context();
  job.n = n;
  const std::size_t ways = static_cast<std::size_t>(pool->workers()) + 1;
  job.n_chunks = std::min(n, ways);
  job.chunk_size = (n + job.n_chunks - 1) / job.n_chunks;
  pool->run(job);
  if (job.eptr) std::rethrow_exception(job.eptr);
}

void parallel_for_chunked(std::size_t n, std::size_t grain,
                          const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n_chunks = (n + grain - 1) / grain;
  parallel_for(n_chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    fn(begin, std::min(n, begin + grain));
  });
}

}  // namespace gia::core
