#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/request.hpp"

/// \file scheduler.hpp
/// Dependency-aware job scheduler for flow evaluations. Jobs are
/// `FlowRequest`s; a fixed set of scheduler workers pops the highest
/// priority runnable job (FIFO within a priority, dependencies satisfied)
/// and submits it as stage-level work against the flow's stage DAG
/// (core/stagegraph.hpp): upstream artifacts shared with earlier traffic
/// are cache hits, independent stages run concurrently, and everything
/// fans out onto the shared `core/parallel` pool, so scheduler concurrency
/// composes with solver parallelism without oversubscription logic here.
///
/// Request coalescing: submitting a request whose cache key is already
/// queued or running does not enqueue a second flow run -- the new ticket
/// attaches to the in-flight job and all attached tickets complete together
/// (a burst of N identical requests performs exactly one run and counts
/// N-1 coalesced). Completed results land in the `ResultCache`, so
/// subsequent submissions are cache hits that never reach the queue.
///
/// Each job may carry a deadline (checked when a worker would start it:
/// expired jobs complete with `Status::Expired` without running) and may be
/// cancelled while queued. A job may also depend on earlier job ids: it
/// stays held until every dependency reaches a terminal state (a failed or
/// cancelled dependency cancels its dependents).

namespace gia::serve {

class JobScheduler;

/// Shared handle to one submitted request. Multiple tickets may share one
/// underlying job (coalescing); they all observe the same terminal state.
class JobTicket {
 public:
  enum class Status { Queued, Running, Done, Failed, Cancelled, Expired };

  /// Scheduler-assigned id of the underlying job (coalesced tickets share
  /// it). Cache-hit tickets carry a real id too -- it is never registered
  /// for cancellation (the job is already terminal), so cancel(job_id())
  /// on a hit is a well-defined `false`.
  std::uint64_t job_id() const;
  /// Content-address of the request (see request_key).
  std::uint64_t key() const;
  /// True when this ticket was answered directly from the cache.
  bool from_cache() const;
  /// True when this ticket attached to an already-in-flight duplicate.
  bool coalesced() const;

  Status status() const;
  /// Block until the job reaches a terminal state.
  Status wait() const;
  /// Bounded wait; returns the (possibly non-terminal) status afterwards.
  Status wait_for(std::chrono::milliseconds timeout) const;

  /// The result (Done only; nullptr otherwise).
  ResultCache::ResultPtr result() const;
  /// Failure reason (Failed only).
  std::string error() const;
  /// Monotonic completion sequence number (1 = first job to finish); 0
  /// while non-terminal. Cache-hit tickets complete at submit time and get
  /// a real sequence number like any executed job, so the order is
  /// truthful across hits and runs. Lets tests and clients observe
  /// execution order.
  std::uint64_t finish_order() const;

 private:
  friend class JobScheduler;
  struct State;
  explicit JobTicket(std::shared_ptr<State> st, bool from_cache, bool coalesced);
  std::shared_ptr<State> state_;
  bool from_cache_ = false;
  bool coalesced_ = false;
};

class JobScheduler {
 public:
  struct Options {
    int workers = 2;
    /// Cache consulted before queuing and populated after each run. May be
    /// nullptr (no caching, coalescing still applies).
    ResultCache* cache = nullptr;
  };

  struct Counters {
    std::uint64_t pending = 0;     ///< jobs not yet terminal (see pending())
    std::uint64_t submitted = 0;   ///< submit() calls
    std::uint64_t cache_hits = 0;  ///< answered without queueing
    std::uint64_t coalesced = 0;   ///< attached to an in-flight duplicate
    std::uint64_t executed = 0;    ///< flow runs actually performed
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t expired = 0;
    /// Stage-level accounting across all executed flows: flows run as
    /// stage-DAG jobs (core/stagegraph.hpp), so a request differing from
    /// recent traffic only in downstream knobs reuses cached upstream
    /// artifacts. hits = stages served from the stage cache, misses =
    /// stage bodies actually run.
    std::uint64_t stage_hits = 0;
    std::uint64_t stage_misses = 0;
  };

  explicit JobScheduler(const Options& opts);
  /// Stops without draining: queued jobs are cancelled, running jobs finish.
  ~JobScheduler();
  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  struct SubmitOptions {
    int priority = 0;  ///< higher runs first; FIFO within a priority
    /// Latest acceptable start time; zero (default) = no deadline.
    std::chrono::steady_clock::time_point deadline{};
    /// Job ids that must reach a terminal state before this job starts.
    std::vector<std::uint64_t> after;
  };

  /// Enqueue a request (or answer it from cache / coalesce onto an
  /// in-flight duplicate). Never blocks on the flow itself.
  JobTicket submit(const FlowRequest& req);  ///< default SubmitOptions
  JobTicket submit(const FlowRequest& req, const SubmitOptions& opts);

  /// Cancel a queued job; returns false when the job already started or
  /// finished. Cancelling cascades to jobs that depend on it.
  bool cancel(std::uint64_t job_id);

  /// Block until every submitted job has reached a terminal state.
  void drain();

  /// Jobs not yet terminal (queued, dependency-held or running). A live
  /// load signal for the daemon `stats` verb and the dse:: search loop.
  std::size_t pending() const;

  Counters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Append `c` as one JSON object: the "scheduler" block of the stats verb.
void to_json(const JobScheduler::Counters& c, std::string& out);

}  // namespace gia::serve
