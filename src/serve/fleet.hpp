#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/daemon.hpp"

/// \file fleet.hpp
/// Sharded serving fleet: the coordinator side of `giad --coordinator`.
///
/// A `Fleet` owns a consistent-hash ring over a configured pool of giad
/// workers and forwards NDJSON flow-request lines to them by the request's
/// existing FNV-1a-64 content address (`request_key`). Because requests are
/// content-addressed and flow evaluation is idempotent, the same line may
/// safely be issued to more than one replica; the fleet exploits that twice:
///
///  * **Hedging** -- when the replica owning a key has not answered within
///    `hedge_ms`, the request is re-issued to the next replica on the ring
///    and the first response wins. One hedge per wait window, walking the
///    ring in order, so a single slow worker costs one extra request, not a
///    storm.
///  * **Failover** -- a failed attempt (dead worker, exhausted per-worker
///    retry policy) immediately promotes the next replica without waiting
///    for the hedge window.
///
/// Per-worker health is driven by the existing `Client::request_with_retry`
/// machinery: `max_failures` consecutive failed attempts put a worker into
/// exponential-backoff quarantine (`backoff_ms`..`max_backoff_ms`); the
/// first request after the quarantine expires is the probe that either
/// revives it or re-arms a doubled backoff. When every replica for a key is
/// down or saturated (`max_inflight_per_worker`), the fleet sheds the
/// request with a structured `{"ok":false,"error":"overloaded",...}` answer
/// instead of queueing unboundedly.
///
/// `GIA_FAULTS` sites `fleet_worker_down` / `fleet_slow_worker` inject
/// worker death and stalls on the forwarding path deterministically (see
/// faultinject.hpp), so partition drills replay identically in CI.

namespace gia::serve {

/// Consistent-hash ring over named nodes. Each node contributes `vnodes`
/// points (FNV-1a of "name#i"), so adding or removing a worker remaps only
/// the keys it owned -- every other key keeps its primary replica and its
/// warm result/stage caches.
class HashRing {
 public:
  /// Node names must be unique; an empty list is allowed (lookups return
  /// nothing) so a fleet can be probed before workers are configured.
  explicit HashRing(const std::vector<std::string>& node_names, int vnodes = 64);

  /// Up to `n` *distinct* node indices responsible for `key`, in ring
  /// (preference) order: the primary first, then the hedge/failover chain.
  std::vector<int> replicas_for(std::uint64_t key, int n) const;

  /// replicas_for(key, 1)[0]; -1 on an empty ring.
  int primary(std::uint64_t key) const;

  std::size_t node_count() const { return node_count_; }

 private:
  std::vector<std::pair<std::uint64_t, int>> points_;  ///< sorted (hash, node)
  std::size_t node_count_ = 0;
};

struct FleetOptions {
  /// Worker addresses, "host:port" (host defaults to 127.0.0.1; a bare
  /// port is accepted). Order is identity: worker index i on the ring is
  /// workers[i].
  std::vector<std::string> workers;
  /// Distinct replicas eligible per key (primary + hedge/failover chain),
  /// clamped to the worker count.
  int replicas = 2;
  /// Hedge window: re-issue to the next replica when the current attempt
  /// has not answered within this many ms. 0 disables hedging (failover on
  /// hard failure still applies).
  int hedge_ms = 250;
  /// Virtual nodes per worker on the ring.
  int ring_vnodes = 64;
  /// Consecutive failed attempts before a worker enters backoff quarantine.
  int max_failures = 3;
  int backoff_ms = 500;        ///< first quarantine; doubles per relapse
  int max_backoff_ms = 10000;  ///< quarantine cap
  /// Saturation bound: a worker with this many coordinator requests in
  /// flight is skipped; all replicas saturated => the request is shed.
  int max_inflight_per_worker = 32;
  /// Per-attempt socket options. The io timeout bounds one worker holding
  /// a forwarded request; it must comfortably exceed a cold flow run.
  Client::Options client = [] {
    Client::Options o;
    o.connect_timeout_ms = 2000;
    o.io_timeout_ms = 120000;
    return o;
  }();
  /// Per-worker retry policy for one forward attempt. Kept tight (2
  /// attempts) because the cross-replica failover above is the real retry.
  Client::RetryPolicy retry = [] {
    Client::RetryPolicy p;
    p.max_attempts = 2;
    p.initial_backoff_ms = 20;
    p.max_backoff_ms = 200;
    p.overall_deadline_ms = 150000;
    return p;
  }();
};

class Fleet {
 public:
  /// Throws std::invalid_argument on an empty pool or a malformed
  /// "host:port" entry.
  explicit Fleet(const FleetOptions& opts);
  /// Joins every outstanding hedge/failover attempt (bounded by the
  /// per-attempt client timeouts). Destroy only after the threads that
  /// call forward() have stopped.
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  struct ForwardResult {
    bool ok = false;       ///< a worker answered; `response` is its line
    bool shed = false;     ///< no replica available (all down/saturated) or
                           ///  every launched attempt failed
    std::string response;  ///< worker response line (ok) -- empty when shed
    std::string error;     ///< first attempt error (shed diagnostics)
    int worker = -1;       ///< index of the answering worker
    int attempts = 0;      ///< attempts launched (1 = primary only)
    bool hedged = false;   ///< a hedge timer fired for this request
  };

  /// Forward one request line (no trailing newline) keyed by its content
  /// address. Blocks until a replica answers, every launched attempt has
  /// failed, or no replica was available at all. Never throws on worker
  /// failure -- degradation is data, not control flow.
  ForwardResult forward(std::uint64_t key, const std::string& line);

  struct Counters {
    std::uint64_t forwarded = 0;        ///< forward() calls
    std::uint64_t answered = 0;         ///< answered by some replica
    std::uint64_t hedges = 0;           ///< hedge-timer re-issues
    std::uint64_t hedge_wins = 0;       ///< answers that came from a hedge
    std::uint64_t failovers = 0;        ///< failure-promoted re-issues
    std::uint64_t shed = 0;             ///< structured "overloaded" answers
    std::uint64_t worker_failures = 0;  ///< individual failed attempts
  };
  Counters counters() const;

  struct WorkerInfo {
    std::string host;
    int port = 0;
    bool up = true;  ///< false while in backoff quarantine
    int inflight = 0;
    std::uint64_t forwarded = 0;  ///< attempts issued to this worker
    std::uint64_t ok = 0;
    std::uint64_t failures = 0;
  };
  std::vector<WorkerInfo> workers() const;

  const HashRing& ring() const { return ring_; }
  std::size_t size() const;

  /// Fleet-wide stats view: per-worker health + counters, each live
  /// worker's own `stats` verb body, and an aggregate merging the worker
  /// scheduler/cache counters. One bounded roundtrip per worker.
  std::string stats_json();

  /// Parse "host:port" (or a bare port, host defaulting to 127.0.0.1).
  static bool parse_worker(const std::string& spec, std::string* host, int* port);

 private:
  struct HedgeOp;
  void launch_attempt(const std::shared_ptr<HedgeOp>& op, int worker_index,
                      const std::string& line);
  void reap_finished(bool join_all);

  FleetOptions opts_;
  HashRing ring_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Append `c` as one JSON object: the "counters" block of the fleet view.
void to_json(const Fleet::Counters& c, std::string& out);

}  // namespace gia::serve
