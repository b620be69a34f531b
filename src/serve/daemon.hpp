#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stagegraph.hpp"
#include "serve/cache.hpp"
#include "serve/scheduler.hpp"

/// \file daemon.hpp
/// `giad`: an NDJSON-over-TCP serving daemon (localhost only). One request
/// per line, one JSON response line back:
///
///   {"flow_request":{"tech":"glass3d","with_eyes":true}, "id":1,
///    "priority":2, "deadline_ms":5000, "result":false}
///     -> {"ok":true,"id":1,"status":"done","cache":"hit|miss|coalesced",
///         "key":"<16 hex>","latency_us":N,"result":{...}}
///   {"stats":true}    -> {"ok":true,"stats":{...}}
///   {"ping":true}     -> {"ok":true,"pong":true}
///   {"shutdown":true} -> {"ok":true,"draining":true}  (then graceful drain)
///
/// The `search` verb is the one streaming exception to one-line-in /
/// one-line-out: it runs a dse:: Pareto search (dse/search.hpp) and streams
/// NDJSON progress events over the same connection --
///
///   {"search":{"space":{...},...}, "id":7, "deadline_ms":60000}
///     -> {"ok":true,"id":7,"event":"search_started","search_id":1,...}
///        {"ok":true,"id":7,"event":"point_evaluated",...}   (per point)
///        {"ok":true,"id":7,"event":"front_updated","version":V,...}
///        {"ok":true,"id":7,"event":"search_done","status":"done",...}
///
/// while `{"search_cancel":1}` and `{"search_refine":1,"rounds":2}` (from
/// any connection) cancel or extend a running search by its search_id;
/// cancellation cascades through the scheduler's cancellation machinery and
/// the stream ends with a "cancelled" search_done. Searches are bounded by
/// max_search_points / max_active_searches / max_search_ms below.
///
/// Architecture: a bounded accept/worker model. One accept thread polls the
/// listening socket and hands accepted connections to a fixed pool of
/// connection workers over a bounded queue (backpressure: the accept thread
/// stalls when the queue is full). Each connection worker serves one
/// connection at a time, dispatching flow requests into the shared
/// `JobScheduler` (which coalesces duplicates and consults the
/// `ResultCache`). Graceful drain on SIGINT/SIGTERM (`run_daemon`) or the
/// shutdown verb: stop accepting, half-close idle connections, let
/// in-flight requests finish, drain the scheduler, exit 0.

namespace gia::serve {

struct ServerOptions {
  int port = 7411;  ///< 0 = ephemeral (query the bound port via `port()`)
  int connection_workers = 4;
  int scheduler_workers = 2;
  std::size_t cache_capacity = 64;
  int cache_shards = 8;
  /// Disk store directory; empty = GIA_CACHE_DIR; "-" = memory only.
  std::string cache_dir;
  int accept_backlog = 16;
  /// Accepted connections waiting for a worker before accept stalls.
  int max_pending_connections = 64;

  // --- Robustness limits. Every untrusted input is bounded; violations get
  // a structured {"ok":false,"error":...} line and show up in stats.
  /// Per-request line cap; also the cap on buffered in-flight bytes per
  /// connection. Oversized requests are rejected and the connection closed.
  std::size_t max_line_bytes = 1 << 20;
  /// JSON nesting cap applied to request lines (a `[[[[...` bomb is a parse
  /// error, not a stack overflow).
  std::size_t max_json_depth = 64;
  /// Close a connection that produces no complete request for this long
  /// (slow-loris defence). 0 = no idle limit.
  int idle_timeout_ms = 30000;
  /// SO_RCVTIMEO / SO_SNDTIMEO on every connection socket: one blocked
  /// socket op (e.g. a client that stops reading its response) cannot pin a
  /// worker longer than this. 0 = no per-op limit.
  int io_timeout_ms = 10000;
  /// Wall-clock budget for one connection, counting from accept. 0 = none.
  int max_connection_ms = 0;

  // --- Search (dse) limits. A search is a long-running streaming workload;
  // these bound how much of the daemon one client can book.
  /// Cap on one search's evaluation budget (space size clamped by the
  /// spec's max_points). Larger searches are rejected with a structured
  /// error telling the client to set max_points. 0 = unlimited.
  std::uint64_t max_search_points = 512;
  /// Concurrent searches across all connections; excess is rejected.
  int max_active_searches = 2;
  /// Hard wall-clock bound applied to every search on top of the request's
  /// own deadline_ms. 0 = none.
  int max_search_ms = 0;

  // --- Coordinator (fleet) mode: `giad --coordinator`. The daemon runs no
  // local scheduler/cache; flow requests are consistent-hash routed across
  // `fleet_workers` (by their content-addressed request key) with hedging,
  // failover and load-shedding, and the stats verb merges the workers'
  // views (serve/fleet.hpp). Search verbs are worker-local (their job ids
  // and streams are), so a coordinator rejects them with a structured
  // error pointing at the workers.
  bool coordinator = false;
  std::vector<std::string> fleet_workers;  ///< "host:port" per giad worker
  int hedge_ms = 250;                      ///< hedge window; 0 disables hedging
  int fleet_replicas = 2;                  ///< distinct replicas eligible per key
  int fleet_max_inflight = 32;             ///< per-worker saturation bound
  /// Per-forward-attempt socket op bound; must exceed a cold flow run.
  int fleet_io_timeout_ms = 120000;
};

class Server {
 public:
  explicit Server(const ServerOptions& opts = ServerOptions());
  ~Server();  ///< requests stop and joins if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind/listen on 127.0.0.1 and spawn the accept + worker threads.
  /// Returns false (with `*err` filled) on socket errors.
  bool start(std::string* err = nullptr);

  /// Bound port (after a successful start).
  int port() const;

  /// Signal a graceful drain; safe from any thread, idempotent, non-blocking.
  void request_stop();

  /// Block until a requested stop has fully drained (joins all threads).
  void wait();

  /// One snapshot of the server's counters. These are the serving layer's
  /// only counters: always on, owned per instance (this server, its
  /// scheduler and result cache, the process-wide stage cache, the fleet),
  /// and the stats verb body is rendered from this struct.
  struct Stats {
    int port = 0;  ///< kernel-assigned listen port (== port())
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;       ///< protocol lines handled
    std::uint64_t flow_requests = 0;  ///< lines carrying a flow_request
    std::uint64_t protocol_errors = 0;
    /// Connections closed by a deadline: idle, per-op read/write, or the
    /// wall-clock connection budget.
    std::uint64_t timeouts = 0;
    /// Requests rejected for exceeding max_line_bytes (also counted in
    /// protocol_errors).
    std::uint64_t oversize_rejections = 0;
    /// Streaming dse search workload.
    struct Dse {
      std::uint64_t searches = 0;   ///< search verbs accepted (started)
      std::uint64_t completed = 0;  ///< finished with status "done"
      std::uint64_t cancelled = 0;  ///< finished with status "cancelled"
      std::uint64_t expired = 0;    ///< finished with status "deadline"
      std::uint64_t rejected = 0;   ///< over max_search_points / max_active_searches
      std::uint64_t active = 0;     ///< currently running
      std::uint64_t points_evaluated = 0;
      std::uint64_t front_updates = 0;
      std::uint64_t cache_assisted_points = 0;
    };
    Dse dse;
    JobScheduler::Counters scheduler;
    ResultCache::Stats cache;
    /// Process-wide stage-artifact cache (core/stagegraph.hpp): per-stage
    /// hit/miss/eviction counters proving which upstream artifacts the
    /// daemon's traffic reuses across requests.
    core::stage::StageCacheStats stage_cache;
    /// Coordinator-mode fleet counters (all zero on a worker).
    struct FleetView {
      bool enabled = false;  ///< true iff running as a coordinator
      std::uint64_t forwarded = 0;
      std::uint64_t answered = 0;
      std::uint64_t hedges = 0;
      std::uint64_t hedge_wins = 0;
      std::uint64_t failovers = 0;
      std::uint64_t shed = 0;
      std::uint64_t worker_failures = 0;
      std::uint64_t workers_total = 0;
      std::uint64_t workers_up = 0;  ///< not in backoff quarantine
    };
    FleetView fleet;
    double uptime_s = 0;
  };
  Stats stats() const;

  /// JSON body of the stats verb, rendered from `stats()` (exposed for
  /// tests and the client CLI).
  std::string stats_json() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Blocking daemon entry point used by the `giad` binary and
/// `giaflow serve`: starts the server, prints the listening port, installs
/// SIGINT/SIGTERM handlers, waits for a drain, prints final stats, and
/// returns the process exit code.
int run_daemon(const ServerOptions& opts);

/// Minimal blocking NDJSON client for giaflow/bench/CI. Every socket op is
/// bounded (connect timeout, per-op SO_RCVTIMEO/SO_SNDTIMEO, response-size
/// cap), and `request_with_retry` layers a jittered-exponential-backoff
/// retry policy with an overall deadline on top -- flow requests are
/// content-addressed, so retrying one is idempotent.
class Client {
 public:
  struct Options {
    int connect_timeout_ms = 5000;  ///< 0 = blocking connect
    int io_timeout_ms = 30000;      ///< per send/recv; 0 = unbounded
    /// Abort (with an error) when a response line exceeds this many bytes.
    std::size_t max_response_bytes = 64u << 20;
  };

  struct RetryPolicy {
    int max_attempts = 4;
    int initial_backoff_ms = 10;
    double backoff_multiplier = 2.0;
    int max_backoff_ms = 1000;
    /// Overall wall-clock budget across connects, roundtrips and sleeps;
    /// 0 = attempts alone bound the retry loop.
    int overall_deadline_ms = 30000;
    /// Seed for the deterministic backoff jitter (50-100% of the nominal
    /// backoff each attempt).
    std::uint64_t jitter_seed = 1;
  };

  Client() = default;
  explicit Client(const Options& opts) : opts_(opts) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(int port, std::string* err = nullptr);  ///< 127.0.0.1
  /// Connect to an explicit IPv4 host. `host` is a dotted quad or
  /// "localhost"; no DNS resolution happens here (the fleet configuration
  /// is addresses, and a blocking resolver call has no place on a
  /// coordinator's forwarding path).
  bool connect(const std::string& host, int port, std::string* err = nullptr);
  /// Send one line (newline appended) and read one response line.
  bool roundtrip(const std::string& line, std::string* response, std::string* err = nullptr);
  /// Send one line without waiting for a response (streaming verbs).
  bool send_line(const std::string& line, std::string* err = nullptr);
  /// Read the next response line (streamed search events arrive one per
  /// line until the "search_done" event). Bounded by io_timeout_ms per
  /// recv and max_response_bytes per line.
  bool read_line(std::string* response, std::string* err = nullptr);
  /// Connect (or reconnect) and roundtrip, retrying per `policy`. On failure
  /// the stream is reset so the next attempt starts on a fresh connection.
  /// `attempts_out` (optional) reports the number of attempts made.
  bool request_with_retry(int port, const std::string& line, const RetryPolicy& policy,
                          std::string* response, std::string* err = nullptr,
                          int* attempts_out = nullptr);
  bool request_with_retry(const std::string& host, int port, const std::string& line,
                          const RetryPolicy& policy, std::string* response,
                          std::string* err = nullptr, int* attempts_out = nullptr);
  void close();
  bool connected() const { return fd_ >= 0; }

 private:
  Options opts_;
  int fd_ = -1;
  std::string rxbuf_;
};

}  // namespace gia::serve
