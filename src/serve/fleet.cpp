#include "serve/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/instrument.hpp"
#include "core/json.hpp"
#include "serve/faultinject.hpp"
#include "serve/request.hpp"

namespace gia::serve {

namespace json = core::json;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// HashRing

namespace {

/// splitmix64 finalizer. FNV-1a of short, similar strings ("host:port#v")
/// has weak avalanche in the upper bits, which clusters ring points and
/// skews worker key shares badly; one extra mixing round restores uniform
/// arc lengths while staying deterministic.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

HashRing::HashRing(const std::vector<std::string>& node_names, int vnodes) {
  node_count_ = node_names.size();
  if (vnodes < 1) vnodes = 1;
  points_.reserve(node_names.size() * static_cast<std::size_t>(vnodes));
  for (std::size_t i = 0; i < node_names.size(); ++i) {
    for (int v = 0; v < vnodes; ++v) {
      const std::uint64_t h = mix64(fnv1a64(node_names[i] + "#" + std::to_string(v)));
      points_.emplace_back(h, static_cast<int>(i));
    }
  }
  std::sort(points_.begin(), points_.end());
}

std::vector<int> HashRing::replicas_for(std::uint64_t key, int n) const {
  std::vector<int> out;
  if (points_.empty() || n < 1) return out;
  const int want = std::min<int>(n, static_cast<int>(node_count_));
  out.reserve(static_cast<std::size_t>(want));
  // Mix the key before the lookup: request keys whose preimages are short
  // or similar would otherwise cluster on a few arcs and defeat the
  // balance the virtual nodes buy.
  // First point clockwise from the key, wrapping at the top of the ring.
  std::size_t at = std::lower_bound(points_.begin(), points_.end(),
                                    std::make_pair(mix64(key), -1)) -
                   points_.begin();
  for (std::size_t step = 0; step < points_.size() && static_cast<int>(out.size()) < want;
       ++step, ++at) {
    const int node = points_[at % points_.size()].second;
    if (std::find(out.begin(), out.end(), node) == out.end()) out.push_back(node);
  }
  return out;
}

int HashRing::primary(std::uint64_t key) const {
  const auto r = replicas_for(key, 1);
  return r.empty() ? -1 : r[0];
}

// ---------------------------------------------------------------------------
// Fleet internals

/// One worker's health, saturation and traffic counters. Health transitions
/// (consecutive failures -> quarantine with doubling backoff; any success ->
/// full reset) are under `mu`; the hot-path counters are lock-free.
struct WorkerState {
  std::string host;
  int port = 0;

  std::atomic<int> inflight{0};
  std::atomic<std::uint64_t> n_forwarded{0};
  std::atomic<std::uint64_t> n_ok{0};
  std::atomic<std::uint64_t> n_failures{0};

  std::mutex mu;
  int consecutive_failures = 0;        // guarded by mu
  int cur_backoff_ms = 0;              // guarded by mu; next quarantine length
  Clock::time_point down_until{};      // guarded by mu; epoch = healthy

  bool available(Clock::time_point now, int max_inflight) {
    if (inflight.load(std::memory_order_relaxed) >= max_inflight) return false;
    std::lock_guard<std::mutex> lk(mu);
    // A worker whose quarantine has expired is offered traffic again; the
    // first request is the probe that decides between revival and a longer
    // quarantine (see record_failure).
    return down_until == Clock::time_point{} || now >= down_until;
  }

  bool up(Clock::time_point now) {
    std::lock_guard<std::mutex> lk(mu);
    return down_until == Clock::time_point{} || now >= down_until;
  }

  void record_success(int base_backoff_ms) {
    n_ok.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu);
    consecutive_failures = 0;
    cur_backoff_ms = base_backoff_ms;
    down_until = Clock::time_point{};
  }

  void record_failure(const FleetOptions& opts, Clock::time_point now) {
    n_failures.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu);
    ++consecutive_failures;
    if (consecutive_failures < opts.max_failures) return;
    if (cur_backoff_ms <= 0) cur_backoff_ms = std::max(1, opts.backoff_ms);
    down_until = now + std::chrono::milliseconds(cur_backoff_ms);
    cur_backoff_ms = std::min(cur_backoff_ms * 2, std::max(1, opts.max_backoff_ms));
  }
};

/// Shared state of one hedged forward: attempts report in under `mu`, the
/// first success wins, forward() waits on `cv` for "done or all launched
/// attempts finished".
struct Fleet::HedgeOp {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;          // a winner has been recorded
  std::string response;
  int winner_worker = -1;
  int winner_attempt = -1;    // 0 = primary, >0 = hedge/failover
  int launched = 0;
  int finished = 0;
  std::string first_error;    // diagnostics when every attempt fails
};

struct Fleet::Impl {
  std::vector<std::shared_ptr<WorkerState>> states;

  // Fleet-wide counters (always on).
  std::atomic<std::uint64_t> n_forwarded{0};
  std::atomic<std::uint64_t> n_answered{0};
  std::atomic<std::uint64_t> n_hedges{0};
  std::atomic<std::uint64_t> n_hedge_wins{0};
  std::atomic<std::uint64_t> n_failovers{0};
  std::atomic<std::uint64_t> n_shed{0};
  std::atomic<std::uint64_t> n_worker_failures{0};

  // Hedge losers keep running after forward() returns (their worker is
  // still doing idempotent work); their threads are parked here and joined
  // opportunistically on later launches and finally in ~Fleet.
  struct PendingThread {
    std::thread th;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::mutex reap_mu;
  std::vector<PendingThread> pending;
};

Fleet::Fleet(const FleetOptions& opts)
    : opts_(opts),
      ring_([&] {
        if (opts.workers.empty())
          throw std::invalid_argument("fleet: empty worker pool");
        std::vector<std::string> names;
        names.reserve(opts.workers.size());
        for (const auto& spec : opts.workers) {
          std::string host;
          int port = 0;
          if (!parse_worker(spec, &host, &port))
            throw std::invalid_argument("fleet: bad worker address: " + spec);
          names.push_back(host + ":" + std::to_string(port));
        }
        return HashRing(names, opts.ring_vnodes);
      }()),
      impl_(new Impl) {
  opts_.replicas = std::max(1, std::min<int>(opts_.replicas,
                                             static_cast<int>(opts_.workers.size())));
  for (const auto& spec : opts_.workers) {
    auto ws = std::make_shared<WorkerState>();
    parse_worker(spec, &ws->host, &ws->port);
    ws->cur_backoff_ms = std::max(1, opts_.backoff_ms);
    impl_->states.push_back(std::move(ws));
  }
}

Fleet::~Fleet() { reap_finished(/*join_all=*/true); }

std::size_t Fleet::size() const { return impl_->states.size(); }

bool Fleet::parse_worker(const std::string& spec, std::string* host, int* port) {
  if (spec.empty()) return false;
  std::string h = "127.0.0.1";
  std::string p = spec;
  const auto colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (!spec.substr(0, colon).empty()) h = spec.substr(0, colon);
    p = spec.substr(colon + 1);
  }
  if (p.empty()) return false;
  int v = 0;
  for (char c : p) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
    if (v > 65535) return false;
  }
  if (v < 1) return false;
  if (host) *host = h;
  if (port) *port = v;
  return true;
}

void Fleet::reap_finished(bool join_all) {
  std::vector<std::thread> joinable;
  {
    std::lock_guard<std::mutex> lk(impl_->reap_mu);
    auto& pending = impl_->pending;
    for (auto it = pending.begin(); it != pending.end();) {
      if (join_all || it->finished->load(std::memory_order_acquire)) {
        joinable.push_back(std::move(it->th));
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock so a straggler can't block new launches.
  for (auto& th : joinable)
    if (th.joinable()) th.join();
}

void Fleet::launch_attempt(const std::shared_ptr<HedgeOp>& op, int worker_index,
                           const std::string& line) {
  auto ws = impl_->states[static_cast<std::size_t>(worker_index)];
  auto finished = std::make_shared<std::atomic<bool>>(false);
  const int attempt_index = [&] {
    std::lock_guard<std::mutex> lk(op->mu);
    return op->launched++;
  }();
  ws->inflight.fetch_add(1, std::memory_order_relaxed);
  ws->n_forwarded.fetch_add(1, std::memory_order_relaxed);

  const FleetOptions& opts = opts_;
  Impl* impl = impl_.get();
  std::thread th([op, ws, line, finished, attempt_index, worker_index, opts, impl] {
    // Deterministic fault sites: a stall before the send models a slow
    // worker (the hedge trigger); a dead verdict models a worker that
    // vanished between health check and send.
    fault::maybe_slow_worker();
    bool ok = false;
    std::string response, err;
    if (fault::worker_dead()) {
      err = "injected worker death (fleet_worker_down)";
    } else {
      Client client(opts.client);
      ok = client.request_with_retry(ws->host, ws->port, line, opts.retry, &response, &err);
    }
    ws->inflight.fetch_sub(1, std::memory_order_relaxed);
    if (ok) {
      ws->record_success(opts.backoff_ms);
    } else {
      ws->record_failure(opts, Clock::now());
      impl->n_worker_failures.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lk(op->mu);
      ++op->finished;
      if (ok && !op->done) {
        op->done = true;
        op->response = std::move(response);
        op->winner_worker = worker_index;
        op->winner_attempt = attempt_index;
      } else if (!ok && op->first_error.empty()) {
        op->first_error = std::move(err);
      }
    }
    op->cv.notify_all();
    finished->store(true, std::memory_order_release);
  });
  {
    std::lock_guard<std::mutex> lk(impl_->reap_mu);
    impl_->pending.push_back(Impl::PendingThread{std::move(th), std::move(finished)});
  }
}

Fleet::ForwardResult Fleet::forward(std::uint64_t key, const std::string& line) {
  GIA_SPAN("fleet/forward");
  reap_finished(/*join_all=*/false);
  impl_->n_forwarded.fetch_add(1, std::memory_order_relaxed);

  ForwardResult out;
  const auto now = Clock::now();
  std::vector<int> candidates;
  for (int idx : ring_.replicas_for(key, opts_.replicas)) {
    if (impl_->states[static_cast<std::size_t>(idx)]->available(now, opts_.max_inflight_per_worker))
      candidates.push_back(idx);
  }
  if (candidates.empty()) {
    impl_->n_shed.fetch_add(1, std::memory_order_relaxed);
    out.shed = true;
    out.error = "all replicas down or saturated";
    return out;
  }

  auto op = std::make_shared<HedgeOp>();
  launch_attempt(op, candidates[0], line);
  std::size_t next = 1;
  int launched_total = 1;

  std::unique_lock<std::mutex> lk(op->mu);
  while (!op->done) {
    if (op->finished == op->launched) {
      // Every launched attempt failed: promote the next replica at once
      // (failover), or give up when the chain is exhausted.
      if (next < candidates.size()) {
        const int idx = candidates[next++];
        impl_->n_failovers.fetch_add(1, std::memory_order_relaxed);
        lk.unlock();
        launch_attempt(op, idx, line);
        ++launched_total;
        lk.lock();
        continue;
      }
      break;
    }
    if (next < candidates.size() && opts_.hedge_ms > 0) {
      // An attempt is in flight and a spare replica remains: give the
      // attempt one hedge window, then re-issue to the next replica.
      const bool timed_out = !op->cv.wait_for(
          lk, std::chrono::milliseconds(opts_.hedge_ms),
          [&] { return op->done || op->finished == op->launched; });
      if (timed_out) {
        const int idx = candidates[next++];
        impl_->n_hedges.fetch_add(1, std::memory_order_relaxed);
        out.hedged = true;
        lk.unlock();
        launch_attempt(op, idx, line);
        ++launched_total;
        lk.lock();
      }
    } else {
      // No spare replica (or hedging disabled): wait for the verdict of
      // what is already in flight.
      op->cv.wait(lk, [&] { return op->done || op->finished == op->launched; });
    }
  }

  out.attempts = launched_total;
  if (op->done) {
    out.ok = true;
    out.response = std::move(op->response);
    out.worker = op->winner_worker;
    impl_->n_answered.fetch_add(1, std::memory_order_relaxed);
    if (op->winner_attempt > 0)
      impl_->n_hedge_wins.fetch_add(1, std::memory_order_relaxed);
  } else {
    out.shed = true;
    out.error = op->first_error.empty() ? "all forward attempts failed" : op->first_error;
    impl_->n_shed.fetch_add(1, std::memory_order_relaxed);
  }
  return out;
}

Fleet::Counters Fleet::counters() const {
  Counters c;
  c.forwarded = impl_->n_forwarded.load(std::memory_order_relaxed);
  c.answered = impl_->n_answered.load(std::memory_order_relaxed);
  c.hedges = impl_->n_hedges.load(std::memory_order_relaxed);
  c.hedge_wins = impl_->n_hedge_wins.load(std::memory_order_relaxed);
  c.failovers = impl_->n_failovers.load(std::memory_order_relaxed);
  c.shed = impl_->n_shed.load(std::memory_order_relaxed);
  c.worker_failures = impl_->n_worker_failures.load(std::memory_order_relaxed);
  return c;
}

std::vector<Fleet::WorkerInfo> Fleet::workers() const {
  std::vector<WorkerInfo> out;
  const auto now = Clock::now();
  out.reserve(impl_->states.size());
  for (const auto& ws : impl_->states) {
    WorkerInfo w;
    w.host = ws->host;
    w.port = ws->port;
    w.up = ws->up(now);
    w.inflight = ws->inflight.load(std::memory_order_relaxed);
    w.forwarded = ws->n_forwarded.load(std::memory_order_relaxed);
    w.ok = ws->n_ok.load(std::memory_order_relaxed);
    w.failures = ws->n_failures.load(std::memory_order_relaxed);
    out.push_back(std::move(w));
  }
  return out;
}

namespace {

/// Sum an (optionally nested) numeric field of a worker's stats body into
/// the aggregate; silently skips workers whose stats lack the field so a
/// version-skewed worker cannot poison the merged view.
std::uint64_t stat_u64(const json::Value& stats, const char* group, const char* field) {
  const json::Value* v = &stats;
  if (group) {
    v = stats.find(group);
    if (!v || v->kind != json::Value::Kind::Object) return 0;
  }
  const json::Value* f = v->find(field);
  if (!f || f->kind != json::Value::Kind::Number) return 0;
  return f->as_u64();
}

}  // namespace

void to_json(const Fleet::Counters& c, std::string& out) {
  json::open(out);
  json::put_u(out, "forwarded", c.forwarded);
  json::put_u(out, "answered", c.answered);
  json::put_u(out, "hedges", c.hedges);
  json::put_u(out, "hedge_wins", c.hedge_wins);
  json::put_u(out, "failovers", c.failovers);
  json::put_u(out, "shed", c.shed);
  json::put_u(out, "worker_failures", c.worker_failures);
  json::close(out);
}

std::string Fleet::stats_json() {
  struct Agg {
    std::uint64_t requests = 0, flow_requests = 0;
    std::uint64_t sched_submitted = 0, sched_cache_hits = 0, sched_coalesced = 0;
    std::uint64_t sched_executed = 0, sched_failed = 0;
    std::uint64_t cache_hits = 0, cache_misses = 0;
    std::uint64_t workers_up = 0;
  } agg;

  std::string stats_request;
  json::open(stats_request);
  json::put_b(stats_request, "stats", true);
  json::close(stats_request);

  std::string out;
  json::open(out);
  json::open_array(out, "workers");
  const auto infos = workers();
  for (const auto& w : infos) {
    json::open(out);
    json::put_s(out, "host", w.host);
    json::put_i(out, "port", w.port);
    json::put_b(out, "up", w.up);
    json::put_i(out, "inflight", w.inflight);
    json::put_u(out, "forwarded", w.forwarded);
    json::put_u(out, "ok", w.ok);
    json::put_u(out, "failures", w.failures);

    // One bounded roundtrip per live worker; a worker in quarantine (or one
    // that fails the probe) contributes null, not an error.
    const json::Value* stats = nullptr;
    json::Value response;
    if (w.up) {
      Client::Options copts = opts_.client;
      copts.io_timeout_ms = std::min(copts.io_timeout_ms, 5000);
      Client client(copts);
      std::string line;
      if (client.connect(w.host, w.port) && client.roundtrip(stats_request, &line)) {
        try {
          response = json::parse(line);
          const json::Value* ok = response.find("ok");
          stats = response.find("stats");
          if (!ok || !ok->as_bool() || !stats || stats->kind != json::Value::Kind::Object)
            stats = nullptr;
        } catch (const std::exception&) {
          stats = nullptr;
        }
      }
    }
    if (stats) {
      ++agg.workers_up;
      agg.requests += stat_u64(*stats, nullptr, "requests");
      agg.flow_requests += stat_u64(*stats, nullptr, "flow_requests");
      agg.sched_submitted += stat_u64(*stats, "scheduler", "submitted");
      agg.sched_cache_hits += stat_u64(*stats, "scheduler", "cache_hits");
      agg.sched_coalesced += stat_u64(*stats, "scheduler", "coalesced");
      agg.sched_executed += stat_u64(*stats, "scheduler", "executed");
      agg.sched_failed += stat_u64(*stats, "scheduler", "failed");
      agg.cache_hits += stat_u64(*stats, "cache", "hits");
      agg.cache_misses += stat_u64(*stats, "cache", "misses");
      json::key(out, "stats");
      json::write(*stats, out);
    } else {
      json::put_null(out, "stats");
    }
    json::close(out);
  }
  json::close_array(out);

  json::key(out, "counters");
  to_json(counters(), out);
  json::open(out, "aggregate");
  json::put_u(out, "workers_up", agg.workers_up);
  json::put_u(out, "workers_total", infos.size());
  json::put_u(out, "requests", agg.requests);
  json::put_u(out, "flow_requests", agg.flow_requests);
  json::put_u(out, "scheduler_submitted", agg.sched_submitted);
  json::put_u(out, "scheduler_cache_hits", agg.sched_cache_hits);
  json::put_u(out, "scheduler_coalesced", agg.sched_coalesced);
  json::put_u(out, "scheduler_executed", agg.sched_executed);
  json::put_u(out, "scheduler_failed", agg.sched_failed);
  json::put_u(out, "cache_hits", agg.cache_hits);
  json::put_u(out, "cache_misses", agg.cache_misses);
  json::close(out);
  json::close(out);
  return out;
}

}  // namespace gia::serve
