#include "serve/faultinject.hpp"

#include <sys/socket.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "core/json.hpp"

namespace gia::serve::fault {

namespace {

constexpr int kSiteCount = static_cast<int>(Site::kCount);

struct Registry {
  std::atomic<bool> armed{false};  ///< any site has probability > 0
  std::uint64_t seed = 1;
  int stall_ms = 10;
  int slow_worker_ms = 50;
  /// Probability scaled to 2^64 so the decision is one integer compare.
  std::uint64_t threshold[kSiteCount] = {};
  std::atomic<std::uint64_t> n_trials[kSiteCount] = {};
  std::atomic<std::uint64_t> n_injected[kSiteCount] = {};
};

Registry g_reg;
std::once_flag g_env_once;

/// Stalls wait on this, not in sleep_for: configure() bumps the generation
/// under the mutex, which ends every stall in progress. The stall lengths
/// and the stall sites' thresholds are read under it too.
std::mutex g_stall_mu;
std::condition_variable g_stall_cv;
std::uint64_t g_config_gen = 0;  // guarded by g_stall_mu

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t prob_to_threshold(double p) noexcept {
  if (p <= 0) return 0;
  if (p >= 1) return ~0ull;
  return static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
}

bool parse_site(const std::string& key, Site* out) noexcept {
  for (int i = 0; i < kSiteCount; ++i) {
    if (key == site_name(static_cast<Site>(i))) {
      *out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

void apply_spec(const std::string& spec) {
  g_reg.seed = 1;
  g_reg.stall_ms = 10;
  g_reg.slow_worker_ms = 50;
  for (int i = 0; i < kSiteCount; ++i) g_reg.threshold[i] = 0;
  reset_counters();

  bool any = false;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "GIA_FAULTS: ignoring entry without '=': \"%s\"\n", entry.c_str());
      continue;
    }
    const std::string key = entry.substr(0, eq);
    std::string val = entry.substr(eq + 1);

    if (key == "seed") {
      char* rest = nullptr;
      g_reg.seed = std::strtoull(val.c_str(), &rest, 10);
      if (rest == val.c_str() || *rest != '\0')
        std::fprintf(stderr, "GIA_FAULTS: bad seed \"%s\"\n", val.c_str());
      continue;
    }

    Site site;
    if (!parse_site(key, &site)) {
      std::fprintf(stderr, "GIA_FAULTS: ignoring unknown site \"%s\"\n", key.c_str());
      continue;
    }
    // Optional ":MS" parameter (the stall sites only).
    const std::size_t colon = val.find(':');
    if (colon != std::string::npos) {
      if (site == Site::SchedStall) {
        const int ms = std::atoi(val.c_str() + colon + 1);
        if (ms > 0) g_reg.stall_ms = ms;
      } else if (site == Site::FleetSlowWorker) {
        const int ms = std::atoi(val.c_str() + colon + 1);
        if (ms > 0) g_reg.slow_worker_ms = ms;
      } else {
        std::fprintf(stderr, "GIA_FAULTS: %s takes no parameter, ignoring \":%s\"\n",
                     key.c_str(), val.c_str() + colon + 1);
      }
      val.resize(colon);
    }
    char* rest = nullptr;
    const double p = std::strtod(val.c_str(), &rest);
    if (rest == val.c_str() || *rest != '\0' || p < 0 || p > 1) {
      std::fprintf(stderr, "GIA_FAULTS: bad probability \"%s\" for %s\n", val.c_str(),
                   key.c_str());
      continue;
    }
    g_reg.threshold[static_cast<int>(site)] = prob_to_threshold(p);
    any = any || p > 0;
  }
  g_reg.armed.store(any, std::memory_order_release);
}

void init_from_env() {
  const char* env = std::getenv("GIA_FAULTS");
  if (env != nullptr && *env != '\0') apply_spec(env);
}

}  // namespace

const char* site_name(Site s) noexcept {
  switch (s) {
    case Site::RecvDrop: return "recv_drop";
    case Site::RecvShort: return "recv_short";
    case Site::SendDrop: return "send_drop";
    case Site::SendShort: return "send_short";
    case Site::CacheWriteEnospc: return "cache_write_enospc";
    case Site::CacheWriteEio: return "cache_write_eio";
    case Site::SchedStall: return "sched_stall";
    case Site::FleetWorkerDown: return "fleet_worker_down";
    case Site::FleetSlowWorker: return "fleet_slow_worker";
    default: return "unknown";
  }
}

void configure(const std::string& spec) {
  std::call_once(g_env_once, [] {});  // pre-empt the env read
  {
    std::lock_guard<std::mutex> lk(g_stall_mu);
    apply_spec(spec);
    ++g_config_gen;
  }
  g_stall_cv.notify_all();
}

bool enabled() noexcept {
  std::call_once(g_env_once, init_from_env);
  return g_reg.armed.load(std::memory_order_acquire);
}

bool should_inject(Site s) noexcept {
  if (!enabled()) return false;
  const int i = static_cast<int>(s);
  const std::uint64_t threshold = g_reg.threshold[i];
  if (threshold == 0) return false;
  const std::uint64_t trial = g_reg.n_trials[i].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t roll =
      splitmix64(g_reg.seed ^ (static_cast<std::uint64_t>(i + 1) << 56) ^ trial);
  const bool hit = roll < threshold;
  if (hit) g_reg.n_injected[i].fetch_add(1, std::memory_order_relaxed);
  return hit;
}

std::uint64_t trials(Site s) noexcept {
  return g_reg.n_trials[static_cast<int>(s)].load(std::memory_order_relaxed);
}

std::uint64_t injected(Site s) noexcept {
  return g_reg.n_injected[static_cast<int>(s)].load(std::memory_order_relaxed);
}

void reset_counters() noexcept {
  for (int i = 0; i < kSiteCount; ++i) {
    g_reg.n_trials[i].store(0, std::memory_order_relaxed);
    g_reg.n_injected[i].store(0, std::memory_order_relaxed);
  }
}

std::string counters_json() {
  namespace json = core::json;
  std::string out;
  json::open(out);
  for (int i = 0; i < kSiteCount; ++i) {
    if (g_reg.threshold[i] == 0) continue;
    const Site s = static_cast<Site>(i);
    json::open(out, site_name(s));
    json::put_u(out, "trials", trials(s));
    json::put_u(out, "injected", injected(s));
    json::close(out);
  }
  json::close(out);
  return out;
}

ssize_t recv(int fd, void* buf, std::size_t len, int flags) noexcept {
  if (enabled()) {
    if (should_inject(Site::RecvDrop)) {
      errno = ECONNRESET;
      return -1;
    }
    if (len > 1 && should_inject(Site::RecvShort)) len = 1;
  }
  return ::recv(fd, buf, len, flags);
}

ssize_t send(int fd, const void* buf, std::size_t len, int flags) noexcept {
  if (enabled()) {
    if (should_inject(Site::SendDrop)) {
      errno = EPIPE;
      return -1;
    }
    if (len > 1 && should_inject(Site::SendShort)) len = 1;
  }
  return ::send(fd, buf, len, flags);
}

int cache_write_error() noexcept {
  if (!enabled()) return 0;
  if (should_inject(Site::CacheWriteEnospc)) return ENOSPC;
  if (should_inject(Site::CacheWriteEio)) return EIO;
  return 0;
}

namespace {

/// `ms` is a registry field, passed by reference so it is read under the
/// lock that configure() writes it under.
void stall_if(Site site, const int& ms) {
  if (!enabled()) return;
  std::unique_lock<std::mutex> lk(g_stall_mu);
  const std::uint64_t gen = g_config_gen;
  if (!should_inject(site)) return;
  g_stall_cv.wait_for(lk, std::chrono::milliseconds(ms), [&] { return g_config_gen != gen; });
}

}  // namespace

void maybe_stall() { stall_if(Site::SchedStall, g_reg.stall_ms); }

bool worker_dead() noexcept {
  return enabled() && should_inject(Site::FleetWorkerDown);
}

void maybe_slow_worker() { stall_if(Site::FleetSlowWorker, g_reg.slow_worker_ms); }

}  // namespace gia::serve::fault
