#include "serve/cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "core/json.hpp"
#include "core/serialize.hpp"
#include "serve/faultinject.hpp"
#include "serve/request.hpp"

namespace gia::serve {

namespace fs = std::filesystem;
namespace json = core::json;

struct ResultCache::Impl {
  struct Shard {
    std::mutex mu;
    /// MRU at the front; (key, result).
    std::list<std::pair<std::uint64_t, ResultPtr>> lru;
    std::unordered_map<std::uint64_t, decltype(lru)::iterator> index;
  };

  std::vector<std::unique_ptr<Shard>> shards;
  std::size_t per_shard_capacity = 8;
  std::string dir;  ///< empty = disk disabled

  std::atomic<std::uint64_t> hits{0}, disk_hits{0}, misses{0}, insertions{0}, evictions{0},
      disk_writes{0}, disk_errors{0};

  Shard& shard_of(std::uint64_t key) {
    // Mix the key before selecting so low-entropy FNV outputs still spread.
    const std::uint64_t mixed = key ^ (key >> 29);
    return *shards[mixed % shards.size()];
  }

  std::string path_of(std::uint64_t key) const { return dir + "/" + key_hex(key) + ".json"; }
};

ResultCache::ResultCache() : ResultCache(Config()) {}

ResultCache::ResultCache(const Config& cfg) : impl_(std::make_unique<Impl>()) {
  const int n_shards = cfg.shards >= 1 ? cfg.shards : 1;
  impl_->shards.reserve(static_cast<std::size_t>(n_shards));
  for (int i = 0; i < n_shards; ++i) impl_->shards.push_back(std::make_unique<Impl::Shard>());
  const std::size_t cap = cfg.capacity >= 1 ? cfg.capacity : 1;
  impl_->per_shard_capacity =
      (cap + static_cast<std::size_t>(n_shards) - 1) / static_cast<std::size_t>(n_shards);

  std::string dir = cfg.disk_dir;
  if (dir.empty()) {
    if (const char* env = std::getenv("GIA_CACHE_DIR")) dir = env;
  }
  if (dir == "-") dir.clear();
  if (!dir.empty()) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "serve cache: cannot create %s (%s), disk store disabled\n",
                   dir.c_str(), ec.message().c_str());
      dir.clear();
    }
  }
  impl_->dir = dir;
}

ResultCache::~ResultCache() = default;

ResultCache::ResultPtr ResultCache::get(std::uint64_t key) {
  auto& sh = impl_->shard_of(key);
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      impl_->hits.fetch_add(1, std::memory_order_relaxed);
      return it->second->second;
    }
  }

  if (!impl_->dir.empty()) {
    std::ifstream in(impl_->path_of(key), std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      try {
        auto result =
            std::make_shared<const core::TechnologyResult>(
                core::technology_result_from_json(buf.str()));
        // Promote into memory (without double-writing to disk).
        insert(key, result, /*write_disk=*/false);
        impl_->hits.fetch_add(1, std::memory_order_relaxed);
        impl_->disk_hits.fetch_add(1, std::memory_order_relaxed);
        return result;
      } catch (const std::exception& e) {
        // Corrupt disk entries degrade to a miss (the flow re-runs and
        // overwrites the entry); they never fail the request.
        std::fprintf(stderr, "serve cache: discarding corrupt entry %s (%s)\n",
                     impl_->path_of(key).c_str(), e.what());
        impl_->disk_errors.fetch_add(1, std::memory_order_relaxed);
        std::error_code ec;
        fs::remove(impl_->path_of(key), ec);
      }
    }
  }

  impl_->misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void ResultCache::insert(std::uint64_t key, ResultPtr result, bool write_disk) {
  auto& sh = impl_->shard_of(key);
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    auto it = sh.index.find(key);
    if (it != sh.index.end()) {
      it->second->second = result;
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.emplace_front(key, result);
      sh.index.emplace(key, sh.lru.begin());
      impl_->insertions.fetch_add(1, std::memory_order_relaxed);
      while (sh.lru.size() > impl_->per_shard_capacity) {
        sh.index.erase(sh.lru.back().first);
        sh.lru.pop_back();
        impl_->evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  if (write_disk && !impl_->dir.empty()) {
    // Unique tmp name (pid + atomic counter): concurrent writers of the same
    // key can no longer rename each other's partial file. Any failure leaves
    // the memory entry authoritative and removes the tmp file -- the disk
    // store degrades, the request is never affected.
    static std::atomic<std::uint64_t> tmp_counter{0};
    const std::string path = impl_->path_of(key);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(tmp_counter.fetch_add(1, std::memory_order_relaxed));
    if (const int fault_errno = fault::cache_write_error()) {
      std::fprintf(stderr, "serve cache: injected write failure for %s (%s)\n", path.c_str(),
                   std::strerror(fault_errno));
      impl_->disk_errors.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    bool written = false;
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (out) {
        const std::string body = core::technology_result_to_json(*result);
        out.write(body.data(), static_cast<std::streamsize>(body.size()));
        out.flush();
        written = out.good();
      }
    }
    std::error_code ec;
    if (written) {
      fs::rename(tmp, path, ec);
      if (!ec) {
        impl_->disk_writes.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::fprintf(stderr, "serve cache: cannot publish %s (%s), serving from memory\n",
                   path.c_str(), ec.message().c_str());
    } else {
      std::fprintf(stderr, "serve cache: cannot write %s, serving from memory\n", tmp.c_str());
    }
    impl_->disk_errors.fetch_add(1, std::memory_order_relaxed);
    fs::remove(tmp, ec);
  }
}

void ResultCache::put(std::uint64_t key, ResultPtr result) {
  insert(key, std::move(result), /*write_disk=*/true);
}

ResultCache::ResultPtr ResultCache::peek(std::uint64_t key) const {
  auto& sh = impl_->shard_of(key);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.index.find(key);
  return it != sh.index.end() ? it->second->second : nullptr;
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.disk_hits = impl_->disk_hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.insertions = impl_->insertions.load(std::memory_order_relaxed);
  s.evictions = impl_->evictions.load(std::memory_order_relaxed);
  s.disk_writes = impl_->disk_writes.load(std::memory_order_relaxed);
  s.disk_errors = impl_->disk_errors.load(std::memory_order_relaxed);
  std::size_t entries = 0;
  for (auto& sh : impl_->shards) {
    std::lock_guard<std::mutex> lk(sh->mu);
    entries += sh->lru.size();
  }
  s.entries = entries;
  return s;
}

void to_json(const ResultCache::Stats& s, std::string& out) {
  json::open(out);
  json::put_u(out, "hits", s.hits);
  json::put_u(out, "disk_hits", s.disk_hits);
  json::put_u(out, "misses", s.misses);
  json::put_u(out, "insertions", s.insertions);
  json::put_u(out, "evictions", s.evictions);
  json::put_u(out, "disk_writes", s.disk_writes);
  json::put_u(out, "disk_errors", s.disk_errors);
  json::put_u(out, "entries", s.entries);
  json::close(out);
}

bool ResultCache::disk_enabled() const { return !impl_->dir.empty(); }
const std::string& ResultCache::disk_dir() const { return impl_->dir; }

}  // namespace gia::serve
