#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/flow.hpp"

/// \file cache.hpp
/// Content-addressed result cache for the serving layer: an in-memory
/// sharded LRU of `TechnologyResult` keyed by `request_key` (see
/// request.hpp), with an optional write-through on-disk JSON store. Shards
/// are selected by key bits, each with its own mutex, so concurrent
/// get/put from scheduler workers and connection handlers never contend on
/// one lock. Results are held as `shared_ptr<const TechnologyResult>`:
/// eviction never invalidates a result a reader still holds.
///
/// Disk store: when constructed with a directory (or, by default, the
/// `GIA_CACHE_DIR` environment variable is set), every insert also writes
/// `<dir>/<16-hex-key>.json` (atomic tmp+rename), and a memory miss falls
/// back to parsing that file -- so a restarted daemon serves its persisted
/// history as disk hits. Disk entries are not LRU-bounded.

namespace gia::serve {

class ResultCache {
 public:
  using ResultPtr = std::shared_ptr<const core::TechnologyResult>;

  struct Config {
    std::size_t capacity = 64;  ///< total in-memory entries across shards
    int shards = 8;
    /// Disk store directory; empty = use GIA_CACHE_DIR; "-" = disable disk
    /// even when the environment sets a directory.
    std::string disk_dir;
  };

  struct Stats {
    std::uint64_t hits = 0;       ///< served from memory
    std::uint64_t disk_hits = 0;  ///< served from the disk store (subset of hits)
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t disk_writes = 0;
    /// Failed disk writes plus corrupt entries discarded on read. The cache
    /// degrades to memory-only for the affected key; requests never fail.
    std::uint64_t disk_errors = 0;
    std::size_t entries = 0;  ///< current in-memory entry count
  };

  ResultCache();  ///< default Config
  explicit ResultCache(const Config& cfg);
  ~ResultCache();
  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Look up a key: memory first (refreshes LRU position), then the disk
  /// store. Returns nullptr on a miss. Updates the hit/miss counters.
  ResultPtr get(std::uint64_t key);

  /// Insert (or refresh) a result; evicts the least-recently-used entry of
  /// the shard when over capacity and write-throughs to disk when enabled.
  void put(std::uint64_t key, ResultPtr result);

  /// Memory-only lookup that does not touch counters or LRU order (used by
  /// the scheduler's post-coalesce re-check).
  ResultPtr peek(std::uint64_t key) const;

  Stats stats() const;
  bool disk_enabled() const;
  const std::string& disk_dir() const;

 private:
  void insert(std::uint64_t key, ResultPtr result, bool write_disk);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Append `s` as one JSON object: the "cache" block of the stats verb.
void to_json(const ResultCache::Stats& s, std::string& out);

}  // namespace gia::serve
