#pragma once

// The stats verb's schema, pinned: CI's python checks, ci/robustness_corpus.py
// and perfbench's served workload read these keys, so their names, nesting
// and order are a wire contract. Shared by serve_test (worker) and
// fleet_test (coordinator).

#include <string>
#include <vector>

#include "core/json.hpp"

namespace gia::stats_schema {

/// Every key of `v` as a dotted path, in document order; array elements
/// contribute their members under "<array>[]".
inline void key_paths(const core::json::Value& v, const std::string& prefix,
                      std::vector<std::string>& out) {
  using Kind = core::json::Value::Kind;
  if (v.kind == Kind::Object) {
    for (const auto& [k, child] : v.obj) {
      const std::string path = prefix.empty() ? k : prefix + "." + k;
      out.push_back(path);
      key_paths(child, path, out);
    }
  } else if (v.kind == Kind::Array) {
    for (const auto& e : v.arr) key_paths(e, prefix + "[]", out);
  }
}

inline std::vector<std::string> key_paths(const core::json::Value& v) {
  std::vector<std::string> out;
  key_paths(v, std::string(), out);
  return out;
}

/// A worker's stats body with no faults armed.
inline std::vector<std::string> worker_paths() {
  std::vector<std::string> p = {
      "port", "connections", "requests", "flow_requests", "protocol_errors", "timeouts",
      "oversize_rejections", "uptime_s",
      "dse", "dse.searches", "dse.completed", "dse.cancelled", "dse.expired", "dse.rejected",
      "dse.active", "dse.points_evaluated", "dse.front_updates", "dse.cache_assisted_points",
      "scheduler", "scheduler.pending", "scheduler.submitted", "scheduler.cache_hits",
      "scheduler.coalesced", "scheduler.executed", "scheduler.failed", "scheduler.cancelled",
      "scheduler.expired", "scheduler.stage_hits", "scheduler.stage_misses",
      "cache", "cache.hits", "cache.disk_hits", "cache.misses", "cache.insertions",
      "cache.evictions", "cache.disk_writes", "cache.disk_errors", "cache.entries",
      "stage_cache", "stage_cache.enabled", "stage_cache.entries", "stage_cache.capacity",
      "stage_cache.hits", "stage_cache.misses", "stage_cache.evictions", "stage_cache.coalesced",
      "stage_cache.stages"};
  for (const char* stage : {"netlist_partition", "chiplet_pnr", "interposer", "links", "eyes",
                            "pdn", "thermal", "rollup"}) {
    const std::string s = std::string("stage_cache.stages.") + stage;
    for (const char* leaf : {"", ".hits", ".misses", ".evictions", ".coalesced"})
      p.push_back(s + leaf);
  }
  return p;
}

/// A coordinator over one worker; `worker` is that worker's own paths.
inline std::vector<std::string> coordinator_paths(const std::vector<std::string>& worker) {
  std::vector<std::string> p = {
      "port", "coordinator", "connections", "requests", "flow_requests", "protocol_errors",
      "timeouts", "oversize_rejections", "uptime_s",
      "fleet", "fleet.workers", "fleet.workers[].host", "fleet.workers[].port",
      "fleet.workers[].up", "fleet.workers[].inflight", "fleet.workers[].forwarded",
      "fleet.workers[].ok", "fleet.workers[].failures", "fleet.workers[].stats"};
  for (const auto& w : worker) p.push_back("fleet.workers[].stats." + w);
  for (const char* tail :
       {"fleet.counters", "fleet.counters.forwarded", "fleet.counters.answered",
        "fleet.counters.hedges", "fleet.counters.hedge_wins", "fleet.counters.failovers",
        "fleet.counters.shed", "fleet.counters.worker_failures",
        "fleet.aggregate", "fleet.aggregate.workers_up", "fleet.aggregate.workers_total",
        "fleet.aggregate.requests", "fleet.aggregate.flow_requests",
        "fleet.aggregate.scheduler_submitted", "fleet.aggregate.scheduler_cache_hits",
        "fleet.aggregate.scheduler_coalesced", "fleet.aggregate.scheduler_executed",
        "fleet.aggregate.scheduler_failed", "fleet.aggregate.cache_hits",
        "fleet.aggregate.cache_misses"})
    p.push_back(tail);
  return p;
}

}  // namespace gia::stats_schema
