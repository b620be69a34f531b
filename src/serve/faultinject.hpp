#pragma once

#include <cstdint>
#include <string>

#include <sys/types.h>

/// \file faultinject.hpp
/// Deterministic fault injection for the serving stack. Faults are armed by
/// the `GIA_FAULTS` environment variable (or `configure()` from tests) and
/// cost a single relaxed atomic load per call site when disarmed, so the
/// production hot path is unaffected.
///
/// Spec grammar (comma-separated, whitespace-free):
///
///   GIA_FAULTS="seed=42,recv_short=0.25,send_drop=0.1,cache_write_enospc=0.5,
///               sched_stall=0.2:25"
///
///   seed=N                  PRNG seed shared by every site (default 1)
///   recv_drop=P             recv() pretends the peer reset the connection
///   recv_short=P            recv() delivers at most one byte
///   send_drop=P             send() fails with EPIPE
///   send_short=P            send() transmits at most one byte
///   cache_write_enospc=P    disk-cache writes fail as if the disk were full
///   cache_write_eio=P       disk-cache writes fail with an I/O error
///   sched_stall=P[:MS]      a scheduler worker sleeps MS ms (default 10)
///                           before running a job
///   fleet_worker_down=P     a fleet forward attempt fails as if the worker
///                           died (connection refused, no bytes sent) --
///                           drives the coordinator's failover/backoff paths
///   fleet_slow_worker=P[:MS] a fleet forward attempt stalls MS ms (default
///                           50) before sending -- drives request hedging
///
/// P is a probability in [0,1]. Decisions are deterministic: the k-th trial
/// at a site depends only on (seed, site, k), so a torture run replays
/// identically for a given seed regardless of thread interleaving. Malformed
/// entries are reported on stderr and skipped; they never abort the process.

namespace gia::serve::fault {

enum class Site : int {
  RecvDrop = 0,
  RecvShort,
  SendDrop,
  SendShort,
  CacheWriteEnospc,
  CacheWriteEio,
  SchedStall,
  FleetWorkerDown,
  FleetSlowWorker,
  kCount
};

/// Stable snake_case spec/report name ("recv_drop", ...).
const char* site_name(Site s) noexcept;

/// Arm sites from a spec string (see grammar above). Replaces any previous
/// configuration; an empty spec disarms everything. Also resets counters
/// and ends every injected stall in progress, so a test can hold a worker
/// in a long stall and release it at a point of its choosing.
void configure(const std::string& spec);

/// True when any site has a non-zero probability. The first call reads
/// `GIA_FAULTS` unless `configure()` ran earlier.
bool enabled() noexcept;

/// Roll the dice for one site (counts a trial; counts an injection on hit).
bool should_inject(Site s) noexcept;

std::uint64_t trials(Site s) noexcept;
std::uint64_t injected(Site s) noexcept;
void reset_counters() noexcept;

/// JSON object `{"recv_short":{"trials":N,"injected":M},...}` covering every
/// armed site (empty object when disarmed); embedded in daemon stats.
std::string counters_json();

/// Socket wrappers used by the daemon and client I/O paths. With no armed
/// socket faults they are the raw syscalls (EINTR is NOT retried here; the
/// callers already loop).
ssize_t recv(int fd, void* buf, std::size_t len, int flags) noexcept;
ssize_t send(int fd, const void* buf, std::size_t len, int flags) noexcept;

/// Disk-cache write hook: 0 = proceed, otherwise the errno to simulate
/// (ENOSPC or EIO).
int cache_write_error() noexcept;

/// Scheduler worker hook: sleeps the configured stall when the SchedStall
/// site fires. Call without holding locks.
void maybe_stall();

/// Fleet forward-attempt hooks (coordinator side). `worker_dead` rolls the
/// FleetWorkerDown site: true = the attempt must fail without touching the
/// network, as if the worker process were gone. `maybe_slow_worker` sleeps
/// the configured FleetSlowWorker stall when that site fires (call without
/// holding locks) -- the deterministic way to make a hedge timer expire.
bool worker_dead() noexcept;
void maybe_slow_worker();

}  // namespace gia::serve::fault
