// Tests for the serving layer (src/serve): request canonicalization and
// golden key stability, cache LRU/disk behaviour and thread safety,
// scheduler coalescing/priority/deadline/cancellation/dependencies, and a
// loopback TCP smoke test of the giad protocol.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "core/parallel.hpp"
#include "core/stagegraph.hpp"
#include "serve/cache.hpp"
#include "serve/daemon.hpp"
#include "serve/faultinject.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "stats_schema.hpp"
#include "tech/library.hpp"

namespace gia {
namespace {

namespace fs = std::filesystem;
using Ms = std::chrono::milliseconds;

serve::FlowRequest request_for(tech::TechnologyKind k, int seed = 0) {
  serve::FlowRequest req;
  req.tech = k;
  if (seed != 0) req.options.openpiton.seed = seed;
  return req;
}

serve::ResultCache::ResultPtr make_result(double marker) {
  auto r = std::make_shared<core::TechnologyResult>();
  r->technology = tech::make_technology(tech::TechnologyKind::Glass25D);
  r->total_power_w = marker;
  return r;
}

/// Spin until the ticket reports Running (the scheduler worker picked it up).
void wait_until_running(const serve::JobTicket& t) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (t.status() == serve::JobTicket::Status::Queued &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(Ms(1));
  }
  ASSERT_EQ(t.status(), serve::JobTicket::Status::Running);
}

// ---------------------------------------------------------------------------
// Request canonicalization

TEST(ServeRequestTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(serve::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(serve::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(serve::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(ServeRequestTest, KeyHexIsFixedWidthLowercase) {
  EXPECT_EQ(serve::key_hex(0), "0000000000000000");
  EXPECT_EQ(serve::key_hex(0xabcdef0123456789ull), "abcdef0123456789");
}

TEST(ServeRequestTest, CanonicalTextShapeIsStable) {
  const std::string text = serve::canonical_text(serve::FlowRequest());
  EXPECT_EQ(text.rfind("tech=glass25d\npartition_mode=hierarchical\n", 0), 0u);
  EXPECT_NE(text.find("pnr.placer.seed="), std::string::npos);
  EXPECT_NE(text.find("thermal_mesh.power_seed="), std::string::npos);
  EXPECT_NE(text.find("rollup_activity_scale=2\n"), std::string::npos);
}

// Golden content-address of the default request per technology. These lock
// the canonicalization: any change to a default knob value, a field name,
// the field order, or the number formatting is a cache-invalidation event
// and must update these constants deliberately.
TEST(ServeRequestTest, GoldenKeysAreStable) {
  const struct {
    tech::TechnologyKind kind;
    std::uint64_t key;
  } golden[] = {
      {tech::TechnologyKind::Glass25D, 0x9a82f796b765df11ull},
      {tech::TechnologyKind::Glass3D, 0x64a5e42f644924d1ull},
      {tech::TechnologyKind::Silicon25D, 0xd5dab2c5932af275ull},
      {tech::TechnologyKind::Silicon3D, 0x1b9d2eb5cc8d0d75ull},
      {tech::TechnologyKind::Shinko, 0x5e63dc772b304764ull},
      {tech::TechnologyKind::APX, 0x45f49e17f1ee9701ull},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(serve::request_key(request_for(g.kind)), g.key)
        << "canonicalization drift for " << tech::to_string(g.kind);
  }
}

TEST(ServeRequestTest, EveryKnobClassAffectsTheKey) {
  using Mutate = std::function<void(serve::FlowRequest&)>;
  const Mutate mutations[] = {
      [](serve::FlowRequest& r) { r.tech = tech::TechnologyKind::APX; },
      [](serve::FlowRequest& r) { r.options.partition_mode = core::PartitionMode::Flattened; },
      [](serve::FlowRequest& r) { r.options.openpiton.seed += 1; },
      [](serve::FlowRequest& r) { r.options.serdes.ratio *= 2; },
      [](serve::FlowRequest& r) { r.options.fm.seed += 1; },
      [](serve::FlowRequest& r) { r.options.pnr.target_freq_hz *= 1.5; },
      [](serve::FlowRequest& r) { r.options.pnr.placer.seed += 1; },
      [](serve::FlowRequest& r) { r.options.pnr.congestion.signal_layers += 1; },
      [](serve::FlowRequest& r) { r.options.pnr.timing.fanout += 1; },
      [](serve::FlowRequest& r) { r.options.router.reroute_passes += 1; },
      [](serve::FlowRequest& r) { r.options.thermal_mesh.nx += 8; },
      [](serve::FlowRequest& r) { r.options.with_eyes = true; },
      [](serve::FlowRequest& r) { r.options.with_thermal = true; },
      [](serve::FlowRequest& r) { r.options.eye_bits += 32; },
      [](serve::FlowRequest& r) { r.options.rollup_activity_scale = 1.0; },
  };
  const std::uint64_t base = serve::request_key(serve::FlowRequest());
  for (std::size_t i = 0; i < std::size(mutations); ++i) {
    serve::FlowRequest req;
    mutations[i](req);
    EXPECT_NE(serve::request_key(req), base) << "mutation " << i << " did not change the key";
  }
}

TEST(ServeRequestTest, JsonRoundTripPreservesKeyAndText) {
  serve::FlowRequest req = request_for(tech::TechnologyKind::Glass3D, 12345);
  req.options.with_eyes = true;
  req.options.rollup_activity_scale = 1.0 / 3.0;  // non-representable double
  req.options.pnr.placer.seed = 99;
  const std::string wire = serve::request_to_json(req);
  const serve::FlowRequest back = serve::request_from_json(wire);
  EXPECT_EQ(serve::canonical_text(back), serve::canonical_text(req));
  EXPECT_EQ(serve::request_key(back), serve::request_key(req));
  EXPECT_EQ(serve::request_to_json(back), wire);
}

TEST(ServeRequestTest, PartialJsonKeepsDefaults) {
  const auto req = serve::request_from_json("{\"flow_request\":{\"tech\":\"glass3d\"}}");
  EXPECT_EQ(req.tech, tech::TechnologyKind::Glass3D);
  serve::FlowRequest expect;
  expect.tech = tech::TechnologyKind::Glass3D;
  EXPECT_EQ(serve::request_key(req), serve::request_key(expect));
  // The bare inner object parses too.
  const auto bare = serve::request_from_json("{\"tech\":\"glass3d\"}");
  EXPECT_EQ(serve::request_key(bare), serve::request_key(expect));
}

TEST(ServeRequestTest, RejectsUnknownOrMalformedFields) {
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"bogus\":1}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"openpiton\":{\"sede\":1}}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"tech\":\"diamond\"}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"partition_mode\":\"vibes\"}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("{\"flow_request\":{\"openpiton\":7}}"),
               std::runtime_error);
  EXPECT_THROW(serve::request_from_json("not json"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ServeCacheTest, LruEvictsLeastRecentlyUsed) {
  serve::ResultCache::Config cfg;
  cfg.capacity = 4;
  cfg.shards = 1;  // single shard so the LRU order is globally observable
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);

  for (std::uint64_t k = 1; k <= 4; ++k) cache.put(k, make_result(static_cast<double>(k)));
  EXPECT_NE(cache.get(1), nullptr);  // refresh key 1: key 2 is now the LRU
  cache.put(5, make_result(5));

  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(5), nullptr);
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 4u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.insertions, 5u);
}

TEST(ServeCacheTest, PeekDoesNotCountOrRefresh) {
  serve::ResultCache::Config cfg;
  cfg.capacity = 2;
  cfg.shards = 1;
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);
  cache.put(1, make_result(1));
  cache.put(2, make_result(2));
  EXPECT_NE(cache.peek(1), nullptr);  // must NOT refresh: 1 stays the LRU
  cache.put(3, make_result(3));
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ServeCacheTest, DiskStoreSurvivesRestart) {
  char tmpl[] = "/tmp/gia_cache_test_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  serve::ResultCache::Config cfg;
  cfg.disk_dir = dir;
  {
    serve::ResultCache cache(cfg);
    ASSERT_TRUE(cache.disk_enabled());
    cache.put(0xdeadbeefull, make_result(42.5));
    EXPECT_EQ(cache.stats().disk_writes, 1u);
    EXPECT_TRUE(fs::exists(dir + "/00000000deadbeef.json"));
  }
  {
    serve::ResultCache cache(cfg);  // fresh memory, same directory
    const auto hit = cache.get(0xdeadbeefull);
    ASSERT_NE(hit, nullptr);
    EXPECT_DOUBLE_EQ(hit->total_power_w, 42.5);
    const auto st = cache.stats();
    EXPECT_EQ(st.disk_hits, 1u);
    EXPECT_EQ(st.hits, 1u);
    // Promoted into memory: the second lookup never touches the disk.
    EXPECT_NE(cache.get(0xdeadbeefull), nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
  }
  {
    // Corrupt entries are discarded, not fatal.
    serve::ResultCache cache(cfg);
    std::FILE* f = std::fopen((dir + "/00000000deadbeef.json").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"technology_result\":", f);
    std::fclose(f);
    EXPECT_EQ(cache.get(0xdeadbeefull), nullptr);
    EXPECT_FALSE(fs::exists(dir + "/00000000deadbeef.json"));
  }
  fs::remove_all(dir);
}

TEST(ServeCacheTest, DashDisablesDiskEvenWithEnvironment) {
  ::setenv("GIA_CACHE_DIR", "/tmp/gia_cache_env_should_not_be_used", 1);
  serve::ResultCache::Config cfg;
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);
  EXPECT_FALSE(cache.disk_enabled());
  ::unsetenv("GIA_CACHE_DIR");
  EXPECT_FALSE(fs::exists("/tmp/gia_cache_env_should_not_be_used"));
}

TEST(ServeCacheTest, ConcurrentGetPutUnderParallelFor) {
  serve::ResultCache::Config cfg;
  cfg.capacity = 16;
  cfg.shards = 4;
  cfg.disk_dir = "-";
  serve::ResultCache cache(cfg);
  core::set_thread_count(4);
  core::parallel_for(400, [&](std::size_t i) {
    const std::uint64_t key = i % 32;
    if (auto hit = cache.get(key)) {
      // Evicted entries must stay alive while a reader holds them.
      EXPECT_GE(hit->total_power_w, 0.0);
    } else {
      cache.put(key, make_result(static_cast<double>(key)));
    }
    cache.peek(key ^ 1);
  });
  core::set_thread_count(0);
  const auto st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 400u);
  EXPECT_LE(st.entries, 16u);
}

// ---------------------------------------------------------------------------
// Job scheduler

TEST(ServeSchedulerTest, BurstOfDuplicatesRunsOnceAndCoalesces) {
  serve::ResultCache::Config ccfg;
  ccfg.disk_dir = "-";
  serve::ResultCache cache(ccfg);
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  opts.cache = &cache;
  serve::JobScheduler sched(opts);

  const auto req = request_for(tech::TechnologyKind::Glass25D, 777);
  const int kBurst = 6;
  std::vector<serve::JobTicket> tickets;
  for (int i = 0; i < kBurst; ++i) tickets.push_back(sched.submit(req));
  for (const auto& t : tickets) EXPECT_EQ(t.wait(), serve::JobTicket::Status::Done);

  const auto c = sched.counters();
  EXPECT_EQ(c.executed, 1u);
  EXPECT_EQ(c.coalesced, static_cast<std::uint64_t>(kBurst) - 1);
  EXPECT_FALSE(tickets[0].coalesced());
  for (int i = 1; i < kBurst; ++i) {
    EXPECT_TRUE(tickets[static_cast<std::size_t>(i)].coalesced());
    // Coalesced tickets share the underlying job and its result.
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].job_id(), tickets[0].job_id());
    EXPECT_EQ(tickets[static_cast<std::size_t>(i)].result(), tickets[0].result());
  }

  // The run populated the cache: the next submit is a hit that never queues.
  const auto again = sched.submit(req);
  EXPECT_EQ(again.wait(), serve::JobTicket::Status::Done);
  EXPECT_TRUE(again.from_cache());
  EXPECT_EQ(sched.counters().executed, 1u);
}

TEST(ServeSchedulerTest, PriorityOrdersTheQueue) {
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  wait_until_running(blocker);
  serve::JobScheduler::SubmitOptions low, high;
  low.priority = 0;
  high.priority = 5;
  const auto b = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), low);
  const auto c = sched.submit(request_for(tech::TechnologyKind::Glass25D, 3), high);
  sched.drain();

  EXPECT_EQ(b.status(), serve::JobTicket::Status::Done);
  EXPECT_EQ(c.status(), serve::JobTicket::Status::Done);
  EXPECT_LT(c.finish_order(), b.finish_order());
  EXPECT_LT(blocker.finish_order(), c.finish_order());
}

TEST(ServeSchedulerTest, ExpiredDeadlineNeverRuns) {
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  wait_until_running(blocker);
  serve::JobScheduler::SubmitOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - Ms(1);
  const auto late = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), expired);
  EXPECT_EQ(late.wait(), serve::JobTicket::Status::Expired);
  EXPECT_EQ(blocker.wait(), serve::JobTicket::Status::Done);
  EXPECT_EQ(sched.counters().expired, 1u);
  EXPECT_EQ(sched.counters().executed, 1u);
}

TEST(ServeSchedulerTest, CancelQueuedNotRunning) {
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  wait_until_running(blocker);
  const auto queued = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2));
  EXPECT_TRUE(sched.cancel(queued.job_id()));
  EXPECT_FALSE(sched.cancel(queued.job_id()));  // already terminal
  EXPECT_FALSE(sched.cancel(blocker.job_id())); // already running
  EXPECT_EQ(queued.wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(blocker.wait(), serve::JobTicket::Status::Done);
  EXPECT_EQ(sched.counters().cancelled, 1u);
}

TEST(ServeSchedulerTest, DependenciesOrderExecutionAndCascadeCancellation) {
  serve::JobScheduler::Options opts;
  opts.workers = 2;
  serve::JobScheduler sched(opts);

  // b waits for a even with a free worker.
  const auto a = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  serve::JobScheduler::SubmitOptions after_a;
  after_a.after = {a.job_id()};
  const auto b = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), after_a);
  EXPECT_EQ(b.wait(), serve::JobTicket::Status::Done);
  EXPECT_LT(a.finish_order(), b.finish_order());

  // A dependency on an unknown (already finished) id is satisfied.
  serve::JobScheduler::SubmitOptions after_unknown;
  after_unknown.after = {987654321u};
  const auto c = sched.submit(request_for(tech::TechnologyKind::Glass25D, 3), after_unknown);
  EXPECT_EQ(c.wait(), serve::JobTicket::Status::Done);

  // Cancelling a held job cascades to its dependents. `d` is held behind
  // the running blocker: left runnable, the idle second worker could start
  // it before cancel() runs.
  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 4));
  wait_until_running(blocker);
  serve::JobScheduler::SubmitOptions after_blocker;
  after_blocker.after = {blocker.job_id()};
  const auto d = sched.submit(request_for(tech::TechnologyKind::Glass25D, 5), after_blocker);
  serve::JobScheduler::SubmitOptions after_d;
  after_d.after = {d.job_id()};
  const auto e = sched.submit(request_for(tech::TechnologyKind::Glass25D, 6), after_d);
  EXPECT_TRUE(sched.cancel(d.job_id()));
  EXPECT_EQ(d.wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(e.wait(), serve::JobTicket::Status::Cancelled);
  sched.drain();
}

// Regression: cache-hit tickets used to carry id 0 and finish order 0, so
// every hit collided with every other hit, cancel-by-id of a hit was
// undefined, and finish_order() lied about when hits were answered.
TEST(ServeSchedulerTest, CacheHitTicketsCarryRealIdsAndFinishOrder) {
  serve::ResultCache::Config ccfg;
  ccfg.disk_dir = "-";
  serve::ResultCache cache(ccfg);
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  opts.cache = &cache;
  serve::JobScheduler sched(opts);

  const auto req = request_for(tech::TechnologyKind::Glass25D, 42);
  cache.put(serve::request_key(req), make_result(1.0));

  const auto hit1 = sched.submit(req);
  const auto hit2 = sched.submit(req);
  ASSERT_TRUE(hit1.from_cache());
  ASSERT_TRUE(hit2.from_cache());
  EXPECT_GT(hit1.job_id(), 0u);
  EXPECT_GT(hit2.job_id(), hit1.job_id());
  EXPECT_GT(hit1.finish_order(), 0u);
  EXPECT_GT(hit2.finish_order(), hit1.finish_order());
  // A hit is terminal at birth: cancelling its id is a well-defined no.
  EXPECT_FALSE(sched.cancel(hit1.job_id()));
  EXPECT_EQ(hit1.wait(), serve::JobTicket::Status::Done);

  // Hit ids draw from the same sequence as queued jobs: no collisions, and
  // finish order stays truthful across the hit/run boundary.
  const auto run = sched.submit(request_for(tech::TechnologyKind::Glass25D, 43));
  EXPECT_GT(run.job_id(), hit2.job_id());
  EXPECT_EQ(run.wait(), serve::JobTicket::Status::Done);
  EXPECT_GT(run.finish_order(), hit2.finish_order());
}

// Regression: finish_locked used to cascade through dependents recursively,
// one stack frame per link, so cancelling the root of a deep after-chain
// overflowed the stack. The iterative worklist must absorb a 100k chain.
TEST(ServeSchedulerTest, DeepDependencyChainCancelsIteratively) {
  constexpr int kDepth = 100000;
  std::vector<serve::FlowRequest> requests;
  requests.reserve(kDepth);
  for (int i = 0; i < kDepth; ++i)
    requests.push_back(request_for(tech::TechnologyKind::Glass25D, 10 + i));

  // Pin the single worker on the blocker: the stall fires once the blocker
  // starts and lasts until configure("") ends it, after cancel() has
  // returned. The root depends on the blocker, so it stays unrunnable for
  // however long this thread takes to build and cancel the chain.
  serve::fault::configure("sched_stall=1:600000");
  serve::JobScheduler::Options opts;
  opts.workers = 1;
  serve::JobScheduler sched(opts);
  // A failed assertion still ends the stall before ~JobScheduler joins the
  // worker.
  struct StallRelease {
    ~StallRelease() { serve::fault::configure(""); }
  } release;

  const auto blocker = sched.submit(request_for(tech::TechnologyKind::Glass25D, 1));
  serve::JobScheduler::SubmitOptions after;
  after.after = {blocker.job_id()};
  const auto root = sched.submit(request_for(tech::TechnologyKind::Glass25D, 2), after);

  after.after = {root.job_id()};
  std::vector<serve::JobTicket> chain;
  chain.reserve(kDepth);
  for (const serve::FlowRequest& req : requests) {
    chain.push_back(sched.submit(req, after));
    after.after = {chain.back().job_id()};
  }

  ASSERT_TRUE(sched.cancel(root.job_id()));  // must not overflow the stack
  serve::fault::configure("");
  EXPECT_EQ(root.wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(chain.front().wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_EQ(chain.back().wait(), serve::JobTicket::Status::Cancelled);
  EXPECT_GE(sched.counters().cancelled, static_cast<std::uint64_t>(kDepth) + 1);
  // The cascade finishes parents before their dependents.
  EXPECT_LT(root.finish_order(), chain.front().finish_order());
  EXPECT_LT(chain.front().finish_order(), chain.back().finish_order());
  EXPECT_EQ(blocker.wait(), serve::JobTicket::Status::Done);
  sched.drain();
}

// ---------------------------------------------------------------------------
// Daemon loopback smoke

TEST(ServeDaemonTest, LoopbackProtocolSmoke) {
  serve::ServerOptions opts;
  opts.port = 0;
  opts.scheduler_workers = 1;
  opts.cache_dir = "-";
  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) GTEST_SKIP() << "cannot bind loopback socket: " << err;

  serve::Client client;
  ASSERT_TRUE(client.connect(server.port(), &err)) << err;
  std::string resp;

  ASSERT_TRUE(client.roundtrip("{\"ping\":true,\"id\":7}", &resp, &err)) << err;
  EXPECT_EQ(resp, "{\"ok\":true,\"id\":7,\"pong\":true}");

  ASSERT_TRUE(client.roundtrip("this is not json", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);
  ASSERT_TRUE(client.roundtrip("{\"flow_request\":{\"bogus\":1}}", &resp, &err)) << err;
  EXPECT_NE(resp.find("unknown key"), std::string::npos);

  const std::string line =
      "{\"flow_request\":{\"tech\":\"shinko\"},\"id\":\"first\",\"result\":false}";
  ASSERT_TRUE(client.roundtrip(line, &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(resp.find("\"id\":\"first\""), std::string::npos);
  EXPECT_NE(resp.find("\"cache\":\"miss\""), std::string::npos);
  ASSERT_TRUE(client.roundtrip(line, &resp, &err)) << err;
  EXPECT_NE(resp.find("\"cache\":\"hit\""), std::string::npos);

  ASSERT_TRUE(client.roundtrip("{\"stats\":true}", &resp, &err)) << err;
  // The stats verb reports the kernel-assigned port so port-0 deployments
  // (tests, CI) can discover where the daemon actually listens.
  EXPECT_NE(resp.find("\"port\":" + std::to_string(server.port())), std::string::npos);
  EXPECT_NE(resp.find("\"flow_requests\":2"), std::string::npos);
  EXPECT_NE(resp.find("\"executed\":1"), std::string::npos);
  EXPECT_NE(resp.find("\"cache_hits\":1"), std::string::npos);

  ASSERT_TRUE(client.roundtrip("{\"shutdown\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"draining\":true"), std::string::npos);
  server.wait();

  const auto st = server.stats();
  EXPECT_EQ(st.flow_requests, 2u);
  EXPECT_EQ(st.scheduler.executed, 1u);
  EXPECT_GE(st.protocol_errors, 2u);
}

// ---------------------------------------------------------------------------
// Stats schema: the verb body is a rendering of the Server::stats() snapshot

/// Every numeric leaf of the stats body but uptime_s, in body order, as the
/// snapshot reports it.
std::vector<std::pair<std::string, std::uint64_t>> snapshot_leaves(
    const serve::Server::Stats& s) {
  std::vector<std::pair<std::string, std::uint64_t>> v = {
      {"port", static_cast<std::uint64_t>(s.port)},
      {"connections", s.connections},
      {"requests", s.requests},
      {"flow_requests", s.flow_requests},
      {"protocol_errors", s.protocol_errors},
      {"timeouts", s.timeouts},
      {"oversize_rejections", s.oversize_rejections},
      {"dse.searches", s.dse.searches},
      {"dse.completed", s.dse.completed},
      {"dse.cancelled", s.dse.cancelled},
      {"dse.expired", s.dse.expired},
      {"dse.rejected", s.dse.rejected},
      {"dse.active", s.dse.active},
      {"dse.points_evaluated", s.dse.points_evaluated},
      {"dse.front_updates", s.dse.front_updates},
      {"dse.cache_assisted_points", s.dse.cache_assisted_points},
      {"scheduler.pending", s.scheduler.pending},
      {"scheduler.submitted", s.scheduler.submitted},
      {"scheduler.cache_hits", s.scheduler.cache_hits},
      {"scheduler.coalesced", s.scheduler.coalesced},
      {"scheduler.executed", s.scheduler.executed},
      {"scheduler.failed", s.scheduler.failed},
      {"scheduler.cancelled", s.scheduler.cancelled},
      {"scheduler.expired", s.scheduler.expired},
      {"scheduler.stage_hits", s.scheduler.stage_hits},
      {"scheduler.stage_misses", s.scheduler.stage_misses},
      {"cache.hits", s.cache.hits},
      {"cache.disk_hits", s.cache.disk_hits},
      {"cache.misses", s.cache.misses},
      {"cache.insertions", s.cache.insertions},
      {"cache.evictions", s.cache.evictions},
      {"cache.disk_writes", s.cache.disk_writes},
      {"cache.disk_errors", s.cache.disk_errors},
      {"cache.entries", s.cache.entries},
      {"stage_cache.entries", s.stage_cache.entries},
      {"stage_cache.capacity", s.stage_cache.capacity},
      {"stage_cache.hits", s.stage_cache.total_hits()},
      {"stage_cache.misses", s.stage_cache.total_misses()},
      {"stage_cache.evictions", s.stage_cache.total_evictions()},
      {"stage_cache.coalesced", s.stage_cache.total_coalesced()},
  };
  for (const auto& si : core::stage::registry()) {
    const auto& ps = s.stage_cache.stage[static_cast<std::size_t>(core::stage::idx(si.id))];
    const std::string base = std::string("stage_cache.stages.") + si.name + ".";
    v.emplace_back(base + "hits", ps.hits);
    v.emplace_back(base + "misses", ps.misses);
    v.emplace_back(base + "evictions", ps.evictions);
    v.emplace_back(base + "coalesced", ps.coalesced);
  }
  return v;
}

void numeric_leaves(const core::json::Value& v, const std::string& prefix,
                    std::vector<std::pair<std::string, std::uint64_t>>& out) {
  for (const auto& [k, child] : v.obj) {
    const std::string path = prefix.empty() ? k : prefix + "." + k;
    if (child.kind == core::json::Value::Kind::Object) numeric_leaves(child, path, out);
    if (child.kind == core::json::Value::Kind::Number && path != "uptime_s")
      out.emplace_back(path, child.as_u64());
  }
}

/// A worker with traffic behind it: a miss, a hit, a protocol error.
struct StatsWorker {
  serve::Server server{[] {
    serve::ServerOptions o;
    o.port = 0;
    o.scheduler_workers = 1;
    o.cache_dir = "-";
    return o;
  }()};
  serve::Client client;

  bool start(std::string* err) {
    if (!server.start(err) || !client.connect(server.port(), err)) return false;
    std::string resp;
    const std::string line = "{\"flow_request\":{\"tech\":\"shinko\"},\"result\":false}";
    return client.roundtrip(line, &resp, err) && client.roundtrip(line, &resp, err) &&
           client.roundtrip("{\"bogus\":1}", &resp, err);
  }
  core::json::Value stats() {
    std::string resp, err;
    EXPECT_TRUE(client.roundtrip("{\"stats\":true}", &resp, &err)) << err;
    const core::json::Value v = core::json::parse(resp);
    EXPECT_TRUE(v.at("ok").as_bool());
    return v.at("stats");
  }
};

TEST(ServeStatsSchemaTest, WorkerKeysAreStableAndRenderTheSnapshot) {
  StatsWorker w;
  std::string err;
  if (!w.start(&err)) GTEST_SKIP() << "cannot serve on loopback: " << err;

  const core::json::Value body = w.stats();
  EXPECT_EQ(stats_schema::key_paths(body), stats_schema::worker_paths());

  // Quiesced: the snapshot taken after the verb sees the same counters.
  const serve::Server::Stats snap = w.server.stats();
  std::vector<std::pair<std::string, std::uint64_t>> leaves;
  numeric_leaves(body, std::string(), leaves);
  EXPECT_EQ(leaves, snapshot_leaves(snap));
  EXPECT_EQ(body.at("stage_cache").at("enabled").as_bool(), snap.stage_cache.enabled);
  EXPECT_EQ(snap.flow_requests, 2u);
  EXPECT_EQ(snap.cache.hits, 1u);
}

TEST(ServeStatsSchemaTest, ArmedFaultsAddTheFaultsBlock) {
  StatsWorker w;
  std::string err;
  if (!w.start(&err)) GTEST_SKIP() << "cannot serve on loopback: " << err;

  serve::fault::configure("cache_write_eio=1");  // memory-only cache: never fires
  const core::json::Value body = w.stats();
  serve::fault::configure("");
  std::vector<std::string> expected = stats_schema::worker_paths();
  for (const char* p : {"faults", "faults.cache_write_eio", "faults.cache_write_eio.trials",
                        "faults.cache_write_eio.injected"})
    expected.push_back(p);
  EXPECT_EQ(stats_schema::key_paths(body), expected);
}

}  // namespace
}  // namespace gia
