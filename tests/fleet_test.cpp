// Tests for the sharded serving fleet (src/serve/fleet): consistent-hash
// ring determinism and remap locality, worker address parsing, and loopback
// integration drills against in-process giad workers -- key affinity,
// hedging against an injected slow worker, failover/quarantine when a
// worker dies, structured load-shedding when every replica is gone, merged
// fleet stats, and a mid-burst worker-kill drill where every request must
// still get an answer.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/json.hpp"
#include "serve/daemon.hpp"
#include "serve/faultinject.hpp"
#include "serve/fleet.hpp"
#include "serve/request.hpp"
#include "stats_schema.hpp"
#include "tech/library.hpp"

namespace gia {
namespace {

std::string flow_line(int seed, const std::string& id = std::string()) {
  std::string out = "{\"flow_request\":{\"tech\":\"shinko\",\"openpiton\":{\"seed\":";
  out += std::to_string(seed);
  out += "}}";
  if (!id.empty()) out += ",\"id\":\"" + id + "\"";
  out += ",\"result\":false}";
  return out;
}

std::uint64_t key_of(int seed) {
  serve::FlowRequest req;
  req.tech = tech::TechnologyKind::Shinko;
  req.options.openpiton.seed = seed;
  return serve::request_key(req);
}

/// One in-process giad worker on an ephemeral port.
struct Worker {
  serve::ServerOptions opts;
  std::unique_ptr<serve::Server> server;

  bool boot() {
    opts.port = 0;
    opts.scheduler_workers = 1;
    opts.cache_dir = "-";
    server = std::make_unique<serve::Server>(opts);
    std::string err;
    return server->start(&err);
  }
  int port() const { return server->port(); }
  std::string address() const { return "127.0.0.1:" + std::to_string(port()); }
  void kill() {
    server->request_stop();
    server->wait();
  }
};

// ---------------------------------------------------------------------------
// HashRing

TEST(HashRingTest, ReplicasAreDeterministicDistinctAndOrdered) {
  const std::vector<std::string> names = {"127.0.0.1:7411", "127.0.0.1:7412",
                                          "127.0.0.1:7413", "127.0.0.1:7414"};
  const serve::HashRing a(names);
  const serve::HashRing b(names);  // identical config => identical ring
  for (std::uint64_t k = 0; k < 200; ++k) {
    const std::uint64_t key = serve::fnv1a64("key" + std::to_string(k));
    const auto ra = a.replicas_for(key, 3);
    ASSERT_EQ(ra.size(), 3u);
    EXPECT_EQ(ra, b.replicas_for(key, 3));
    EXPECT_EQ(ra[0], a.primary(key));
    std::set<int> distinct(ra.begin(), ra.end());
    EXPECT_EQ(distinct.size(), ra.size());
    for (int node : ra) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, 4);
    }
  }
  // Asking for more replicas than workers returns every worker once.
  EXPECT_EQ(a.replicas_for(12345, 99).size(), names.size());
}

TEST(HashRingTest, RemovingAWorkerOnlyRemapsItsKeys) {
  const std::vector<std::string> all = {"127.0.0.1:7411", "127.0.0.1:7412",
                                        "127.0.0.1:7413", "127.0.0.1:7414"};
  const std::vector<std::string> without_last(all.begin(), all.end() - 1);
  const serve::HashRing full(all);
  const serve::HashRing reduced(without_last);
  int owned_by_removed = 0;
  for (std::uint64_t k = 0; k < 500; ++k) {
    const std::uint64_t key = serve::fnv1a64("key" + std::to_string(k));
    const int before = full.primary(key);
    if (before == 3) {
      ++owned_by_removed;  // these keys must remap somewhere
      continue;
    }
    // Consistent hashing: every other key keeps its primary (and its warm
    // caches on that worker).
    EXPECT_EQ(reduced.primary(key), before) << "key " << k << " remapped needlessly";
  }
  // Sanity: the removed worker actually owned a share of the keyspace.
  EXPECT_GT(owned_by_removed, 50);
  EXPECT_LT(owned_by_removed, 250);
}

TEST(HashRingTest, EmptyRingReturnsNothing) {
  const serve::HashRing ring({});
  EXPECT_EQ(ring.primary(42), -1);
  EXPECT_TRUE(ring.replicas_for(42, 2).empty());
}

// ---------------------------------------------------------------------------
// Worker address parsing

TEST(FleetTest, ParseWorkerAddresses) {
  std::string host;
  int port = 0;
  ASSERT_TRUE(serve::Fleet::parse_worker("10.1.2.3:8080", &host, &port));
  EXPECT_EQ(host, "10.1.2.3");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(serve::Fleet::parse_worker("7411", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7411);
  ASSERT_TRUE(serve::Fleet::parse_worker(":99", &host, &port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 99);
  EXPECT_FALSE(serve::Fleet::parse_worker("", nullptr, nullptr));
  EXPECT_FALSE(serve::Fleet::parse_worker("host:", nullptr, nullptr));
  EXPECT_FALSE(serve::Fleet::parse_worker("host:abc", nullptr, nullptr));
  EXPECT_FALSE(serve::Fleet::parse_worker("host:0", nullptr, nullptr));
  EXPECT_FALSE(serve::Fleet::parse_worker("host:70000", nullptr, nullptr));
}

TEST(FleetTest, RejectsBadPools) {
  serve::FleetOptions fopts;
  EXPECT_THROW(serve::Fleet{fopts}, std::invalid_argument);  // empty pool
  fopts.workers = {"127.0.0.1:notaport"};
  EXPECT_THROW(serve::Fleet{fopts}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Loopback integration

TEST(FleetTest, ForwardsByKeyWithAffinityAndMergedStats) {
  Worker w0, w1;
  if (!w0.boot() || !w1.boot()) GTEST_SKIP() << "cannot bind loopback sockets";

  serve::FleetOptions fopts;
  fopts.workers = {w0.address(), w1.address()};
  fopts.hedge_ms = 0;  // isolate routing from hedging
  serve::Fleet fleet(fopts);

  // A cold forward executes on the key's primary; repeating the same line
  // must land on the same worker and hit its result cache.
  const auto r1 = fleet.forward(key_of(1), flow_line(1, "a"));
  ASSERT_TRUE(r1.ok) << r1.error;
  EXPECT_NE(r1.response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(r1.response.find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(r1.response.find("\"cache\":\"miss\""), std::string::npos);

  const auto r2 = fleet.forward(key_of(1), flow_line(1, "b"));
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.worker, r1.worker) << "key affinity broken";
  EXPECT_NE(r2.response.find("\"cache\":\"hit\""), std::string::npos);
  EXPECT_NE(r2.response.find("\"id\":\"b\""), std::string::npos);

  const auto c = fleet.counters();
  EXPECT_EQ(c.forwarded, 2u);
  EXPECT_EQ(c.answered, 2u);
  EXPECT_EQ(c.hedges, 0u);
  EXPECT_EQ(c.shed, 0u);

  const std::string stats = fleet.stats_json();
  EXPECT_NE(stats.find("\"workers_up\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"workers_total\":2"), std::string::npos);
  // The merged aggregate has seen both forwards and exactly one execution
  // (the repeat was a cache hit on the owning worker).
  EXPECT_NE(stats.find("\"flow_requests\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"scheduler_executed\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"scheduler_cache_hits\":1"), std::string::npos);

  w0.kill();
  w1.kill();
}

TEST(FleetTest, HedgeFiresExactlyOncePerSlowRequest) {
  Worker w0, w1;
  if (!w0.boot() || !w1.boot()) GTEST_SKIP() << "cannot bind loopback sockets";

  // Every attempt stalls 400ms before sending; the hedge window is 50ms, so
  // the primary attempt trips exactly one hedge, and the chain is then
  // exhausted (replicas=2) -- no further re-issues are possible.
  serve::fault::configure("fleet_slow_worker=1:400");
  serve::FleetOptions fopts;
  fopts.workers = {w0.address(), w1.address()};
  fopts.hedge_ms = 50;
  serve::Fleet fleet(fopts);

  const auto r = fleet.forward(key_of(2), flow_line(2));
  serve::fault::configure("");  // disarm before any assertion can bail out
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(r.attempts, 2);

  const auto c = fleet.counters();
  EXPECT_EQ(c.forwarded, 1u);
  EXPECT_EQ(c.hedges, 1u) << "hedge must fire exactly once per slow request";
  EXPECT_EQ(c.answered, 1u);
  EXPECT_EQ(c.shed, 0u);

  w0.kill();
  w1.kill();
}

TEST(FleetTest, WorkerDeathFailsOverAndQuarantines) {
  Worker w0, w1;
  if (!w0.boot() || !w1.boot()) GTEST_SKIP() << "cannot bind loopback sockets";

  serve::FleetOptions fopts;
  fopts.workers = {w0.address(), w1.address()};
  fopts.hedge_ms = 0;
  fopts.max_failures = 1;    // first failure quarantines
  fopts.backoff_ms = 60000;  // stays down for the rest of the test
  fopts.retry.max_attempts = 1;
  serve::Fleet fleet(fopts);

  // Kill the worker that owns this key, then forward: the primary attempt
  // fails (connection refused) and the request fails over to the survivor.
  const std::uint64_t key = key_of(3);
  const int owner = fleet.ring().primary(key);
  (owner == 0 ? w0 : w1).kill();

  const auto r = fleet.forward(key, flow_line(3));
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NE(r.worker, owner);

  auto c = fleet.counters();
  EXPECT_GE(c.worker_failures, 1u);
  EXPECT_GE(c.failovers, 1u);
  EXPECT_EQ(c.shed, 0u);

  // The dead worker is now in backoff quarantine: the next forward for the
  // same key goes straight to the survivor, no failed attempt first.
  const auto before = fleet.counters().worker_failures;
  const auto r2 = fleet.forward(key, flow_line(3));
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(fleet.counters().worker_failures, before);

  const auto infos = fleet.workers();
  EXPECT_FALSE(infos[static_cast<std::size_t>(owner)].up);
  EXPECT_TRUE(infos[static_cast<std::size_t>(1 - owner)].up);

  (owner == 0 ? w1 : w0).kill();
}

TEST(FleetTest, ShedsWithInjectedFleetWorkerDown) {
  Worker w0, w1;
  if (!w0.boot() || !w1.boot()) GTEST_SKIP() << "cannot bind loopback sockets";

  // Every forward attempt dies before touching the network: the primary
  // fails, the failover fails, and with the chain exhausted the request is
  // shed -- structured degradation, not a hang.
  serve::fault::configure("fleet_worker_down=1");
  serve::FleetOptions fopts;
  fopts.workers = {w0.address(), w1.address()};
  fopts.hedge_ms = 0;
  serve::Fleet fleet(fopts);

  const auto r = fleet.forward(key_of(4), flow_line(4));
  serve::fault::configure("");
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.shed);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_NE(r.error.find("fleet_worker_down"), std::string::npos);

  const auto c = fleet.counters();
  EXPECT_EQ(c.shed, 1u);
  EXPECT_EQ(c.worker_failures, 2u);
  EXPECT_EQ(c.answered, 0u);

  w0.kill();
  w1.kill();
}

// The acceptance drill: one of two workers is killed in the middle of a
// request burst; every request must still complete -- answered by a live
// replica (hedged/failed-over) or shed with the structured overloaded
// error. Nothing may hang.
TEST(FleetTest, MidBurstWorkerKillAnswersEveryRequest) {
  Worker w0, w1;
  if (!w0.boot() || !w1.boot()) GTEST_SKIP() << "cannot bind loopback sockets";

  serve::FleetOptions fopts;
  fopts.workers = {w0.address(), w1.address()};
  fopts.hedge_ms = 50;
  fopts.max_failures = 2;
  fopts.backoff_ms = 100;
  fopts.retry.max_attempts = 1;
  serve::Fleet fleet(fopts);

  // Warm a handful of keys through the fleet so the burst is cache-hot on
  // the owning workers (the drill targets routing, not flow throughput).
  constexpr int kKeys = 4;
  for (int k = 0; k < kKeys; ++k) {
    const auto r = fleet.forward(key_of(10 + k), flow_line(10 + k));
    ASSERT_TRUE(r.ok) << r.error;
  }

  constexpr int kThreads = 4;
  constexpr int kPerThread = 10;
  std::atomic<int> answered{0}, shed{0}, hung{0};
  std::atomic<bool> kill_now{false};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int k = 10 + (t * kPerThread + i) % kKeys;
        if (t == 0 && i == 3) kill_now.store(true, std::memory_order_release);
        const auto r = fleet.forward(key_of(k), flow_line(k));
        if (r.ok)
          answered.fetch_add(1, std::memory_order_relaxed);
        else if (r.shed)
          shed.fetch_add(1, std::memory_order_relaxed);
        else
          hung.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // SIGKILL stand-in: hard-stop one worker mid-burst (the CI lane does the
  // real kill -9 against giad processes).
  while (!kill_now.load(std::memory_order_acquire)) std::this_thread::yield();
  w1.kill();
  for (auto& th : clients) th.join();

  EXPECT_EQ(answered.load() + shed.load(), kThreads * kPerThread)
      << "every request must resolve to an answer or a structured shed";
  EXPECT_EQ(hung.load(), 0);
  // The surviving worker must have absorbed the burst: with hedging +
  // failover the overwhelming majority of requests still get real answers.
  EXPECT_GT(answered.load(), 0);

  w0.kill();
}

// ---------------------------------------------------------------------------
// Coordinator daemon (giad --coordinator) end to end

TEST(CoordinatorDaemonTest, RoutesMergesAndDegrades) {
  Worker w0, w1;
  if (!w0.boot() || !w1.boot()) GTEST_SKIP() << "cannot bind loopback sockets";

  serve::ServerOptions copts;
  copts.port = 0;
  copts.coordinator = true;
  copts.fleet_workers = {w0.address(), w1.address()};
  copts.hedge_ms = 0;
  serve::Server coord(copts);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  serve::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err)) << err;
  std::string resp;

  ASSERT_TRUE(client.roundtrip("{\"ping\":true,\"id\":9}", &resp, &err)) << err;
  EXPECT_EQ(resp, "{\"ok\":true,\"id\":9,\"pong\":true}");

  // Flow requests route through the fleet; the worker's response (echoing
  // the client id) passes back verbatim, and a repeat is the owner's cache
  // hit.
  ASSERT_TRUE(client.roundtrip(flow_line(20, "x"), &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(resp.find("\"id\":\"x\""), std::string::npos);
  EXPECT_NE(resp.find("\"cache\":\"miss\""), std::string::npos);
  ASSERT_TRUE(client.roundtrip(flow_line(20, "y"), &resp, &err)) << err;
  EXPECT_NE(resp.find("\"cache\":\"hit\""), std::string::npos);

  // Local validation still rejects malformed requests at the edge.
  ASSERT_TRUE(client.roundtrip("{\"flow_request\":{\"bogus\":1}}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"ok\":false"), std::string::npos);
  // Worker-local verbs degrade with a structured pointer, not a forward.
  ASSERT_TRUE(client.roundtrip("{\"search_cancel\":1}", &resp, &err)) << err;
  EXPECT_NE(resp.find("worker"), std::string::npos);
  ASSERT_TRUE(
      client.roundtrip("{\"flow_request\":{\"tech\":\"shinko\"},\"after\":[1]}", &resp, &err))
      << err;
  EXPECT_NE(resp.find("coordinator mode"), std::string::npos);

  ASSERT_TRUE(client.roundtrip("{\"stats\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"coordinator\":true"), std::string::npos);
  EXPECT_NE(resp.find("\"workers_up\":2"), std::string::npos);
  EXPECT_NE(resp.find("\"forwarded\":2"), std::string::npos);

  // The stats body lists the coordinator's workers (Fleet::workers()).
  const core::json::Value stats_resp = core::json::parse(resp);
  const core::json::Value* workers = stats_resp.at("stats").at("fleet").find("workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->arr.size(), 2u);

  const auto st = coord.stats();
  ASSERT_TRUE(st.fleet.has_value());
  EXPECT_EQ(st.fleet->forwarded, 2u);
  EXPECT_EQ(st.fleet->answered, 2u);
  EXPECT_EQ(st.flow_requests, 2u);

  ASSERT_TRUE(client.roundtrip("{\"shutdown\":true}", &resp, &err)) << err;
  EXPECT_NE(resp.find("\"draining\":true"), std::string::npos);
  coord.wait();
  w0.kill();
  w1.kill();
}

TEST(FleetStatsSchemaTest, CoordinatorKeysAreStable) {
  Worker w;
  ASSERT_TRUE(w.boot());
  serve::ServerOptions copts;
  copts.port = 0;
  copts.coordinator = true;
  copts.fleet_workers = {w.address()};
  serve::Server coord(copts);
  std::string err;
  ASSERT_TRUE(coord.start(&err)) << err;

  serve::Client client;
  ASSERT_TRUE(client.connect(coord.port(), &err)) << err;
  std::string resp;
  ASSERT_TRUE(client.roundtrip(flow_line(30), &resp, &err)) << err;
  ASSERT_TRUE(client.roundtrip("{\"stats\":true}", &resp, &err)) << err;
  const core::json::Value v = core::json::parse(resp);
  EXPECT_EQ(stats_schema::key_paths(v.at("stats")),
            stats_schema::coordinator_paths(stats_schema::worker_paths()));

  coord.request_stop();
  coord.wait();
  w.kill();
}

}  // namespace
}  // namespace gia
