// served_mix: an in-process giad on an ephemeral loopback port, driven
// closed-loop by three flow-request clients drawing from a seeded, skewed,
// growing set of requests, plus one client running a dse search over the
// same knob space.
//
// The window is a sequence of cold episodes. Each starts a fresh server
// with an empty stage cache and fresh netlist seeds, so every episode pays
// the same cold misses; their latencies, pooled over the episodes, set the
// tail.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "bench.hpp"
#include "core/instrument.hpp"
#include "core/json.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "serve/daemon.hpp"
#include "serve/request.hpp"

namespace perfbench {

namespace core = gia::core;
namespace json = gia::core::json;
namespace serve = gia::serve;
using gia::tech::TechnologyKind;

namespace {

constexpr int kFlowClients = 3;
constexpr int kClients = kFlowClients + 1;  // plus the search client
/// Pause between a response and the client's next request. Back-to-back
/// loopback requests make throughput hinge on thread wake-up latency, which
/// varies several-fold between runs on shared, virtualized hosts; a think
/// time keeps each client's cycle dominated by its own clock.
constexpr auto kThinkTime = std::chrono::milliseconds(5);
/// Repeat traffic between two arrivals: the next request arrives this long
/// after the newest one was answered, so no two misses overlap.
constexpr auto kArrivalGap = std::chrono::milliseconds(300);

/// Downstream-only knob variants: each reuses every upstream stage of its
/// (tech, seed) config and recomputes one downstream stage.
struct Variant {
  int eye_bits;
  double board_k;
  double rollup;
};
constexpr Variant kVariants[] = {{96, 12.0, 2.0}, {64, 12.0, 2.0}, {96, 8.0, 2.0}, {96, 12.0, 1.5}};
constexpr TechnologyKind kTechs[] = {TechnologyKind::Glass25D, TechnologyKind::Glass3D};

/// One episode's traffic: 2 technologies x 2 fresh netlist seeds = 4
/// upstream configs, each with the 4 variants = 16 flow requests.
struct Traffic {
  std::vector<serve::FlowRequest> reqs;
  std::vector<std::string> prefix;  ///< request line without `,"id":N,"result":true}`
  std::vector<double> weight;       ///< Zipf(1.1) over a seeded ranking
  /// Arrival order: the four base requests first, so each upstream config
  /// is computed by the same variant, then the twelve downstream variants.
  std::vector<std::size_t> arrival;
};

Traffic make_traffic(SeedSource& seeds) {
  Traffic t;
  const unsigned netlist_seeds[] = {seeds.next(), seeds.next()};
  for (unsigned s : netlist_seeds) {
    for (TechnologyKind tech : kTechs) {
      for (const Variant& v : kVariants) {
        serve::FlowRequest r;
        r.tech = tech;
        r.options.with_eyes = true;
        r.options.with_thermal = true;
        r.options.openpiton.seed = s;
        r.options.eye_bits = v.eye_bits;
        r.options.thermal_mesh.board_k = v.board_k;
        r.options.rollup_activity_scale = v.rollup;
        std::string line = serve::request_to_json(r);
        line.pop_back();
        t.prefix.push_back(std::move(line));
        t.reqs.push_back(r);
      }
    }
  }
  const std::size_t n = t.reqs.size();
  std::vector<std::size_t> rank(n);
  std::iota(rank.begin(), rank.end(), 0);
  std::shuffle(rank.begin(), rank.end(), seeds.rng());
  t.weight.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    t.weight[rank[i]] = 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
  std::vector<std::size_t> variants;
  for (std::size_t i = 0; i < n; ++i)
    (i % std::size(kVariants) == 0 ? t.arrival : variants).push_back(i);
  std::shuffle(t.arrival.begin(), t.arrival.end(), seeds.rng());
  std::shuffle(variants.begin(), variants.end(), seeds.rng());
  t.arrival.insert(t.arrival.end(), variants.begin(), variants.end());
  return t;
}

/// The search: tech x eye_bits x board_k around the first (glass25d) base
/// request, one refine round.
std::string search_line(const serve::FlowRequest& base) {
  const std::string doc = serve::request_to_json(base);
  const std::string head = "{\"flow_request\":";
  return "{\"search\":{\"space\":{\"tech\":[\"glass25d\",\"glass3d\"],\"eye_bits\":[64,96],"
         "\"thermal_mesh.board_k\":[8,12]},\"base\":" +
         doc.substr(head.size(), doc.size() - head.size() - 1) +
         ",\"seed_points\":8,\"refine_rounds\":1,\"batch\":4},\"id\":0,\"deadline_ms\":120000}";
}

/// The search's eight points; two are outside the flow requests.
std::vector<serve::FlowRequest> search_points(const serve::FlowRequest& base) {
  std::vector<serve::FlowRequest> out;
  for (int eye : {64, 96}) {
    for (double k : {8.0, 12.0}) {
      for (TechnologyKind tech : kTechs) {
        serve::FlowRequest r = base;
        r.tech = tech;
        r.options.eye_bits = eye;
        r.options.thermal_mesh.board_k = k;
        out.push_back(r);
      }
    }
  }
  return out;
}

/// Distinct stage keys of a set of requests: the stage computations a cold
/// stage cache must make for them.
std::set<std::uint64_t> stage_keys_of(const std::vector<serve::FlowRequest>& rs) {
  std::set<std::uint64_t> keys;
  for (const auto& r : rs) {
    const auto k = core::stage::compute_stage_keys(r.tech, r.options);
    keys.insert(k.key.begin(), k.key.end());
  }
  return keys;
}

struct Sample {
  double client_us = 0;
  double server_us = 0;
};

/// What one flow client saw in one episode.
struct ClientLog {
  std::vector<Sample> samples;
  std::vector<std::string> first_result;  ///< per request; empty = never answered
  std::vector<std::string> failures;
  double last_done_s = 0;  ///< episode time of its last answer
};

/// Split a flow response into its result JSON; false unless a success.
bool parse_flow_response(const std::string& resp, double* server_us, std::string* result) {
  if (resp.rfind("{\"ok\":true", 0) != 0) return false;
  if (resp.find("\"status\":\"done\"") == std::string::npos) return false;
  const std::string lat = "\"latency_us\":";
  const auto l = resp.find(lat);
  const std::string tag = ",\"result\":";
  const auto p = resp.find(tag);
  if (l == std::string::npos || p == std::string::npos || resp.back() != '}') return false;
  *server_us = std::atof(resp.c_str() + l + lat.size());
  *result = resp.substr(p + tag.size(), resp.size() - p - tag.size() - 1);
  return true;
}

struct SearchOutcome {
  bool ok = false;
  std::string error;
  double wall_s = 0;
  double points = 0, cache_assisted = 0, front_updates = 0, points_failed = 0;
};

/// Runs one search over `client` and waits for its search_done event.
/// Never throws: it runs on its own thread.
SearchOutcome run_search_client(serve::Client& client, const std::string& line) {
  SearchOutcome out;
  const auto t0 = Clock::now();
  std::string err;
  if (!client.send_line(line, &err)) {
    out.error = "search send: " + err;
    return out;
  }
  for (;;) {
    std::string resp;
    if (!client.read_line(&resp, &err)) {
      out.error = "search read: " + err;
      return out;
    }
    if (resp.rfind("{\"ok\":true", 0) != 0) {
      out.error = "search error: " + resp.substr(0, 200);
      return out;
    }
    if (resp.find("\"event\":\"search_done\"") == std::string::npos) continue;
    out.wall_s = seconds_since(t0);
    try {
      const json::Value v = json::parse(resp);
      out.ok = v.at("status").str == "done";
      if (!out.ok) out.error = "search ended with status " + v.at("status").str;
      out.points = v.at("points_evaluated").as_double();
      out.points_failed = v.at("points_failed").as_double();
      out.cache_assisted = v.at("cache_assisted").as_double();
      out.front_updates = v.at("front_version").as_double();
    } catch (const std::exception& e) {
      out.ok = false;
      out.error = std::string("search_done unreadable: ") + e.what();
    }
    return out;
  }
}

struct Served {
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<serve::Client>> clients;
};

/// One set-up: thread pool, technology library, server bind, and every
/// client connected.
void set_up(Served& sv) {
  setup_flow_process();
  serve::ServerOptions so;
  so.port = 0;
  so.connection_workers = kClients;
  so.cache_dir = "-";  // memory only: the run reads and writes nothing else
  sv.server = std::make_unique<serve::Server>(so);
  std::string err;
  if (!sv.server->start(&err)) throw std::runtime_error("server start: " + err);
  serve::Client::Options co;
  co.io_timeout_ms = 120000;
  for (int c = 0; c < kClients; ++c) {
    sv.clients.push_back(std::make_unique<serve::Client>(co));
    if (!sv.clients.back()->connect(sv.server->port(), &err))
      throw std::runtime_error("client connect: " + err);
  }
}

void tear_down(Served& sv) {
  for (auto& c : sv.clients) c->close();
  sv.clients.clear();
  sv.server->request_stop();
  sv.server->wait();
  sv.server.reset();
}

/// One cold episode, from a fresh server to the last arrival's gap or the
/// deadline.
struct Episode {
  Traffic traffic;
  std::vector<ClientLog> logs;
  double active_s = 0;                 ///< start to the last answer
  core::stage::StageCacheStats stage;  ///< stage cache, cleared at the start
  json::Value stats;                   ///< the stats verb at the end
  bool stats_ok = false;
};

/// Drives one episode. Requests arrive one at a time: each client asks for
/// a newly arrived request next -- one computes it, the others coalesce onto
/// it -- and otherwise repeats an arrived one, drawn with the skew. Client 0
/// releases the next arrival kArrivalGap after its answer to the newest.
/// With `search`, the search client starts once every request has arrived.
void drive_episode(const Args& args, std::size_t index, Served& sv, Episode& ep,
                   Clock::time_point deadline, SearchOutcome* search,
                   const std::string& search_req) {
  const Traffic& t = ep.traffic;
  const std::size_t n = t.reqs.size();
  ep.logs.assign(kFlowClients, ClientLog{});
  std::atomic<std::size_t> released{1};
  std::atomic<bool> finished{false};
  std::atomic<std::uint64_t> next_id{1};
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kFlowClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = ep.logs[static_cast<std::size_t>(c)];
      log.first_result.resize(n);
      std::mt19937_64 rng(args.seed * 1000003u + index * 101u + static_cast<unsigned>(c));
      std::discrete_distribution<std::size_t> pick;
      std::size_t seen = 0;
      auto release_at = Clock::time_point::max();
      serve::Client& cl = *sv.clients[static_cast<std::size_t>(c)];
      while (!finished.load() && Clock::now() < deadline) {
        if (c == 0 && Clock::now() >= release_at) {
          release_at = Clock::time_point::max();
          if (released.load() == n) break;  // the last arrival's gap is over
          released.fetch_add(1);
        }
        std::size_t i = 0;
        bool newest = false;
        if (seen < released.load()) {
          i = t.arrival[seen++];
          newest = seen == released.load();
          std::vector<double> w;
          for (std::size_t j = 0; j < seen; ++j) w.push_back(t.weight[t.arrival[j]]);
          pick = std::discrete_distribution<std::size_t>(w.begin(), w.end());
        } else {
          i = t.arrival[pick(rng)];
        }
        const std::string line =
            t.prefix[i] + ",\"id\":" + std::to_string(next_id++) + ",\"result\":true}";
        std::string resp, err, result;
        double server_us = 0;
        const auto s0 = Clock::now();
        const bool sent = cl.roundtrip(line, &resp, &err);
        const double us = seconds_since(s0) * 1e6;
        if (!sent || !parse_flow_response(resp, &server_us, &result)) {
          log.failures.push_back("request " + std::to_string(i) + ": " +
                                 (sent ? resp.substr(0, 200) : err));
          if (!sent) break;  // connection lost: this client is done
          continue;
        }
        log.samples.push_back({us, server_us});
        log.last_done_s = seconds_since(t0);
        std::string& first = log.first_result[i];
        if (first.empty()) {
          first = std::move(result);
        } else if (first != result) {
          log.failures.push_back("request " + std::to_string(i) +
                                 ": response differs from its first answer");
        }
        if (c == 0 && newest) release_at = Clock::now() + kArrivalGap;
        std::this_thread::sleep_for(kThinkTime);
      }
      if (c == 0) finished.store(true);  // the others stop with the releaser
    });
  }
  if (search != nullptr) {
    threads.emplace_back([&] {
      while (released.load() < n && !finished.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      *search = run_search_client(*sv.clients[kFlowClients], search_req);
    });
  }
  for (auto& th : threads) th.join();
  for (const ClientLog& log : ep.logs) ep.active_s = std::max(ep.active_s, log.last_done_s);
  ep.stage = core::stage::stage_cache_stats();
  std::string resp, err;
  ep.stats_ok = sv.clients[0]->roundtrip("{\"stats\":true}", &resp, &err);
  if (ep.stats_ok) ep.stats = json::parse(resp).at("stats");
}

double stat(const Episode& ep, const char* group, const char* name) {
  return ep.stats_ok ? ep.stats.at(group).at(name).as_double() : 0.0;
}

}  // namespace

void run_served_mix(const Args& args, Report& rep) {
  measure_setup(args, rep);
  SeedSource seeds(args.seed);
  const bool cache_was = core::stage::stage_cache_enabled();
  core::stage::set_stage_cache_enabled(true);
  // Warm-up: the upstream flows of one more traffic, computed in-process.
  {
    setup_flow_process();
    const Traffic warm = make_traffic(seeds);
    std::vector<std::pair<TechnologyKind, core::FlowOptions>> flows;
    for (std::size_t i = 0; i < warm.reqs.size(); i += std::size(kVariants))
      flows.push_back({warm.reqs[i].tech, warm.reqs[i].options});
    warm_up(flows);
  }
  if (args.trace) core::instrument::set_enabled(true);

  std::vector<Episode> eps;
  double first_rss_mb = 0;  ///< peak RSS through the warm-up and the first episode
  SearchOutcome search;
  std::vector<serve::FlowRequest> search_reqs;
  const ProgramCounters counters0 = read_program_counters();
  const double cpu0 = cpu_seconds();
  const auto deadline = Clock::now() + std::chrono::seconds(args.seconds);
  while (Clock::now() < deadline) {
    eps.emplace_back();
    Episode& ep = eps.back();
    ep.traffic = make_traffic(seeds);
    const bool with_search = eps.size() == 1;
    if (with_search) search_reqs = search_points(ep.traffic.reqs[0]);
    Served sv;
    set_up(sv);
    core::stage::stage_cache_clear();  // cold: also zeroes its counters
    drive_episode(args, eps.size() - 1, sv, ep, deadline, with_search ? &search : nullptr,
                  search_line(ep.traffic.reqs[0]));
    tear_down(sv);
    if (eps.size() == 1) first_rss_mb = max_rss_mb();
  }
  const double cpu_s = cpu_seconds() - cpu0;
  const ProgramCounters counters1 = read_program_counters();

  // --- Latency, throughput and each episode's checks.
  std::vector<double> lat_ms, server_us, overhead_us;
  double window = 0, stage_computed = 0, stage_hits = 0, executed = 0, coalesced = 0;
  double result_hits = 0, result_misses = 0;
  struct Answered {
    std::size_t episode, request;
    std::string result;
  };
  std::vector<Answered> answered;
  for (std::size_t e = 0; e < eps.size(); ++e) {
    const Episode& ep = eps[e];
    const std::string tag = "episode " + std::to_string(e) + " ";
    window += ep.active_s;
    std::vector<std::string> first(ep.traffic.reqs.size());
    for (const ClientLog& log : ep.logs) {
      rep.attempted += log.samples.size() + log.failures.size();
      for (const auto& f : log.failures) rep.fail(tag + f);
      for (const Sample& s : log.samples) {
        lat_ms.push_back(s.client_us * 1e-3);
        server_us.push_back(s.server_us);
        overhead_us.push_back(s.client_us - s.server_us);
      }
      for (std::size_t i = 0; i < first.size(); ++i) {
        if (log.first_result[i].empty()) continue;
        if (first[i].empty()) {
          first[i] = log.first_result[i];
        } else {
          rep.check(first[i] == log.first_result[i],
                    tag + "request " + std::to_string(i) + ": clients received identical results");
        }
      }
    }
    // Cache honesty: the episode's working set fits both caches, so nothing
    // is evicted and each distinct stage key it touched is computed once.
    std::vector<serve::FlowRequest> ran;
    for (std::size_t i = 0; i < first.size(); ++i) {
      if (first[i].empty()) continue;
      ran.push_back(ep.traffic.reqs[i]);
      answered.push_back({e, i, first[i]});
    }
    if (e == 0 && search.ok) ran.insert(ran.end(), search_reqs.begin(), search_reqs.end());
    const std::size_t touched = stage_keys_of(ran).size();
    rep.check(ep.stage.total_evictions() == 0, tag + "stage cache: no eviction");
    rep.check(ep.stage.total_misses() == touched,
              tag + "stage cache: each distinct stage key computed once (" +
                  std::to_string(ep.stage.total_misses()) + " computed, " +
                  std::to_string(touched) + " distinct)");
    rep.check(ep.stats_ok, tag + "stats verb answered");
    rep.check(stat(ep, "cache", "evictions") == 0, tag + "result cache: no eviction");
    stage_computed += static_cast<double>(ep.stage.total_misses());
    stage_hits += static_cast<double>(ep.stage.total_hits() + ep.stage.total_coalesced());
    executed += stat(ep, "scheduler", "executed");
    coalesced += stat(ep, "scheduler", "coalesced");
    result_hits += stat(ep, "cache", "hits");
    result_misses += stat(ep, "cache", "misses");
  }
  ++rep.attempted;
  if (!search.ok) rep.fail(search.error);
  rep.check(search.points_failed == 0, "search: no point failed");
  if (lat_ms.empty()) throw std::runtime_error("no request completed inside the window");

  const Summary s = summarize(lat_ms);
  rep.note("episodes", static_cast<double>(eps.size()));
  rep.note("op_samples", static_cast<double>(s.n));
  rep.note("op_tail_percentile", s.tail_pct);
  rep.note("window_s", window);
  rep.note("search_points", search.points);
  rep.note("search_wall_s", search.wall_s);
  {
    std::vector<serve::FlowRequest> universe = eps[0].traffic.reqs;
    universe.insert(universe.end(), search_reqs.begin(), search_reqs.end());
    std::set<std::uint64_t> keys;
    for (const auto& r : universe) keys.insert(serve::request_key(r));
    rep.note("result_working_set", static_cast<double>(keys.size()));
    rep.note("result_cache_capacity", static_cast<double>(serve::ServerOptions().cache_capacity));
    rep.note("stage_working_set", static_cast<double>(stage_keys_of(universe).size()));
    rep.note("stage_cache_capacity", static_cast<double>(core::stage::stage_cache_capacity()));
  }
  if (!args.trace) {
    rep.metric("ops_per_s", static_cast<double>(s.n) / window, "1/s");
    rep.metric("op_p50_ms", s.p50, "ms");
    rep.metric("op_tail_ms", s.tail, "ms");
    rep.metric("max_rss_mb", first_rss_mb, "MiB");
  }

  // Byte-equality of each distinct response with an in-process flow of the
  // same request, outside the timed window: per episode, from an empty stage
  // cache, all its requests concurrently (results are byte-identical at any
  // thread count and cache state); the checks and the traced replay then
  // run in order.
  const auto req_of = [&](const Answered& a) -> const serve::FlowRequest& {
    return eps[a.episode].traffic.reqs[a.request];
  };
  std::vector<core::TechnologyResult> cold(answered.size());
  std::vector<std::string> cold_error(answered.size());
  for (std::size_t e = 0, begin = 0; e < eps.size(); ++e) {
    std::size_t end = begin;
    while (end < answered.size() && answered[end].episode == e) ++end;
    core::stage::stage_cache_clear();
    core::parallel_for(end - begin, [&](std::size_t k) {
      const auto& req = req_of(answered[begin + k]);
      try {
        cold[begin + k] = core::stage::execute_flow(req.tech, req.options);
      } catch (const std::exception& ex) {
        cold_error[begin + k] = ex.what();
      }
    });
    begin = end;
  }
  core::stage::stage_cache_clear();
  LayerReplay replay(&rep);
  for (std::size_t j = 0; j < answered.size(); ++j) {
    const auto& req = req_of(answered[j]);
    const std::string label = "episode " + std::to_string(answered[j].episode) + " request " +
                              std::to_string(answered[j].request);
    ++rep.attempted;
    if (!cold_error[j].empty()) {
      rep.fail(label + ": in-process flow threw: " + cold_error[j]);
      continue;
    }
    const std::string text = core::technology_result_to_json(cold[j]);
    rep.check(text == answered[j].result,
              label + ": served result is byte-equal to an in-process flow");
    check_flow_outputs(cold[j], text, label, rep);
    if (args.trace) replay.replay(req.tech, req.options, cold[j], label);
  }
  const Answered& chk = answered[std::mt19937_64(args.seed)() % answered.size()];
  check_single_thread(req_of(chk).tech, req_of(chk).options, chk.result, "1-thread re-run", rep);
  core::stage::set_stage_cache_enabled(cache_was);

  if (args.trace) {
    rep.metric("core.stage_computed", stage_computed, "count");
    rep.metric("core.stage_hits", stage_hits, "count");
    rep.metric("core.stage_hit_ratio",
               stage_computed + stage_hits > 0 ? stage_hits / (stage_computed + stage_hits) : 0.0,
               "ratio");
    rep.metric("core.cpu_per_wall", cpu_s / window, "ratio");
    const ProgramCounters during{counters1.transient_steps - counters0.transient_steps,
                                 counters1.lu_factorizations - counters0.lu_factorizations};
    emit_layer_metrics(replay.stats(), during, static_cast<std::uint64_t>(executed), rep);
    rep.metric("serve.server_us", median(server_us), "us");
    rep.metric("serve.client_overhead_us", median(overhead_us), "us");
    rep.metric("serve.result_hit_ratio",
               result_hits + result_misses > 0 ? result_hits / (result_hits + result_misses) : 0.0,
               "ratio");
    rep.metric("serve.coalesced", coalesced, "count");
    rep.metric("serve.executed", executed, "count");
    rep.metric("dse.points", search.points, "count");
    rep.metric("dse.cache_assisted_ratio",
               search.points > 0 ? search.cache_assisted / search.points : 0.0, "ratio");
    rep.metric("dse.front_updates", search.front_updates, "count");
    rep.metric("dse.points_per_s", search.wall_s > 0 ? search.points / search.wall_s : 0.0, "1/s");
    rep.metric("trace.overhead_ratio",
               tracing_overhead_ratio(req_of(chk).tech, req_of(chk).options), "ratio");
    write_trace(args, rep);
  }
}

void setup_probe(const Args& args) {
  const auto ready = [] {
    if (::write(1, "R", 1) != 1) throw std::runtime_error("cannot signal readiness");
  };
  if (args.workload == "served_mix") {
    Served sv;
    set_up(sv);
    ready();
    tear_down(sv);
  } else {
    setup_flow_process();
    ready();
  }
}

}  // namespace perfbench
