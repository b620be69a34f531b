// Stage-graph flow core (core/stagegraph.hpp): registry sanity, key
// sensitivity (a knob invalidates exactly the stages that declare it plus
// their transitive dependents), the byte-identity determinism contract
// (cache on/off x thread count), and the process-wide stage cache's
// hit/coalesce/evict behaviour.

#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/flow.hpp"
#include "core/json.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"

namespace stage = gia::core::stage;
using gia::core::FlowOptions;
using gia::core::PartitionMode;
using gia::tech::TechnologyKind;
using stage::StageId;

namespace {

constexpr std::array<TechnologyKind, 6> kSixTechs = {
    TechnologyKind::Glass25D, TechnologyKind::Glass3D, TechnologyKind::Silicon25D,
    TechnologyKind::Silicon3D, TechnologyKind::Shinko,  TechnologyKind::APX};

/// RAII reset: every test leaves the cache enabled, empty, at default
/// capacity, and the pool back on its environment-driven thread count.
struct CacheGuard {
  std::size_t capacity = stage::stage_cache_capacity();
  ~CacheGuard() {
    stage::set_stage_cache_capacity(capacity);
    stage::set_stage_cache_enabled(true);
    stage::stage_cache_clear();
    gia::core::set_thread_count(0);
  }
};

/// Which stage keys change between two option sets (same technology).
std::array<bool, stage::kStageCount> changed_keys(const FlowOptions& a, const FlowOptions& b,
                                                  TechnologyKind tech = TechnologyKind::Glass25D) {
  const stage::StageKeys ka = stage::compute_stage_keys(tech, a);
  const stage::StageKeys kb = stage::compute_stage_keys(tech, b);
  std::array<bool, stage::kStageCount> out{};
  for (int i = 0; i < stage::kStageCount; ++i) out[static_cast<std::size_t>(i)] = ka.key[static_cast<std::size_t>(i)] != kb.key[static_cast<std::size_t>(i)];
  return out;
}

std::array<bool, stage::kStageCount> mask(std::initializer_list<StageId> changed) {
  std::array<bool, stage::kStageCount> out{};
  for (StageId id : changed) out[static_cast<std::size_t>(stage::idx(id))] = true;
  return out;
}

FlowOptions full_options() {
  FlowOptions o;
  o.with_eyes = true;
  o.eye_bits = 16;
  o.with_thermal = true;
  return o;
}

}  // namespace

TEST(StageGraphTest, RegistryIsTopologicalAndParseable) {
  const auto& reg = stage::registry();
  ASSERT_EQ(static_cast<int>(reg.size()), stage::kStageCount);
  for (int i = 0; i < stage::kStageCount; ++i) {
    const stage::StageInfo& si = reg[static_cast<std::size_t>(i)];
    EXPECT_EQ(stage::idx(si.id), i) << "registry order must match StageId order";
    for (int d = 0; d < si.dep_count; ++d) {
      EXPECT_LT(stage::idx(si.deps[static_cast<std::size_t>(d)]), i)
          << si.name << ": dependencies must precede the stage (topological order)";
    }
    StageId parsed;
    ASSERT_TRUE(stage::parse_stage(si.name, &parsed)) << si.name;
    EXPECT_EQ(parsed, si.id);
    EXPECT_EQ(std::string(stage::stage_name(si.id)), si.name);
  }
  StageId dummy;
  EXPECT_FALSE(stage::parse_stage("not_a_stage", &dummy));
}

TEST(StageGraphTest, KnobSubsetsRenderOnlyDeclaredKnobs) {
  const FlowOptions o = full_options();
  const std::string eyes = stage::stage_knob_text(StageId::Eyes, o);
  EXPECT_NE(eyes.find("eye_bits="), std::string::npos);
  EXPECT_NE(eyes.find("with_eyes="), std::string::npos);
  EXPECT_EQ(eyes.find("router."), std::string::npos);
  const std::string links = stage::stage_knob_text(StageId::Links, o);
  EXPECT_TRUE(links.empty()) << "links reads no knobs beyond its upstream artifacts";
  const std::string np = stage::stage_knob_text(StageId::NetlistPartition, o);
  EXPECT_NE(np.find("partition_mode="), std::string::npos);
  EXPECT_NE(np.find("fm.seed="), std::string::npos);
  EXPECT_EQ(np.find("pnr."), std::string::npos);
}

// --- Key-sensitivity matrix: changing a knob must move exactly the keys of
// the stages that declare it plus their transitive dependents.

TEST(StageGraphTest, DownstreamEyeKnobInvalidatesOnlyEyes) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.eye_bits = a.eye_bits + 16;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Eyes}));
}

TEST(StageGraphTest, RollupKnobInvalidatesOnlyRollup) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.rollup_activity_scale *= 1.25;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Rollup}));
}

TEST(StageGraphTest, ThermalMeshKnobInvalidatesOnlyThermal) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.thermal_mesh.nx += 4;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Thermal}));
}

TEST(StageGraphTest, PnrKnobInvalidatesPnrAndRollup) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.pnr.placer.seed += 1;
  // Rollup declares pnr.target_freq_hz but not placer.seed; it still moves
  // because it consumes the chiplet_pnr artifact.
  EXPECT_EQ(changed_keys(a, b), mask({StageId::ChipletPnr, StageId::Rollup}));
}

TEST(StageGraphTest, RouterKnobInvalidatesInterposerSubtree) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.router.congestion_weight *= 2.0;
  EXPECT_EQ(changed_keys(a, b), mask({StageId::Interposer, StageId::Links, StageId::Eyes,
                                      StageId::Pdn, StageId::Thermal, StageId::Rollup}));
}

TEST(StageGraphTest, PartitionKnobInvalidatesEverything) {
  FlowOptions a = full_options();
  FlowOptions b = a;
  b.fm.seed += 1;
  std::array<bool, stage::kStageCount> all{};
  all.fill(true);
  EXPECT_EQ(changed_keys(a, b), all);
  FlowOptions c = a;
  c.partition_mode = PartitionMode::Flattened;
  EXPECT_EQ(changed_keys(a, c), all);
}

TEST(StageGraphTest, NetlistStageKeyIsSharedAcrossTechnologies) {
  const FlowOptions o = full_options();
  const stage::StageKeys glass = stage::compute_stage_keys(TechnologyKind::Glass25D, o);
  const stage::StageKeys si3d = stage::compute_stage_keys(TechnologyKind::Silicon3D, o);
  EXPECT_EQ(glass.of(StageId::NetlistPartition), si3d.of(StageId::NetlistPartition))
      << "partitioning is technology-independent; its artifact must be shared";
  for (int i = 1; i < stage::kStageCount; ++i) {
    EXPECT_NE(glass.key[static_cast<std::size_t>(i)], si3d.key[static_cast<std::size_t>(i)])
        << stage::stage_name(static_cast<StageId>(i));
  }
}

// --- Determinism contract: byte-identical serialized results and
// unchanged stage outcomes with the cache off, cold and warm at 1-4
// threads, for all six packaged technologies and a 16-chiplet system
// (whose per-die PnR runs on pool workers).

TEST(StageGraphTest, ByteIdenticalAcrossCacheAndThreadCount) {
  CacheGuard guard;
  struct Case {
    std::string name;
    TechnologyKind tech;
    FlowOptions opts;
  };
  std::vector<Case> cases;
  for (TechnologyKind tech : kSixTechs) cases.push_back({gia::tech::short_name(tech), tech, full_options()});
  FlowOptions sys16 = full_options();
  sys16.with_eyes = false;
  sys16.openpiton.cluster_cells = 4000;
  sys16.system.chiplets = 16;
  sys16.system.arrangement = gia::chiplet::Arrangement::Grid;
  sys16.system.memory_every = 4;
  cases.push_back({"glass25d x16 grid", TechnologyKind::Glass25D, sys16});

  struct Run {
    std::string json;
    stage::StageRunRecord record;
  };
  const auto run = [](const Case& c) {
    Run r;
    r.json = gia::core::technology_result_to_json(stage::execute_flow(c.tech, c.opts, &r.record));
    return r;
  };
  for (const Case& c : cases) {
    std::array<Run, 3> base;  // uncached, cached cold, cached warm at 1 thread
    for (int threads : {1, 2, 3, 4}) {
      gia::core::set_thread_count(threads);
      stage::set_stage_cache_enabled(false);
      const Run uncached = run(c);
      stage::set_stage_cache_enabled(true);
      stage::stage_cache_clear();
      const Run cold = run(c);
      const Run warm = run(c);
      if (threads == 1) base = {uncached, cold, warm};
      const std::string at = c.name + " at " + std::to_string(threads) + " threads: ";
      EXPECT_EQ(base[0].json, uncached.json) << at << "uncached run drifted";
      EXPECT_EQ(base[0].json, cold.json) << at << "cache-enabled cold run drifted";
      EXPECT_EQ(base[0].json, warm.json) << at << "cache-hit run drifted";
      EXPECT_EQ(base[0].record.outcome, uncached.record.outcome) << at << "uncached outcomes";
      EXPECT_EQ(base[1].record.outcome, cold.record.outcome) << at << "cold outcomes";
      EXPECT_EQ(base[2].record.outcome, warm.record.outcome) << at << "warm outcomes";
    }
    EXPECT_EQ(base[0].record.misses(), static_cast<std::uint64_t>(stage::kStageCount)) << c.name;
    EXPECT_EQ(base[2].record.hits(), static_cast<std::uint64_t>(stage::kStageCount)) << c.name;
  }
}

TEST(StageGraphTest, Monolithic2DIsRejected) {
  EXPECT_THROW(stage::execute_flow(TechnologyKind::Monolithic2D, FlowOptions{}),
               std::invalid_argument);
}

// --- Cache behaviour.

TEST(StageGraphTest, SecondRunHitsEveryStage) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  const FlowOptions opts;  // eyes/thermal off: fast
  stage::StageRunRecord first, second;
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &first);
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &second);
  EXPECT_EQ(first.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(first.hits(), 0u);
  EXPECT_EQ(second.hits(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(second.misses(), 0u);
  for (int i = 0; i < stage::kStageCount; ++i) {
    EXPECT_EQ(second.outcome[static_cast<std::size_t>(i)], stage::StageRunRecord::Outcome::CacheHit);
  }
}

TEST(StageGraphTest, DownstreamSweepReusesUpstreamArtifacts) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  FlowOptions opts;
  opts.with_eyes = true;
  opts.eye_bits = 16;  // minimum: 8 warm-up UIs + 8 measured
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts);
  opts.eye_bits = 24;
  stage::StageRunRecord rec;
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &rec);
  EXPECT_EQ(rec.misses(), 1u) << "only the eye stage may recompute";
  EXPECT_EQ(rec.outcome[static_cast<std::size_t>(stage::idx(StageId::Eyes))],
            stage::StageRunRecord::Outcome::Computed);
  EXPECT_EQ(rec.hits(), static_cast<std::uint64_t>(stage::kStageCount) - 1);
}

TEST(StageGraphTest, DisabledCacheRecomputesEveryStage) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(false);
  EXPECT_FALSE(stage::stage_cache_enabled());
  const FlowOptions opts;
  stage::StageRunRecord a, b;
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &a);
  (void)stage::execute_flow(TechnologyKind::Glass25D, opts, &b);
  EXPECT_EQ(a.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(b.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(b.hits(), 0u);
  EXPECT_FALSE(stage::stage_cache_stats().enabled);
}

TEST(StageGraphTest, LruEvictionKeepsEntriesBounded) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  stage::set_stage_cache_capacity(8);
  FlowOptions opts;
  for (int i = 0; i < 4; ++i) {
    opts.rollup_activity_scale = 1.0 + 0.1 * i;  // new rollup key each run
    (void)stage::execute_flow(TechnologyKind::Glass25D, opts);
  }
  const stage::StageCacheStats st = stage::stage_cache_stats();
  EXPECT_LE(st.entries, static_cast<std::size_t>(8));
  EXPECT_GT(st.total_evictions(), 0u) << "11 distinct artifacts into 8 slots must evict";
  EXPECT_EQ(st.capacity, static_cast<std::size_t>(8));
}

TEST(StageGraphTest, ConcurrentIdenticalFlowsComputeEachStageOnce) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  const FlowOptions opts;
  stage::StageRunRecord ra, rb;
  std::thread ta([&] { (void)stage::execute_flow(TechnologyKind::Glass3D, opts, &ra); });
  std::thread tb([&] { (void)stage::execute_flow(TechnologyKind::Glass3D, opts, &rb); });
  ta.join();
  tb.join();
  // Between the two runs every stage body ran exactly once; the other run
  // either coalesced onto the in-flight computation or hit the cache.
  EXPECT_EQ(ra.misses() + rb.misses(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(ra.hits() + rb.hits(), static_cast<std::uint64_t>(stage::kStageCount));
}

TEST(StageGraphTest, StatsJsonParsesAndCarriesPerStageCounters) {
  CacheGuard guard;
  stage::set_stage_cache_enabled(true);
  stage::stage_cache_clear();
  (void)stage::execute_flow(TechnologyKind::Glass25D, FlowOptions{});
  (void)stage::execute_flow(TechnologyKind::Glass25D, FlowOptions{});
  const std::string text = stage::stage_cache_stats_json();
  const gia::core::json::Value v = gia::core::json::parse(text);
  ASSERT_EQ(v.kind, gia::core::json::Value::Kind::Object);
  ASSERT_NE(v.find("enabled"), nullptr);
  ASSERT_NE(v.find("entries"), nullptr);
  const gia::core::json::Value* stages = v.find("stages");
  ASSERT_NE(stages, nullptr);
  for (const auto& si : stage::registry()) {
    const gia::core::json::Value* s = stages->find(si.name);
    ASSERT_NE(s, nullptr) << si.name;
    ASSERT_NE(s->find("hits"), nullptr);
    ASSERT_NE(s->find("misses"), nullptr);
    ASSERT_NE(s->find("evictions"), nullptr);
  }
  const stage::StageCacheStats st = stage::stage_cache_stats();
  EXPECT_EQ(st.total_hits(), static_cast<std::uint64_t>(stage::kStageCount));
  EXPECT_EQ(st.total_misses(), static_cast<std::uint64_t>(stage::kStageCount));
}
