// The two in-process flow workloads: paper_study (rounds of the paper's six
// technologies, eyes and thermal on) and system64 (cold 64-chiplet glass
// 2.5D flows cycling through the grid, hex and floorplan arrangements).

#include <iterator>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "core/instrument.hpp"
#include "core/serialize.hpp"
#include "tech/library.hpp"

namespace perfbench {

namespace core = gia::core;
using gia::core::stage::StageId;
using gia::tech::TechnologyKind;

namespace {

/// One timed flow with its output and stage-outcome checks.
struct FlowRun {
  core::TechnologyResult result;
  core::stage::StageRunRecord stages;
  ProgramCounters counters;  ///< the program's counters during the flow
  std::string json;
  double wall_s = 0;
  double cpu_s = 0;
  bool ok = false;
};

/// `cached` lists the stages the workload expects the stage cache to serve;
/// every other stage must compute.
FlowRun timed_flow(TechnologyKind kind, const core::FlowOptions& opts,
                   const std::vector<StageId>& cached, const std::string& label, Report& rep) {
  FlowRun fr;
  const ProgramCounters n0 = read_program_counters();
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  ++rep.attempted;
  try {
    fr.result = core::stage::execute_flow(kind, opts, &fr.stages);
  } catch (const std::exception& e) {
    rep.fail(label + ": flow threw: " + e.what());
    return fr;
  }
  fr.wall_s = seconds_since(t0);
  fr.cpu_s = cpu_seconds() - c0;
  const ProgramCounters n1 = read_program_counters();
  fr.counters = {n1.transient_steps - n0.transient_steps,
                 n1.lu_factorizations - n0.lu_factorizations};
  fr.ok = true;
  fr.json = core::technology_result_to_json(fr.result);
  check_flow_outputs(fr.result, fr.json, label, rep);
  check_stage_outcomes(fr.stages, cached, label, rep);
  return fr;
}

/// The paper's structural Table IV shapes over one complete round.
void check_table_iv(const std::vector<std::pair<TechnologyKind, core::TechnologyResult>>& round,
                    const std::string& label, Report& rep) {
  const core::TechnologyResult* g3d = nullptr;
  const core::TechnologyResult* apx = nullptr;
  const core::TechnologyResult* si3d = nullptr;
  for (const auto& [k, r] : round) {
    if (k == TechnologyKind::Glass3D) g3d = &r;
    if (k == TechnologyKind::APX) apx = &r;
    if (k == TechnologyKind::Silicon3D) si3d = &r;
  }
  rep.check(g3d && g3d->interposer.routes.stats.signal_layers_used == 1,
            label + ": Glass 3D uses one signal layer");
  bool shorter = g3d != nullptr;
  bool apx_largest = apx != nullptr;
  bool si3d_smallest = si3d != nullptr;
  for (const auto& [k, r] : round) {
    const double wl = r.interposer.routes.stats.total_wl_um;
    const bool lateral = k != TechnologyKind::Glass3D && k != TechnologyKind::Silicon3D;
    if (g3d && lateral) shorter = shorter && 10.0 * g3d->interposer.routes.stats.total_wl_um <= wl;
    if (apx && k != TechnologyKind::APX)
      apx_largest = apx_largest && apx->interposer.area_mm2() > r.interposer.area_mm2();
    if (si3d && k != TechnologyKind::Silicon3D)
      si3d_smallest = si3d_smallest && si3d->interposer.area_mm2() < r.interposer.area_mm2();
  }
  rep.check(shorter, label + ": Glass 3D total WL is >=10x shorter than every lateral design");
  rep.check(apx_largest, label + ": APX has the largest footprint");
  rep.check(si3d_smallest, label + ": Si 3D has the smallest package");
}

/// What a flow workload accumulates over its window, and the run's tail:
/// metrics, the 1-thread re-run, and the traced run's per-layer output.
/// Constructed after the warm-up, which is one complete pass over the
/// workload's kinds of flow (a paper round, an arrangement cycle):
/// max_rss_mb is the peak RSS through set-up and that pass.
class FlowLog {
 public:
  FlowLog(const Args& args, Report& rep)
      : args_(args), rep_(rep), replay_(&rep), t0_(Clock::now()), rss_mb_(max_rss_mb()) {
    if (args.trace) core::instrument::set_enabled(true);
  }

  bool running() const { return Clock::now() < t0_ + std::chrono::seconds(args_.seconds); }

  /// Books a completed flow and, in the traced run, replays its layers.
  void add(TechnologyKind kind, const core::FlowOptions& opts, const FlowRun& fr,
           const std::string& label) {
    window_s_ = seconds_since(t0_);
    lat_s_.push_back(fr.wall_s);
    cpu_s_ += fr.cpu_s;
    computed_ += fr.stages.misses();
    served_ += fr.stages.hits();
    counters_.transient_steps += fr.counters.transient_steps;
    counters_.lu_factorizations += fr.counters.lu_factorizations;
    done_.push_back({kind, opts, fr.json});
    if (args_.trace) replay_.replay(kind, opts, fr.result, label);
  }

  LayerReplay& replay() { return replay_; }

  /// `fresh_seed` gives the tracing-overhead flow a netlist nothing cached.
  void finish(unsigned fresh_seed) {
    if (lat_s_.empty()) throw std::runtime_error("no flow completed inside the window");
    const Summary s = summarize(lat_s_);
    rep_.note("op_samples", static_cast<double>(s.n));
    rep_.note("op_tail_percentile", s.tail_pct);
    rep_.note("window_s", window_s_);
    if (!args_.trace) {
      rep_.metric("ops_per_s", static_cast<double>(s.n) / window_s_, "1/s");
      rep_.metric("op_p50_ms", s.p50 * 1e3, "ms");
      rep_.metric("op_tail_ms", s.tail * 1e3, "ms");
      rep_.metric("max_rss_mb", rss_mb_, "MiB");
    }

    const Done& chk = done_[std::mt19937_64(args_.seed)() % done_.size()];
    check_single_thread(chk.kind, chk.opts, chk.json, "1-thread re-run", rep_);
    if (!args_.trace) return;

    double flow_wall = 0;
    for (double l : lat_s_) flow_wall += l;
    rep_.metric("core.cpu_per_wall", cpu_s_ / flow_wall, "ratio");
    const double c = static_cast<double>(computed_), h = static_cast<double>(served_);
    rep_.metric("core.stage_computed", c, "count");
    rep_.metric("core.stage_hits", h, "count");
    rep_.metric("core.stage_hit_ratio", c + h > 0 ? h / (c + h) : 0.0, "ratio");
    emit_layer_metrics(replay_.stats(), counters_, done_.size(), rep_);
    // Only served_mix exercises the serving layer and the dse search.
    for (const char* m : {"serve.server_us", "serve.client_overhead_us"}) rep_.metric(m, 0, "us");
    for (const char* m : {"serve.result_hit_ratio", "dse.cache_assisted_ratio"})
      rep_.metric(m, 0, "ratio");
    for (const char* m : {"serve.coalesced", "serve.executed", "dse.points", "dse.front_updates"})
      rep_.metric(m, 0, "count");
    rep_.metric("dse.points_per_s", 0, "1/s");
    core::FlowOptions opts = chk.opts;
    opts.openpiton.seed = fresh_seed;
    rep_.metric("trace.overhead_ratio", tracing_overhead_ratio(chk.kind, opts), "ratio");
    write_trace(args_, rep_);
  }

 private:
  struct Done {
    TechnologyKind kind;
    core::FlowOptions opts;
    std::string json;
  };
  const Args& args_;
  Report& rep_;
  LayerReplay replay_;
  Clock::time_point t0_;
  double rss_mb_;
  double window_s_ = 0;
  std::vector<double> lat_s_;
  double cpu_s_ = 0;
  std::uint64_t computed_ = 0, served_ = 0;
  ProgramCounters counters_;
  std::vector<Done> done_;
};

}  // namespace

void run_paper_study(const Args& args, Report& rep) {
  measure_setup(args, rep);
  setup_flow_process();
  SeedSource seeds(args.seed);
  const auto order = gia::tech::table_order();
  const auto round_options = [&seeds] {
    core::FlowOptions opts;
    opts.with_eyes = true;
    opts.with_thermal = true;
    opts.openpiton.seed = seeds.next();
    return opts;
  };
  {
    const core::FlowOptions opts = round_options();
    std::vector<std::pair<TechnologyKind, core::FlowOptions>> round;
    for (TechnologyKind k : order) round.push_back({k, opts});
    warm_up(round);
  }
  int rounds = 0;
  FlowLog log(args, rep);
  while (log.running()) {
    const core::FlowOptions opts = round_options();
    log.replay().drop_netlists();
    std::vector<std::pair<TechnologyKind, core::TechnologyResult>> round;
    for (std::size_t i = 0; i < order.size() && log.running(); ++i) {
      const std::string label =
          "round " + std::to_string(rounds) + " " + gia::tech::short_name(order[i]);
      // netlist_partition is technology-independent: computed by the first
      // flow of the round, served from the stage cache to the other five.
      std::vector<StageId> cached;
      if (i > 0) cached.push_back(StageId::NetlistPartition);
      FlowRun fr = timed_flow(order[i], opts, cached, label, rep);
      if (!fr.ok) continue;
      log.add(order[i], opts, fr, label);
      round.push_back({order[i], std::move(fr.result)});
    }
    if (round.size() == order.size())
      check_table_iv(round, "round " + std::to_string(rounds++), rep);
  }
  rep.note("rounds", rounds);
  log.finish(seeds.next());
}

void run_system64(const Args& args, Report& rep) {
  measure_setup(args, rep);
  setup_flow_process();
  SeedSource seeds(args.seed);
  static const gia::chiplet::Arrangement kCycle[] = {gia::chiplet::Arrangement::Grid,
                                                     gia::chiplet::Arrangement::Hex,
                                                     gia::chiplet::Arrangement::Floorplan};
  // Cold flows: the stage cache is off, so no artifact of an earlier flow
  // is held and every stage body runs.
  const bool cache_was = core::stage::stage_cache_enabled();
  core::stage::set_stage_cache_enabled(false);
  const auto flow_options = [&seeds](std::size_t i) {
    core::FlowOptions opts;
    opts.system.chiplets = 64;
    opts.system.memory_every = 2;
    opts.system.arrangement = kCycle[i % std::size(kCycle)];
    opts.openpiton.cluster_cells = 4000;
    opts.openpiton.seed = seeds.next();
    opts.router.any_angle = true;
    opts.with_thermal = true;
    return opts;
  };
  std::vector<std::pair<TechnologyKind, core::FlowOptions>> cycle;
  for (std::size_t i = 0; i < std::size(kCycle); ++i)
    cycle.push_back({TechnologyKind::Glass25D, flow_options(i)});
  warm_up(cycle);
  FlowLog log(args, rep);
  for (std::size_t i = 0; log.running(); ++i) {
    const core::FlowOptions opts = flow_options(i);
    const std::string label =
        "flow " + std::to_string(i) + " " + gia::chiplet::to_string(opts.system.arrangement);
    FlowRun fr = timed_flow(TechnologyKind::Glass25D, opts, {}, label, rep);
    if (!fr.ok) continue;
    log.add(TechnologyKind::Glass25D, opts, fr, label);
    log.replay().drop_netlists();
  }
  core::stage::set_stage_cache_enabled(cache_was);
  log.finish(seeds.next());
}

}  // namespace perfbench
