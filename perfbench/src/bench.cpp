#include "bench.hpp"

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>

#include "chiplet/bump_plan.hpp"
#include "chiplet/pnr_flow.hpp"
#include "core/instrument.hpp"
#include "core/json.hpp"
#include "core/links.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "interposer/design.hpp"
#include "netlist/openpiton.hpp"
#include "netlist/serdes.hpp"
#include "partition/fm.hpp"
#include "partition/hierarchical.hpp"
#include "partition/kway.hpp"
#include "pdn/impedance.hpp"
#include "pdn/ir_drop.hpp"
#include "pdn/pdn_model.hpp"
#include "pdn/settling.hpp"
#include "signal/eye.hpp"
#include "signal/link_sim.hpp"
#include "tech/library.hpp"
#include "thermal/analysis.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

namespace perfbench {

namespace core = gia::core;
namespace json = gia::core::json;
using gia::core::stage::StageId;

// --- Report

void Report::note(const std::string& name, double value) {
  std::string v;
  json::append_double(value, v);
  detail.push_back({name, v});
}

void Report::note_text(const std::string& name, const std::string& value) {
  std::string v;
  json::escape(value, v);
  detail.push_back({name, v});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Report::fail(const std::string& what) {
  ++failed;
  failures.push_back(what);
}

// --- Summaries and process probes

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = median(v);
  if (s.n >= 20) {
    // Sorted index n-11 has exactly ten samples above it.
    const std::size_t i = s.n - 11;
    s.tail = v[i];
    s.tail_pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(s.n);
  } else {
    s.tail = v.back();
    s.tail_pct = 100.0;
  }
  return s;
}

int flow_threads() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

double cpu_seconds() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double max_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void setup_flow_process() {
  const int threads = flow_threads();
  core::set_thread_count(threads);
  // The pool starts lazily; one parallel region spins every worker up.
  core::parallel_for(static_cast<std::size_t>(threads) * 4, [](std::size_t) {});
  const auto techs = gia::tech::all_package_technologies();
  if (techs.size() != 6) throw std::runtime_error("technology library is incomplete");
}

void warm_up(const std::vector<std::pair<gia::tech::TechnologyKind, core::FlowOptions>>& flows) {
  for (const auto& [kind, opts] : flows) core::stage::execute_flow(kind, opts);
}

void measure_setup(const Args& args, Report& rep) {
  std::vector<double> t;
  for (int i = 0; i < kSetupProbes; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("set-up probe: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    std::string exe = "/proc/self/exe";
    char* argv[] = {exe.data(), const_cast<char*>("--setup-probe"),
                    const_cast<char*>(args.workload.c_str()), nullptr};
    pid_t pid = 0;
    const auto t0 = Clock::now();
    const int err = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    char byte = 0;
    const bool ready = err == 0 && ::read(fds[0], &byte, 1) == 1;
    const double s = seconds_since(t0);
    ::close(fds[0]);
    int status = 0;
    if (err == 0) ::waitpid(pid, &status, 0);
    const bool ok = ready && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    rep.check(ok, "set-up probe " + std::to_string(i) + " became ready and exited cleanly");
    if (ok) t.push_back(s);
  }
  if (!args.trace && !t.empty()) rep.metric("setup_s", median(t), "s");
  rep.note("setup_samples", static_cast<double>(t.size()));
}

void write_trace(const Args& args, Report& rep) {
  if (args.out_dir.empty()) return;
  const std::string path =
      args.out_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".trace.json";
  std::ofstream f(path);
  f << core::instrument::RunReport::capture().to_json() << '\n';
  rep.check(static_cast<bool>(f), "write trace to " + path);
  rep.note_text("trace_file", path);
}

// --- Output checks

namespace {

bool all_numbers_finite(const json::Value& v) {
  switch (v.kind) {
    case json::Value::Kind::Number: return std::isfinite(v.as_double());
    case json::Value::Kind::Array:
      for (const auto& e : v.arr)
        if (!all_numbers_finite(e)) return false;
      return true;
    case json::Value::Kind::Object:
      for (const auto& kv : v.obj)
        if (!all_numbers_finite(kv.second)) return false;
      return true;
    default: return true;
  }
}

}  // namespace

void check_flow_outputs(const core::TechnologyResult& r, const std::string& text,
                        const std::string& label, Report& rep) {
  bool finite = false;
  try {
    finite = all_numbers_finite(json::parse(text));
  } catch (const std::exception&) {
    finite = false;  // %.17g renders a non-finite double as nan/inf: not JSON
  }
  rep.check(finite, label + ": every result metric is finite");

  const auto& routes = r.interposer.routes;
  int lateral = 0;
  bool all_routed = routes.nets.size() == r.interposer.top_nets.size();
  for (const auto& rn : routes.nets) {
    if (rn.vertical) continue;
    ++lateral;
    all_routed = all_routed && !rn.path.empty() && rn.length_um > 0;
  }
  all_routed = all_routed && lateral == routes.stats.routed_nets;
  rep.check(all_routed, label + ": every lateral net is routed");
  rep.check(text.find("\"overflowed_cells\":") != std::string::npos,
            label + ": overflowed_cells is reported");
}

void check_stage_outcomes(const core::stage::StageRunRecord& rec,
                          const std::vector<StageId>& cached, const std::string& label,
                          Report& rep) {
  using Outcome = core::stage::StageRunRecord::Outcome;
  for (const auto& info : core::stage::registry()) {
    const bool want_hit = std::find(cached.begin(), cached.end(), info.id) != cached.end();
    const Outcome got = rec.outcome[static_cast<std::size_t>(core::stage::idx(info.id))];
    const bool ok = want_hit ? got == Outcome::CacheHit : got == Outcome::Computed;
    rep.check(ok, label + ": stage " + info.name + (want_hit ? " served from cache" : " computed"));
  }
}

void check_single_thread(gia::tech::TechnologyKind kind, const core::FlowOptions& opts,
                         const std::string& text, const std::string& label, Report& rep) {
  const int threads = flow_threads();
  const bool cache_was = core::stage::stage_cache_enabled();
  core::stage::set_stage_cache_enabled(false);
  core::set_thread_count(1);
  std::string single;
  try {
    single = core::technology_result_to_json(core::stage::execute_flow(kind, opts));
  } catch (const std::exception& e) {
    single = std::string("error: ") + e.what();
  }
  core::set_thread_count(threads);
  core::stage::set_stage_cache_enabled(cache_was);
  rep.check(single == text, label + ": serialized result at 1 thread equals the result at " +
                                std::to_string(threads) + " threads");
}

double tracing_overhead_ratio(gia::tech::TechnologyKind kind, const core::FlowOptions& opts) {
  const bool cache_was = core::stage::stage_cache_enabled();
  const bool trace_was = core::instrument::enabled();
  core::stage::set_stage_cache_enabled(false);
  double wall[2] = {0, 0};
  for (int on = 0; on < 2; ++on) {
    core::instrument::set_enabled(on == 1);
    const auto t0 = Clock::now();
    core::stage::execute_flow(kind, opts);
    wall[on] = seconds_since(t0);
  }
  core::instrument::set_enabled(trace_was);
  core::stage::set_stage_cache_enabled(cache_was);
  return wall[1] / wall[0];
}

// --- Layer replay

struct LayerReplay::NetlistReplay {
  gia::netlist::Netlist net;
  gia::netlist::SerDesReport serdes;
  gia::partition::PartitionResult partition;  // legacy
  gia::netlist::ChipletNetlist logic_nl, mem_nl;
  gia::partition::KwayResult kway;  // N-chiplet
  std::vector<gia::netlist::ChipletNetlist> parts;
  std::vector<gia::partition::PairCut> pairs;
};

bool LayerReplay::first_time(std::uint64_t stage_key) {
  if (std::find(done_.begin(), done_.end(), stage_key) != done_.end()) return false;
  done_.push_back(stage_key);
  return true;
}

namespace {

/// Mesh growth for a K-chiplet system, as the flow scales its IR-drop and
/// thermal meshes: the lattice side against the 4-die legacy baseline.
int mesh_factor(int chiplets) {
  return std::max(1, static_cast<int>(std::ceil(std::sqrt(chiplets / 4.0))));
}

}  // namespace

void LayerReplay::replay(gia::tech::TechnologyKind kind, const core::FlowOptions& o,
                         const core::TechnologyResult& result, const std::string& label) {
  namespace ip = gia::interposer;
  const auto keys = core::stage::compute_stage_keys(kind, o);
  const bool legacy = o.system.is_legacy();
  const int k = o.system.chiplets;
  const gia::tech::Technology technology = gia::tech::make_technology(kind);

  // Each replayed output substitutes into a copy of the flow's result; the
  // check is that the copy serializes to the same bytes as the result.
  std::vector<std::pair<std::string, std::function<void(core::TechnologyResult&)>>> subs;
  std::vector<std::pair<std::string, bool>> direct;

  // The replay's parent span; closed before the cross-checks below.
  std::optional<core::instrument::ScopedSpan> request;
  request.emplace("request");

  std::shared_ptr<NetlistReplay> np;
  const std::uint64_t net_key = keys.of(StageId::NetlistPartition);
  if (auto it = nets_.find(net_key); it != nets_.end()) np = it->second;
  if (!np) {
    np = std::make_shared<NetlistReplay>();
    // Timed only the first time its stage key is replayed.
    const bool traced = first_time(net_key);
    gia::netlist::OpenPitonConfig op = o.openpiton;
    if (!legacy) op.tiles = k;
    {
      std::optional<core::instrument::ScopedSpan> span;
      if (traced) span.emplace("netlist.build");
      np->net = gia::netlist::build_openpiton(op);
      np->serdes = gia::netlist::apply_serdes(np->net, o.serdes);
    }
    if (legacy) {
      {
        std::optional<core::instrument::ScopedSpan> span;
        if (traced) span.emplace("partition");
        np->partition = o.partition_mode == core::PartitionMode::Hierarchical
                            ? gia::partition::hierarchical_partition(np->net)
                            : gia::partition::fm_partition(np->net, o.fm);
      }
      np->logic_nl = gia::netlist::extract_chiplet(np->net, np->partition.side,
                                                   gia::netlist::ChipletSide::Logic, 0);
      np->mem_nl = gia::netlist::extract_chiplet(np->net, np->partition.side,
                                                 gia::netlist::ChipletSide::Memory, 0);
      stats_.cut_wires.push_back(np->partition.cut_wires);
    } else {
      gia::partition::KwayConfig kc;
      kc.parts = k;
      kc.balance_tolerance = o.fm.balance_tolerance;
      kc.max_passes = o.fm.max_passes;
      kc.seed = o.fm.seed;
      {
        std::optional<core::instrument::ScopedSpan> span;
        if (traced) span.emplace("partition");
        np->kway = gia::partition::kway_partition(np->net, kc);
      }
      np->pairs = gia::partition::pair_cuts(np->net, np->kway.part, k);
      for (int i = 0; i < k; ++i) {
        np->parts.push_back(gia::netlist::extract_part(
            np->net, np->kway.part, i,
            o.system.memory_class(i) ? gia::netlist::ChipletSide::Memory
                                     : gia::netlist::ChipletSide::Logic));
      }
      stats_.cut_wires.push_back(static_cast<double>(np->kway.cut_wires));
    }
    nets_[net_key] = np;
    if (traced) {
      auto serdes = np->serdes;
      subs.push_back({"netlist.build", [serdes](core::TechnologyResult& r) { r.serdes = serdes; }});
      if (legacy) {
        auto part = np->partition;
        subs.push_back({"partition", [part](core::TechnologyResult& r) { r.partition = part; }});
      } else {
        direct.push_back(
            {"partition", result.partition.cut_wires == static_cast<int>(np->kway.cut_wires)});
      }
    }
  }

  if (first_time(keys.of(StageId::ChipletPnr))) {
    if (legacy) {
      const auto plans = gia::chiplet::plan_chiplet_pair(
          np->logic_nl.io_signals, np->mem_nl.io_signals, np->logic_nl.cell_area_um2,
          np->mem_nl.cell_area_um2, technology);
      gia::chiplet::ChipletPnrResult logic, memory;
      {
        GIA_SPAN("chiplet.pnr");
        logic = gia::chiplet::run_chiplet_pnr(np->net, np->logic_nl, technology, plans.logic, o.pnr);
      }
      {
        GIA_SPAN("chiplet.pnr");
        memory =
            gia::chiplet::run_chiplet_pnr(np->net, np->mem_nl, technology, plans.memory, o.pnr);
      }
      stats_.pnr_calls += 2;
      stats_.clusters += np->logic_nl.instance_ids.size() + np->mem_nl.instance_ids.size();
      subs.push_back({"chiplet.pnr", [plans, logic, memory](core::TechnologyResult& r) {
                        r.plans = plans;
                        r.logic = logic;
                        r.memory = memory;
                      }});
    } else {
      std::vector<gia::chiplet::BumpPlan> plans;
      std::vector<gia::chiplet::ChipletPnrResult> pnr;
      for (int i = 0; i < k; ++i) {
        const auto& part = np->parts[static_cast<std::size_t>(i)];
        plans.push_back(gia::chiplet::plan_bumps(std::max(1, part.io_signals),
                                                 part.cell_area_um2 * o.system.die_scale_of(i),
                                                 o.system.memory_class(i), technology));
        GIA_SPAN("chiplet.pnr");
        pnr.push_back(gia::chiplet::run_chiplet_pnr(np->net, part, technology, plans.back(), o.pnr));
        stats_.clusters += part.instance_ids.size();
      }
      stats_.pnr_calls += static_cast<std::uint64_t>(k);
      // The flow's Table II/III representatives: chiplet 0 and the first
      // memory-class chiplet (the last chiplet when there is none).
      int mem = k - 1;
      for (int i = 0; i < k; ++i) {
        if (o.system.memory_class(i)) {
          mem = i;
          break;
        }
      }
      gia::chiplet::ChipletPair pair{plans.front(), plans[static_cast<std::size_t>(mem)]};
      auto logic = pnr.front();
      auto memory = pnr[static_cast<std::size_t>(mem)];
      subs.push_back({"chiplet.pnr", [pair, logic, memory](core::TechnologyResult& r) {
                        r.plans = pair;
                        r.logic = logic;
                        r.memory = memory;
                      }});
    }
  }

  if (first_time(keys.of(StageId::Interposer))) {
    ip::InterposerDesign design;
    ip::RouterOptions ro = o.router;
    if (legacy) {
      ip::ChipletInputs in;
      in.logic_signal_ios = np->logic_nl.io_signals;
      in.memory_signal_ios = np->mem_nl.io_signals;
      in.logic_cell_area_um2 = np->logic_nl.cell_area_um2;
      in.memory_cell_area_um2 = np->mem_nl.cell_area_um2;
      GIA_SPAN("interposer.design");
      design = ip::build_interposer_design(kind, in, o.router);
    } else {
      ip::SystemInputs si;
      for (const auto& part : np->parts) {
        si.signal_ios.push_back(part.io_signals);
        si.cell_area_um2.push_back(part.cell_area_um2);
      }
      for (const auto& pc : np->pairs) si.pairs.push_back({pc.a, pc.b, pc.wires});
      {
        GIA_SPAN("interposer.design");
        design = ip::build_system_design(kind, o.system, si, o.router);
      }
      ro.grid_nx = ip::scaled_router_grid(o.router.grid_nx, k);
      ro.grid_ny = ip::scaled_router_grid(o.router.grid_ny, k);
    }
    const auto& fd = result.interposer;
    ip::RouteResult routes;
    {
      GIA_SPAN("interposer.route");
      routes = ip::route_interposer(fd.technology, fd.floorplan, fd.top_nets, ro);
    }
    stats_.routed_nets.push_back(routes.stats.routed_nets);
    stats_.overflowed_cells.push_back(routes.stats.overflowed_cells);
    stats_.grid_cells.push_back(static_cast<double>(ro.grid_nx) * ro.grid_ny);
    // The replayed design's dies point at its own bump plans; keep it alive
    // in the closure so the substituted copy never dangles.
    auto held = std::make_shared<ip::InterposerDesign>(std::move(design));
    subs.push_back(
        {"interposer.design", [held](core::TechnologyResult& r) { r.interposer = *held; }});
    subs.push_back(
        {"interposer.route", [routes](core::TechnologyResult& r) { r.interposer.routes = routes; }});
  }

  if (first_time(keys.of(StageId::Links))) {
    core::LinkStudy l2m, l2l;
    l2m.spec = core::make_link_spec(result.interposer, ip::TopNetKind::LogicToMemory);
    l2l.spec = core::make_link_spec(result.interposer, ip::TopNetKind::LogicToLogic);
    {
      GIA_SPAN("signal.link");
      l2m.result = gia::signal::simulate_link(l2m.spec);
    }
    {
      GIA_SPAN("signal.link");
      l2l.result = gia::signal::simulate_link(l2l.spec);
    }
    subs.push_back({"signal.link", [l2m, l2l](core::TechnologyResult& r) {
                      r.l2m.spec = l2m.spec;
                      r.l2m.result = l2m.result;
                      r.l2l.spec = l2l.spec;
                      r.l2l.result = l2l.result;
                    }});
  }

  if (first_time(keys.of(StageId::Eyes)) && o.with_eyes) {
    gia::signal::EyeResult l2m, l2l;
    {
      GIA_SPAN("signal.eye");
      l2m = gia::signal::simulate_eye(result.l2m.spec, o.eye_bits);
    }
    {
      GIA_SPAN("signal.eye");
      l2l = gia::signal::simulate_eye(result.l2l.spec, o.eye_bits);
    }
    subs.push_back({"signal.eye", [l2m, l2l](core::TechnologyResult& r) {
                      r.l2m.eye = l2m;
                      r.l2l.eye = l2l;
                    }});
  }

  if (first_time(keys.of(StageId::Pdn))) {
    gia::pdn::PdnModel model;
    gia::pdn::ImpedanceProfile imp;
    gia::pdn::IrDropResult ir;
    {
      GIA_SPAN("pdn.impedance");
      model = gia::pdn::build_pdn_model(result.interposer);
      imp = gia::pdn::impedance_profile(model);
    }
    if (result.interposer.technology.has_interposer()) {
      gia::pdn::IrDropOptions io;
      if (!legacy) {
        double units = 0;
        for (int i = 0; i < k; ++i) units += o.system.power_scale_of(i);
        io.total_current_a *= units / 4.0;
        io.grid_n = std::min(96, io.grid_n * mesh_factor(k));
      }
      GIA_SPAN("pdn.ir_drop");
      ir = gia::pdn::solve_ir_drop(result.interposer, io);
    }
    gia::pdn::SettlingResult settling;
    {
      GIA_SPAN("pdn.settling");
      settling = gia::pdn::simulate_settling(model);
    }
    subs.push_back({"pdn", [model, imp, ir, settling](core::TechnologyResult& r) {
                      r.pdn_model = model;
                      r.pdn_impedance = imp;
                      r.ir_drop = ir;
                      r.settling = settling;
                    }});
  }

  if (first_time(keys.of(StageId::Thermal)) && o.with_thermal) {
    gia::thermal::MeshOptions mo = o.thermal_mesh;
    if (!legacy) {
      mo.logic_power_w *= o.system.power_scale;
      mo.memory_power_w *= o.system.power_scale * o.system.memory_power_scale;
      mo.nx = std::min(192, mo.nx * mesh_factor(k));
      mo.ny = std::min(192, mo.ny * mesh_factor(k));
    }
    gia::thermal::ThermalMesh mesh;
    gia::thermal::ThermalField field;
    {
      GIA_SPAN("thermal.steady");
      mesh = gia::thermal::build_thermal_mesh(result.interposer, mo);
      field = gia::thermal::solve_steady_state(mesh);
    }
    ++stats_.thermal_solves;
    if (field.converged) ++stats_.thermal_converged;
    stats_.sweeps.push_back(field.iterations);
    auto report = gia::thermal::analyze(result.interposer, mesh, field);
    subs.push_back({"thermal", [report](core::TechnologyResult& r) { r.thermal = report; }});
  }

  request.reset();
  ++stats_.flows;

  // Cross-checks, outside every span.
  const std::string base = core::technology_result_to_json(result);
  for (const auto& [layer, apply] : subs) {
    core::TechnologyResult copy = result;
    apply(copy);
    rep_->check(core::technology_result_to_json(copy) == base,
                label + ": replayed " + layer + " output equals the flow's result");
  }
  for (const auto& [layer, ok] : direct)
    rep_->check(ok, label + ": replayed " + layer + " output equals the flow's result");
}

ProgramCounters read_program_counters() {
  namespace ins = core::instrument;
  ProgramCounters c;
  c.transient_steps = ins::counter_value(ins::Counter::TransientSteps);
  c.lu_factorizations = ins::counter_value(ins::Counter::LuFactorizations);
  return c;
}

namespace {

const core::instrument::SpanSnapshot* child_span(const core::instrument::SpanSnapshot& parent,
                                                 const std::string& name) {
  for (const auto& c : parent.children)
    if (c.name == name) return &c;
  return nullptr;
}

}  // namespace

void emit_layer_metrics(const LayerStats& ls, const ProgramCounters& during_flows,
                        std::uint64_t flows_computed, Report& rep) {
  const auto report = core::instrument::RunReport::capture();
  const core::instrument::SpanSnapshot* request = child_span(report.root, "request");
  const double per = ls.flows > 0 ? 1.0 / static_cast<double>(ls.flows) : 0.0;
  // A layer's time is its span's total (the program's own spans inside the
  // layer call are its children); the request's is its self time, the
  // harness's glue between the layer calls.
  const auto s = [&](const char* layer) {
    const auto* span = request ? child_span(*request, layer) : nullptr;
    return span ? static_cast<double>(span->total_ns) * 1e-9 * per : 0.0;
  };
  double request_self_ns = 0;
  if (request) {
    request_self_ns = static_cast<double>(request->total_ns);
    for (const auto& c : request->children) request_self_ns -= static_cast<double>(c.total_ns);
  }
  rep.metric("chiplet.pnr_s", s("chiplet.pnr"), "s");
  rep.metric("chiplet.pnr_calls", static_cast<double>(ls.pnr_calls) * per, "count");
  rep.metric("chiplet.clusters", static_cast<double>(ls.clusters) * per, "count");
  rep.metric("interposer.design_s", s("interposer.design"), "s");
  rep.metric("interposer.route_s", s("interposer.route"), "s");
  rep.metric("interposer.routed_nets", median(ls.routed_nets), "count");
  rep.metric("interposer.overflowed_cells", median(ls.overflowed_cells), "count");
  rep.metric("interposer.grid_cells", median(ls.grid_cells), "count");
  rep.metric("partition.s", s("partition"), "s");
  rep.metric("partition.cut_wires", median(ls.cut_wires), "count");
  rep.metric("netlist.build_s", s("netlist.build"), "s");
  rep.metric("signal.link_s", s("signal.link"), "s");
  rep.metric("signal.eye_s", s("signal.eye"), "s");
  const double per_flow = flows_computed > 0 ? 1.0 / static_cast<double>(flows_computed) : 0.0;
  rep.metric("circuit.transient_steps", static_cast<double>(during_flows.transient_steps) * per_flow,
             "count");
  rep.metric("circuit.lu_factorizations",
             static_cast<double>(during_flows.lu_factorizations) * per_flow, "count");
  rep.metric("thermal.steady_s", s("thermal.steady"), "s");
  rep.metric("thermal.sweeps", median(ls.sweeps), "count");
  rep.metric("thermal.converged_ratio",
             ls.thermal_solves > 0 ? static_cast<double>(ls.thermal_converged) /
                                         static_cast<double>(ls.thermal_solves)
                                   : 0.0,
             "ratio");
  rep.metric("pdn.impedance_s", s("pdn.impedance"), "s");
  rep.metric("pdn.ir_drop_s", s("pdn.ir_drop"), "s");
  rep.metric("pdn.settling_s", s("pdn.settling"), "s");
  rep.metric("trace.request_self_s", request_self_ns * 1e-9 * per, "s");
  rep.note("replayed_flows", static_cast<double>(ls.flows));
}

}  // namespace perfbench
