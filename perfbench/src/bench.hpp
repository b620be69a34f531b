#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/stagegraph.hpp"

/// \file bench.hpp
/// Shared pieces of the benchmark harness: run arguments, the result sink
/// (operations, failed checks, metrics, detail fields), latency summaries,
/// the traced layer replay, and the per-flow output checks every workload
/// applies.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its span report
  bool setup_probe = false;
};

/// Everything a run reports. `attempted` counts timed operations plus every
/// verification check run; `failed` counts operations that errored plus
/// checks that failed. Each failure keeps a one-line reason for stderr.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> detail;  ///< name -> JSON value

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(const std::string& name, double value);
  void note_text(const std::string& name, const std::string& value);
  /// Run one verification check: counts it, and records a failure when !ok.
  void check(bool ok, const std::string& what);
  void fail(const std::string& what);
};

/// Netlist seeds for generated flows, distinct within a run: two flows
/// share stage artifacts only where a workload means them to.
class SeedSource {
 public:
  explicit SeedSource(std::uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ull + 0x51ED2701u) {}
  unsigned next() {
    for (;;) {
      const unsigned s = static_cast<unsigned>(rng_() >> 32);
      if (used_.insert(s).second) return s;
    }
  }
  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
  std::set<unsigned> used_;
};

/// Median and tail of a latency sample. The tail is the highest percentile
/// with at least ten samples beyond it; with fewer than 20 samples no such
/// percentile lies above the median, and the tail is the maximum instead.
struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  ///< percentile the tail reports (100 = maximum)
};
Summary summarize(std::vector<double> v);
double median(std::vector<double> v);

/// GIA thread count of every flow: the host's hardware concurrency.
int flow_threads();

/// Process CPU time (user + system) in seconds.
double cpu_seconds();
/// Peak resident set size in MiB.
double max_rss_mb();

/// Per-flow output checks: every number of the serialized result is finite,
/// every lateral top net is routed, and the router's overflow count is
/// part of the serialized result. `json` is
/// `core::technology_result_to_json(r)`.
void check_flow_outputs(const gia::core::TechnologyResult& r, const std::string& json,
                        const std::string& label, Report& rep);

/// Stage outcome check: every stage in `cached` was served from the stage
/// cache and every other stage computed its body.
void check_stage_outcomes(const gia::core::stage::StageRunRecord& rec,
                          const std::vector<gia::core::stage::StageId>& cached,
                          const std::string& label, Report& rep);

/// Re-run a flow at one thread with the stage cache off and compare its
/// serialized result with `json`.
void check_single_thread(gia::tech::TechnologyKind kind, const gia::core::FlowOptions& opts,
                         const std::string& json, const std::string& label, Report& rep);

/// Wall time of one cold flow (stage cache off) with the program's
/// instrument layer off and then on; returns on/off.
double tracing_overhead_ratio(gia::tech::TechnologyKind kind, const gia::core::FlowOptions& opts);

// --- Traced layer replay.

/// Per-run accumulation of what the replays measured, beyond span times.
struct LayerStats {
  std::uint64_t flows = 0;  ///< computed flows the replay covered
  std::uint64_t pnr_calls = 0;
  std::uint64_t clusters = 0;
  std::vector<double> routed_nets, overflowed_cells, grid_cells, cut_wires;
  std::uint64_t thermal_solves = 0, thermal_converged = 0;
  std::vector<double> sweeps;
};

/// Replays one computed flow layer by layer and cross-checks each replayed
/// output against the flow's result. Each replay is one `request` span of
/// the program's instrument layer, with one child span per layer call
/// (`chiplet.pnr`, `interposer.route`, ...). A layer group whose stage key
/// was already replayed in this run is skipped, so the replay does the work
/// the stage cache let the flow compute.
class LayerReplay {
 public:
  explicit LayerReplay(Report* rep) : rep_(rep) {}
  void replay(gia::tech::TechnologyKind kind, const gia::core::FlowOptions& opts,
              const gia::core::TechnologyResult& result, const std::string& label);
  const LayerStats& stats() const { return stats_; }
  /// Forget replayed netlists (bounds memory across paper_study rounds).
  void drop_netlists() { nets_.clear(); }

 private:
  struct NetlistReplay;
  Report* rep_;
  LayerStats stats_;
  std::vector<std::uint64_t> done_;  ///< stage keys already replayed
  std::map<std::uint64_t, std::shared_ptr<NetlistReplay>> nets_;

  bool first_time(std::uint64_t stage_key);
};

/// Per-layer metrics of a traced run: the replay's span times per computed
/// flow (from `instrument::RunReport::capture()`), replay counts, and the
/// program's own counters.
struct ProgramCounters {
  std::uint64_t transient_steps = 0;
  std::uint64_t lu_factorizations = 0;
};
ProgramCounters read_program_counters();

void emit_layer_metrics(const LayerStats& ls, const ProgramCounters& during_flows,
                        std::uint64_t flows_computed, Report& rep);

/// Writes the instrument layer's `RunReport` JSON to
/// `<out_dir>/<workload>-seed<seed>.trace.json`.
void write_trace(const Args& args, Report& rep);

// --- Workloads. Each runs its set-up (timed several times), the measured
// loop, and its checks, filling `rep`.
void run_paper_study(const Args& args, Report& rep);
void run_system64(const Args& args, Report& rep);
void run_served_mix(const Args& args, Report& rep);

/// Common set-up: size the thread pool to flow_threads() and spin it up,
/// build the technology library.
void setup_flow_process();

/// Untimed flows run before the window. A new process runs its first few
/// flows slower than later ones while its heap grows to its working size,
/// by an amount that varies with the host; a long-lived process such as
/// giad pays that once, not per request.
void warm_up(const std::vector<std::pair<gia::tech::TechnologyKind, gia::core::FlowOptions>>& flows);

/// The child side of a set-up probe: set up `args.workload` as its run
/// would, signal readiness with one byte on stdout, tear down.
void setup_probe(const Args& args);
/// Set-up probes per run. One probe takes a few milliseconds, so many
/// probes cost little and steady their median.
constexpr int kSetupProbes = 61;
/// Spawn this binary as a set-up probe kSetupProbes times and report the
/// median time from spawn to readiness as setup_s (untraced runs only).
void measure_setup(const Args& args, Report& rep);

}  // namespace perfbench
