/// bench_parallel_scaling: wall-clock scaling of the two heaviest parallel
/// kernels -- multigrid thermal steady state and Monte Carlo variation -- and of
/// a cold full flow (glass25d with eyes and thermal, stage cache off, so
/// stage scheduling and nested loops on the shared pool are timed) at 1, 2,
/// and 4 threads. Prints one JSON line per (kernel, thread-count) pair plus
/// a speedup summary, and cross-checks that every thread count produced
/// byte-identical output (the determinism contract of core/parallel.hpp).
/// The flow_cold lines also carry the flow's deterministic work counts
/// (router heap pops, placer moves, MNA transient steps, dense LU solves),
/// read from core/instrument over one extra untimed run per thread count,
/// so the timed runs keep tracing as the environment set it.
///
/// Note: reported speedup is bounded by the machine's core count; on a
/// single-core runner all configurations legitimately time the same.

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/instrument.hpp"
#include "core/links.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"
#include "interposer/design.hpp"
#include "signal/variation.hpp"
#include "tech/library.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

using namespace gia;

namespace {

/// Raw bytes of a metric vector, so "identical" means bit-identical.
std::string bytes_of(const std::vector<double>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double));
}

long max_rss_kb() {
  struct rusage ru;
  return getrusage(RUSAGE_SELF, &ru) == 0 ? ru.ru_maxrss : 0;
}

/// Work counters one run of `fn` adds, with counting switched on for it.
std::string work_counts(const std::function<std::string()>& fn) {
  namespace ins = core::instrument;
  const ins::Counter counted[] = {ins::Counter::RouterHeapPops, ins::Counter::PlacerMoves,
                                  ins::Counter::TransientSteps, ins::Counter::LuSolves};
  const bool was_enabled = ins::enabled();
  ins::set_enabled(true);
  std::vector<std::uint64_t> before;
  for (auto c : counted) before.push_back(ins::counter_value(c));
  (void)fn();
  std::string out;
  for (std::size_t i = 0; i < std::size(counted); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\"%s\":%" PRIu64, ins::counter_name(counted[i]),
                  ins::counter_value(counted[i]) - before[i]);
    out += buf;
  }
  ins::set_enabled(was_enabled);
  return out;
}

/// Times `fn` once per thread count and prints one JSON line each; `fn`
/// returns the bytes that must not depend on the thread count. One untimed
/// run first, so the 1-thread row does not also pay the process's first
/// heap growth. With `count_work`, each line also carries `work_counts`.
void run_scaling(const char* kernel, const std::function<std::string()>& fn,
                 bool count_work = false) {
  struct Row {
    int threads = 0;
    double wall_s = 0;
    std::string output;
    std::string work;
  };
  (void)fn();
  std::vector<Row> rows;
  for (int n : {1, 2, 4}) {
    core::set_thread_count(n);
    const auto t0 = std::chrono::steady_clock::now();
    std::string output = fn();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    rows.push_back({n, dt.count(), std::move(output), count_work ? work_counts(fn) : ""});
  }
  bool identical = true;
  for (const auto& r : rows) identical &= (r.output == rows.front().output);
  for (const auto& r : rows) {
    std::printf(
        "{\"bench\":\"bench_parallel_scaling\",\"kernel\":\"%s\",\"threads\":%d,"
        "\"wall_s\":%.6f,\"speedup\":%.3f,\"identical\":%s,\"max_rss_kb\":%ld%s}\n",
        kernel, r.threads, r.wall_s, rows.front().wall_s / r.wall_s,
        identical ? "true" : "false", max_rss_kb(), r.work.c_str());
  }
}

}  // namespace

int main() {
  // --- Thermal steady state (multigrid V-cycles) on the full Glass 2.5D stack.
  const auto design = interposer::build_interposer_design(tech::TechnologyKind::Glass25D);
  const auto mesh = thermal::build_thermal_mesh(design);
  run_scaling("thermal_steady_state", [&] {
    const auto field = thermal::solve_steady_state(mesh);
    std::vector<double> metrics{field.max_c, static_cast<double>(field.iterations)};
    for (const auto& layer : field.t_c) {
      metrics.insert(metrics.end(), layer.data().begin(), layer.data().end());
    }
    return bytes_of(metrics);
  });

  // --- Monte Carlo variation on a mid-length silicon-interposer link.
  const auto link = core::make_fixed_line_spec(
      tech::make_technology(tech::TechnologyKind::Silicon25D), 2500.0);
  signal::VariationSpec var;
  var.samples = 24;
  run_scaling("variation_monte_carlo", [&] {
    const auto res = signal::monte_carlo_delay(link, var);
    std::vector<double> metrics{res.mean_delay_s, res.sigma_delay_s, res.worst_delay_s};
    metrics.insert(metrics.end(), res.samples_s.begin(), res.samples_s.end());
    return bytes_of(metrics);
  });

  // --- Cold full flow: every stage computed, none served from the cache.
  const bool cache_was_on = core::stage::stage_cache_enabled();
  core::stage::set_stage_cache_enabled(false);
  core::FlowOptions opts;
  opts.with_eyes = true;
  opts.with_thermal = true;
  run_scaling(
      "flow_cold",
      [&] {
        return core::technology_result_to_json(
            core::run_full_flow(tech::TechnologyKind::Glass25D, opts));
      },
      /*count_work=*/true);
  core::stage::set_stage_cache_enabled(cache_was_on);

  core::set_thread_count(0);
  core::instrument::emit_report();
  return 0;
}
