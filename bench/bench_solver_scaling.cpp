/// bench_solver_scaling: scaling contract of the sparse/iterative solver
/// core at production sizes.
///
///   1. MNA -- k x k resistor-grid PDN proxies (vsource corner feed, per-node
///      load to ground) at chiplet-count equivalents, solved for the DC
///      operating point with the dense LU backend and with the CSR +
///      ILU(0)-BiCGSTAB backend (core/solver_backend.hpp forced either
///      way). Contract: sparse must be >= 10x faster at the largest size.
///
///   2. Thermal -- the Glass 2.5D design meshed at 47/48/96/97/192 lateral
///      cells (odd extents included), solved steady-state by the multigrid
///      V-cycle solver. Contract: every mesh converges in at most 3 more
///      V-cycles than the default 48x48 mesh -- a deterministic work
///      counter, so the gate does not depend on the machine; wall times
///      are reported next to it.
///
/// Emits per-size wall times, speedups and iteration counts in the standard
/// bench JSON line; exits non-zero when a contract is violated so CI can
/// gate on it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/circuit.hpp"
#include "circuit/dc.hpp"
#include "core/solver_backend.hpp"
#include "interposer/design.hpp"
#include "tech/library.hpp"
#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

using namespace gia;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// k x k unit-resistor grid fed from one corner, every node loaded to
/// ground -- the resistor-network shape of an on-interposer power mesh,
/// scaled by grid extent instead of chiplet count so the unknown count is
/// exact.
circuit::Circuit make_grid_circuit(int k) {
  circuit::Circuit ckt;
  std::vector<circuit::NodeId> node(static_cast<std::size_t>(k) * k);
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      node[static_cast<std::size_t>(y) * k + x] =
          ckt.add_node("n" + std::to_string(x) + "_" + std::to_string(y));
    }
  }
  auto at = [&](int x, int y) { return node[static_cast<std::size_t>(y) * k + x]; };
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const std::string suffix = std::to_string(x) + "_" + std::to_string(y);
      if (x + 1 < k) ckt.add_resistor(at(x, y), at(x + 1, y), 0.05, "rx" + suffix);
      if (y + 1 < k) ckt.add_resistor(at(x, y), at(x, y + 1), 0.05, "ry" + suffix);
      ckt.add_resistor(at(x, y), circuit::kGround, 100.0, "rl" + suffix);
    }
  }
  ckt.add_vsource(at(0, 0), circuit::kGround, circuit::Stimulus::dc(1.0), "vdd");
  return ckt;
}

int fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "bench_solver_scaling: %s (%s)\n", what, detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  const auto t0 = Clock::now();
  std::string extra;
  int rc = 0;

  // --- MNA: dense LU vs CSR + ILU(0)-BiCGSTAB across grid sizes.
  const std::vector<int> grid_sizes = {8, 24, 48};
  double mna_speedup_largest = 0;
  std::printf("MNA DC operating point, dense LU vs sparse ILU(0)-BiCGSTAB\n");
  std::printf("%10s %10s %12s %12s %9s\n", "grid", "unknowns", "dense [s]", "sparse [s]",
              "speedup");
  for (int k : grid_sizes) {
    const auto ckt = make_grid_circuit(k);

    core::set_solver_backend(core::SolverBackend::Dense);
    auto td = Clock::now();
    const auto dense = circuit::solve_dc(ckt);
    const double dense_s = seconds_since(td);

    core::set_solver_backend(core::SolverBackend::Sparse);
    auto ts = Clock::now();
    const auto sparse = circuit::solve_dc(ckt);
    const double sparse_s = seconds_since(ts);
    core::set_solver_backend(core::SolverBackend::Auto);

    double max_dv = 0;
    for (std::size_t i = 0; i < dense.x.size(); ++i) {
      max_dv = std::max(max_dv, std::abs(dense.x[i] - sparse.x[i]));
    }
    if (max_dv > 1e-8) {
      rc = fail("dense and sparse DC solutions must agree",
                "grid=" + std::to_string(k) + " max_dv=" + std::to_string(max_dv));
    }

    const double speedup = sparse_s > 0 ? dense_s / sparse_s : 0;
    mna_speedup_largest = speedup;
    std::printf("%7dx%-2d %10d %12.4f %12.4f %8.1fx\n", k, k, ckt.unknown_count(), dense_s,
                sparse_s, speedup);
    const std::string tag = "\"mna_" + std::to_string(k) + "x" + std::to_string(k);
    extra += (extra.empty() ? "" : ",") + tag + "_dense_s\":" + std::to_string(dense_s);
    extra += "," + tag + "_sparse_s\":" + std::to_string(sparse_s);
    extra += "," + tag + "_speedup\":" + std::to_string(speedup);
  }
  if (mna_speedup_largest < 10.0) {
    rc = fail("sparse DC must be >= 10x faster than dense at the largest grid",
              "speedup=" + std::to_string(mna_speedup_largest));
  }

  // --- Thermal: multigrid V-cycles across mesh sizes, odd extents included.
  const auto design = interposer::build_interposer_design(tech::TechnologyKind::Glass25D);
  const std::vector<int> mesh_sizes = {47, 48, 96, 97, 192};
  int cycles_48 = 0, cycles_max = 0;
  std::printf("\nThermal steady state, multigrid V-cycles\n");
  std::printf("%10s %10s %12s %8s\n", "mesh", "cells", "time [s]", "cycles");
  for (int n : mesh_sizes) {
    thermal::MeshOptions mo;
    mo.nx = n;
    mo.ny = n;
    const auto mesh = thermal::build_thermal_mesh(design, mo);
    auto tm = Clock::now();
    const auto mg = thermal::solve_steady_state(mesh);
    const double mg_s = seconds_since(tm);
    if (!mg.converged) rc = fail("the thermal solve must converge", "mesh=" + std::to_string(n));
    if (n == 48) cycles_48 = mg.iterations;
    cycles_max = std::max(cycles_max, mg.iterations);

    const long cells = static_cast<long>(n) * n * static_cast<long>(mesh.layers.size());
    std::printf("%7dx%-3d %10ld %12.4f %8d\n", n, n, cells, mg_s, mg.iterations);
    const std::string tag = "\"thermal_" + std::to_string(n);
    extra += "," + tag + "_s\":" + std::to_string(mg_s);
    extra += "," + tag + "_cycles\":" + std::to_string(mg.iterations);
  }
  if (cycles_max > cycles_48 + 3) {
    rc = fail("no mesh may need more than 3 V-cycles above the 48x48 count",
              "cycles_48=" + std::to_string(cycles_48) + " max=" + std::to_string(cycles_max));
  }

  extra += ",\"mna_speedup_largest\":" + std::to_string(mna_speedup_largest);
  extra += ",\"thermal_cycles_max\":" + std::to_string(cycles_max);
  gia::bench::print_json_line(argv[0], seconds_since(t0), extra);
  core::instrument::emit_report();
  return rc;
}
