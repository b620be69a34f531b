#pragma once

#include <vector>

#include "thermal/mesh.hpp"

/// \file solver.hpp
/// Steady-state finite-volume conduction solver with convective boundaries.
/// Voxel-to-voxel conductances use series (harmonic) combination of the
/// half-cell resistances, so layered stacks with 100x conductivity contrast
/// (glass vs silicon) behave correctly.
///
/// Two steady-state methods share the discretization:
///  * fixed-sweep red-black SOR -- the small-mesh reference, byte-stable;
///  * geometric multigrid V-cycles (multigrid.cpp) -- red-black z-line
///    smoothing (exact vertical-column solves), lateral semi-coarsening
///    with full-weighting restriction and bilinear prolongation, for
///    production-scale meshes where SOR's O(N) sweep count becomes the
///    wall.
/// `SolverOptions::method` picks explicitly; `Auto` consults the
/// process-wide solver backend (core/solver_backend.hpp), which keeps
/// the default 48x48 flow mesh on SOR so flow output stays byte-identical.
/// Meshes whose extents cannot halve (odd, or below the coarsening floor)
/// always fall back to SOR.

namespace gia::thermal {

struct SolverOptions {
  double sor_omega = 1.9;
  int max_iters = 15000;
  double tol_k = 5e-5;  ///< max temperature update per sweep / V-cycle [K]

  enum class Method { Auto, Sor, Multigrid };
  Method method = Method::Auto;

  int mg_pre_smooth = 2;   ///< red-black z-line sweeps before coarse correction
  int mg_post_smooth = 2;  ///< sweeps after prolongation
  /// Stop coarsening when an extent would drop below this. The coarsest
  /// level is solved exactly (dense LU, factored once) -- essential because
  /// the weak convective films leave a near-singular global mode that
  /// smoothing alone cannot resolve -- so the floor is kept low to make
  /// that factorization trivially small.
  int mg_min_extent = 4;
};

struct ThermalField {
  int nx = 0, ny = 0;
  std::vector<geometry::Grid<double>> t_c;  ///< per z-layer temperatures [C]
  double max_c = 0;
  int iterations = 0;
  bool converged = false;

  double at(int layer, int x, int y) const { return t_c[static_cast<std::size_t>(layer)].at(x, y); }
};

ThermalField solve_steady_state(const ThermalMesh& mesh, const SolverOptions& opts = {});

/// The two concrete methods behind solve_steady_state, exposed for direct
/// comparison (tests, benches). `iterations` counts SOR sweeps for the
/// former and V-cycles for the latter. solve_steady_state_multigrid falls
/// back to SOR when the mesh cannot coarsen at least once.
ThermalField solve_steady_state_sor(const ThermalMesh& mesh, const SolverOptions& opts = {});
ThermalField solve_steady_state_multigrid(const ThermalMesh& mesh, const SolverOptions& opts = {});

/// Transient heating from ambient with the mesh's power map applied at
/// t = 0 (explicit finite-volume stepping; the step size is chosen
/// automatically from the stability limit). Returns the temperature of the
/// probed cell over time plus the final field.
struct TransientThermalResult {
  std::vector<double> time_s;
  std::vector<double> probe_c;
  ThermalField final_field;
  /// Time for the probe to cover 63.2% of its total rise (the dominant
  /// thermal time constant).
  double tau_s = 0;
};

struct ThermalProbe {
  int layer = 0;
  int x = 0;
  int y = 0;
};

TransientThermalResult solve_transient(const ThermalMesh& mesh, double t_stop_s,
                                       const ThermalProbe& probe,
                                       const SolverOptions& opts = {});

}  // namespace gia::thermal
