#pragma once

#include <vector>

#include "thermal/mesh.hpp"

/// \file solver.hpp
/// Steady-state and transient finite-volume conduction with convective
/// boundaries. Voxel-to-voxel conductances use series (harmonic)
/// combination of the half-cell resistances, so layered stacks with 100x
/// conductivity contrast (glass vs silicon) behave correctly.
///
/// The steady state is solved by geometric multigrid V-cycles
/// (multigrid.cpp): red-black z-line smoothing (exact vertical-column
/// solves), lateral semi-coarsening of any extent from 1x1 up with
/// full-weighting restriction and bilinear prolongation, and a dense LU on
/// the coarsest level. It is the only steady-state solver; every mesh and
/// every flow takes the same path.

namespace gia::thermal {

struct ThermalField {
  int nx = 0, ny = 0;
  std::vector<geometry::Grid<double>> t_c;  ///< per z-layer temperatures [C]
  double max_c = 0;
  int iterations = 0;
  bool converged = false;

  double at(int layer, int x, int y) const { return t_c[static_cast<std::size_t>(layer)].at(x, y); }
};

/// Steady-state temperatures. `iterations` counts V-cycles; `converged`
/// is false when the cycle cap was reached before the update tolerance.
ThermalField solve_steady_state(const ThermalMesh& mesh);

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
                                       const ThermalProbe& probe);

}  // namespace gia::thermal
