#pragma once

#include <map>
#include <string>

#include "thermal/solver.hpp"

/// \file analysis.hpp
/// Post-processing of a solved thermal field into the paper's reported
/// quantities: per-die hotspots (Fig 17), interposer-level hotspot maps and
/// their concentration statistics (Fig 18).

namespace gia::thermal {

struct DieThermal {
  std::string die;
  double hotspot_c = 0;
  double average_c = 0;
};

struct ThermalReport {
  std::map<std::string, DieThermal> dies;  ///< by die name
  double interposer_hotspot_c = 0;
  double ambient_c = 22.0;
  /// Spatial uniformity of the interposer temperature rise: average rise
  /// over peak rise across the substrate. Near 1 means the substrate is
  /// nearly isothermal (silicon, Fig 18's merged hotspots); low values mean
  /// heat stays concentrated under the chiplets (glass).
  double hotspot_spread = 0;

  double hotspot(const std::string& die) const;
};

/// Analyze a solved field for the design that produced the mesh.
ThermalReport analyze(const interposer::InterposerDesign& design, const ThermalMesh& mesh,
                      const ThermalField& field);

/// Convenience: mesh + solve + analyze.
ThermalReport run_thermal(const interposer::InterposerDesign& design,
                          const MeshOptions& mesh_opts = {});

}  // namespace gia::thermal
