#include "thermal/analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace gia::thermal {

double ThermalReport::hotspot(const std::string& die) const {
  const auto it = dies.find(die);
  if (it == dies.end()) throw std::out_of_range("no die " + die);
  return it->second.hotspot_c;
}

ThermalReport analyze(const interposer::InterposerDesign& design, const ThermalMesh& mesh,
                      const ThermalField& field) {
  ThermalReport out;
  out.ambient_c = mesh.ambient_c;

  // Die hotspots: max/mean over the die's lateral footprint in the layers
  // that hold silicon for that die. Layer names encode the role.
  for (const auto& die : design.floorplan.dies) {
    DieThermal dt;
    dt.die = die.name;
    double sum = 0;
    int cnt = 0;
    for (std::size_t z = 0; z < mesh.layers.size(); ++z) {
      const auto& name = mesh.layers[z].name;
      const bool embedded_layer = name.rfind("core_", 0) == 0 && name != "core_daf";
      const bool top_die_layer = name.rfind("die", 0) == 0;
      if (!(die.embedded ? embedded_layer : top_die_layer)) continue;
      const int x0 = mesh.cell_x(die.outline.lx), x1 = mesh.cell_x(die.outline.ux - 1e-9);
      const int y0 = mesh.cell_y(die.outline.ly), y1 = mesh.cell_y(die.outline.uy - 1e-9);
      for (int y = y0; y <= y1; ++y) {
        for (int x = x0; x <= x1; ++x) {
          const double t = field.at(static_cast<int>(z), x, y);
          dt.hotspot_c = std::max(dt.hotspot_c, t);
          sum += t;
          ++cnt;
        }
      }
    }
    dt.average_c = cnt > 0 ? sum / cnt : mesh.ambient_c;
    out.dies[die.name] = dt;
  }

  // Interposer-level map: the substrate body (where glass-vs-silicon
  // spreading differs, Fig 18), the embedded-core layer for Glass 3D, or
  // the base die for the TSV stack.
  int ip_layer = -1;
  for (std::size_t z = 0; z < mesh.layers.size(); ++z) {
    const auto& name = mesh.layers[z].name;
    if (name == "substrate" || name == "core_die" || name == "die0") {
      ip_layer = static_cast<int>(z);
    }
  }
  if (ip_layer < 0) ip_layer = static_cast<int>(mesh.layers.size()) - 1;
  // Statistics over the interposer outline only (the board margin would
  // dilute the spread metric differently per technology).
  const auto& t = field.t_c[static_cast<std::size_t>(ip_layer)];
  const auto& outline = design.floorplan.outline;
  const int x0 = mesh.cell_x(outline.lx), x1 = mesh.cell_x(outline.ux - 1e-9);
  const int y0 = mesh.cell_y(outline.ly), y1 = mesh.cell_y(outline.uy - 1e-9);
  double hot = mesh.ambient_c;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) hot = std::max(hot, t.at(x, y));
  }
  out.interposer_hotspot_c = hot;
  double rise_sum = 0;
  int total = 0;
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      rise_sum += t.at(x, y) - mesh.ambient_c;
      ++total;
    }
  }
  const double peak_rise = hot - mesh.ambient_c;
  out.hotspot_spread =
      (total > 0 && peak_rise > 1e-9) ? (rise_sum / total) / peak_rise : 0.0;
  return out;
}

ThermalReport run_thermal(const interposer::InterposerDesign& design,
                          const MeshOptions& mesh_opts) {
  const auto mesh = build_thermal_mesh(design, mesh_opts);
  const auto field = solve_steady_state(mesh);
  return analyze(design, mesh, field);
}

}  // namespace gia::thermal
