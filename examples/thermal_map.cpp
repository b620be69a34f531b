/// thermal_map: solve the 3D conduction problem for a design and render the
/// die-level temperature field as ASCII heat maps (the Fig 16-18 view).
///
/// Usage: thermal_map [glass3d|glass25d|si25d|si3d|shinko|apx]

#include <cstdio>
#include <cstring>

#include "interposer/design.hpp"
#include "tech/library.hpp"
#include "thermal/analysis.hpp"
#include "thermal/solver.hpp"

using namespace gia;

namespace {

tech::TechnologyKind parse(int argc, char** argv) {
  if (argc >= 2) {
    const struct { const char* n; tech::TechnologyKind k; } tbl[] = {
        {"glass25d", tech::TechnologyKind::Glass25D}, {"si25d", tech::TechnologyKind::Silicon25D},
        {"si3d", tech::TechnologyKind::Silicon3D},    {"shinko", tech::TechnologyKind::Shinko},
        {"apx", tech::TechnologyKind::APX}};
    for (const auto& e : tbl) {
      if (!std::strcmp(argv[1], e.n)) return e.k;
    }
  }
  return tech::TechnologyKind::Glass3D;
}

void render(const gia::geometry::Grid<double>& t, double lo, double hi) {
  const char* shades = " .:-=+*#@";
  for (int y = 0; y < t.ny(); y += 2) {
    std::printf("  ");
    for (int x = 0; x < t.nx(); ++x) {
      const double f = std::min(std::max((t.at(x, y) - lo) / std::max(hi - lo, 1e-9), 0.0), 0.999);
      std::printf("%c", shades[static_cast<int>(f * 9)]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto kind = parse(argc, argv);
  const auto design = interposer::build_interposer_design(kind);
  const auto mesh = thermal::build_thermal_mesh(design);
  const auto field = thermal::solve_steady_state(mesh);
  const auto rpt = thermal::analyze(design, mesh, field);

  std::printf("Thermal solve: %s (%s, %d V-cycles)\n", design.technology.name.c_str(),
              field.converged ? "converged" : "NOT converged", field.iterations);
  for (const auto& [name, dt] : rpt.dies) {
    std::printf("  %-12s hotspot %.1f C, average %.1f C\n", name.c_str(), dt.hotspot_c,
                dt.average_c);
  }
  std::printf("  interposer hotspot %.1f C, spread index %.2f (1 = isothermal)\n\n",
              rpt.interposer_hotspot_c, rpt.hotspot_spread);

  // Top-of-stack map (the view an IR camera would see).
  const auto& top = field.t_c.back();
  std::printf("Top-surface temperature map (%.1f..%.1f C):\n", mesh.ambient_c, field.max_c);
  render(top, mesh.ambient_c, field.max_c);

  std::printf("\nLayer stack (bottom to top):\n");
  for (const auto& l : mesh.layers) {
    std::printf("  %-12s %7.1f um\n", l.name.c_str(), l.thickness_um);
  }
  return 0;
}
