#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "thermal/mesh.hpp"
#include "thermal/solver.hpp"

/// \file thermal_sor_oracle.hpp
/// Reference steady-state solver for the multigrid tests: red-black SOR
/// written straight from the finite-volume stencil, with no coarsening,
/// no operator assembly and no shared code with multigrid.cpp. Each cell's
/// conductance to a neighbour is the series combination of the two
/// half-cell resistances; rim cells lose heat through half-cell conduction
/// in series with the side/top/bottom convection film. Slow (hundreds of
/// sweeps on a 48x48 mesh) and serial -- a test oracle, not a solver.

namespace gia::thermal::testing {

inline ThermalField solve_steady_state_sor(const ThermalMesh& mesh, double omega = 1.9,
                                           int max_sweeps = 15000, double tol_k = 5e-5) {
  const int nx = mesh.nx, ny = mesh.ny;
  const int nz = static_cast<int>(mesh.layers.size());
  const double w = mesh.cell_w_um * 1e-6;
  const double h = mesh.cell_h_um * 1e-6;
  auto dz = [&](int z) { return mesh.layers[static_cast<std::size_t>(z)].thickness_um * 1e-6; };
  auto k_at = [&](int z, int x, int y) { return mesh.layers[static_cast<std::size_t>(z)].k.at(x, y); };
  // Half-cell conduction (length `half`, conductivity k) in series with a
  // second resistance r2 across face area `area`.
  auto series = [](double half, double k, double area, double r2) {
    return 1.0 / (half / (k * area) + r2);
  };

  ThermalField field;
  field.nx = nx;
  field.ny = ny;
  field.t_c.assign(static_cast<std::size_t>(nz), geometry::Grid<double>(nx, ny, mesh.ambient_c));
  auto t = [&](int z, int x, int y) -> double& {
    return field.t_c[static_cast<std::size_t>(z)].at(x, y);
  };

  for (int sweep = 1; sweep <= max_sweeps; ++sweep) {
    double max_dt = 0;
    for (int color = 0; color < 2; ++color) {
      for (int z = 0; z < nz; ++z) {
        for (int y = 0; y < ny; ++y) {
          for (int x = (color + y + z) & 1; x < nx; x += 2) {
            const double k_c = k_at(z, x, y);
            double g_sum = 0, rhs = mesh.layers[static_cast<std::size_t>(z)].power.at(x, y);
            auto link = [&](double g, double t_other) {
              g_sum += g;
              rhs += g * t_other;
            };
            const int dxs[] = {1, -1, 0, 0};
            const int dys[] = {0, 0, 1, -1};
            for (int n = 0; n < 4; ++n) {
              const int x2 = x + dxs[n], y2 = y + dys[n];
              const double area = dxs[n] != 0 ? h * dz(z) : w * dz(z);
              const double half = dxs[n] != 0 ? w / 2 : h / 2;
              if (x2 >= 0 && x2 < nx && y2 >= 0 && y2 < ny) {
                link(series(half, k_c, area, half / (k_at(z, x2, y2) * area)), t(z, x2, y2));
              } else {
                link(series(half, k_c, area, 1.0 / (mesh.h_side * area)), mesh.ambient_c);
              }
            }
            const double a_z = w * h;
            if (z + 1 < nz) {
              link(series(dz(z) / 2, k_c, a_z, dz(z + 1) / 2 / (k_at(z + 1, x, y) * a_z)),
                   t(z + 1, x, y));
            } else {
              link(series(dz(z) / 2, k_c, a_z, 1.0 / (mesh.h_top * a_z)), mesh.ambient_c);
            }
            if (z > 0) {
              link(series(dz(z) / 2, k_c, a_z, dz(z - 1) / 2 / (k_at(z - 1, x, y) * a_z)),
                   t(z - 1, x, y));
            } else {
              link(series(dz(z) / 2, k_c, a_z, 1.0 / (mesh.h_bottom * a_z)), mesh.ambient_c);
            }
            const double dt = rhs / g_sum - t(z, x, y);
            t(z, x, y) += omega * dt;
            max_dt = std::max(max_dt, std::abs(dt));
          }
        }
      }
    }
    field.iterations = sweep;
    if (max_dt < tol_k) {
      field.converged = true;
      break;
    }
  }
  for (const auto& layer : field.t_c) {
    for (double v : layer.data()) field.max_c = std::max(field.max_c, v);
  }
  return field;
}

}  // namespace gia::thermal::testing
