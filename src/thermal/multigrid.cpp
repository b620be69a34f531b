#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "circuit/dense_lu.hpp"
#include "core/instrument.hpp"
#include "core/parallel.hpp"
#include "thermal/solver.hpp"

/// \file multigrid.cpp
/// Geometric multigrid for the steady-state conduction problem -- the only
/// steady-state solver. The solve runs in excess temperature
/// theta = T - ambient, which makes every convective film a homogeneous
/// boundary (the film conductance lands on the diagonal, the ambient source
/// term vanishes) -- exactly what the coarse-grid error equation A e = r
/// needs, since errors have no ambient offset.
///
/// Coarsening is lateral only (up to 2x2 cell agglomeration per z-layer):
/// the z-stack is a handful of strongly-coupled thin layers, the textbook
/// semi-coarsening configuration -- keep the strong direction fine, coarsen
/// the weak ones, and smooth with z-lines (each vertical column solved
/// exactly by the Thomas algorithm, red-black over the lateral parity).
/// Each lateral axis longer than kMinExtent coarsens to ceil(n/2) cells; an
/// odd extent leaves a one-wide last aggregate, so every mesh from 1x1 up
/// coarsens down to a dense coarsest level of at most kMinExtent^2 columns.
/// Coarse operators are built from the fine CONDUCTANCES, not from averaged
/// conductivities: a coarse lateral link is the parallel sum, over the fine
/// rows crossing the coarse interface, of the crossing link scaled to the
/// coarse centre distance, and coarse z-links and boundary-film
/// conductances are plain sums over the aggregate. This resistor-network
/// renormalization is what keeps the V-cycle rate mesh-independent here:
/// the stack mixes copper, silicon and glass with ~100x conductivity
/// contrast, and a rediscretized operator on arithmetically averaged k
/// overestimates lateral coupling across material interfaces so badly that
/// the coarse-grid correction stalls (measured ~0.8/cycle at 96x96 vs ~0.2
/// with conductance coarsening).
/// Restriction sums the fine residuals of an aggregate into their coarse
/// parent (full weighting in the finite-volume sense: watts add), and
/// prolongation is cell-centered bilinear with clamped edges. Smoother
/// columns of one color only read frozen opposite-color neighbors, so every
/// level is parallel over mesh rows with byte-identical results at any
/// thread count.

namespace gia::thermal {

namespace instrument = core::instrument;

namespace {

/// Converged when a whole V-cycle moves no cell by more than this [K].
constexpr double kTolK = 5e-5;
/// Non-convergence cap; a healthy solve takes 6-15 cycles at any mesh size.
constexpr int kMaxVcycles = 150;
/// Red-black z-line sweeps before the coarse correction and after it.
constexpr int kPreSmooth = 2;
constexpr int kPostSmooth = 2;
/// A lateral axis stops coarsening at this extent. The coarsest level is
/// solved exactly (dense LU, factored once) -- essential because the weak
/// convective films leave a near-singular global mode that smoothing alone
/// cannot resolve -- so the floor keeps that factorization tiny.
constexpr int kMinExtent = 2;

/// Series conductance [W/K] between two voxel centers through half-cells of
/// conductivity ka, kb with face area `area` and center distances da, db
/// (all SI). Mirrors solver.cpp so steady and transient share one
/// discretization.
double series_g(double ka, double kb, double area, double da, double db) {
  const double ra = da / (ka * area);
  const double rb = db / (kb * area);
  return 1.0 / (ra + rb);
}

/// One multigrid level: the assembled 7-point operator (link conductances
/// + diagonal incl. films) and the solve vectors. Cells index as
/// (z * ny + y) * nx + x, so one z-plane has the layout of a
/// geometry::Grid.
struct Level {
  int nx = 0, ny = 0, nz = 0;
  std::vector<double> gx;    ///< link (x,y,z)-(x+1,y,z); valid for x < nx-1
  std::vector<double> gy;    ///< link to y+1; valid for y < ny-1
  std::vector<double> gz;    ///< link to z+1; valid for z < nz-1
  std::vector<double> film;  ///< boundary film conductance per cell (read once, to coarsen)
  std::vector<double> diag;  ///< sum of links + boundary films
  std::vector<double> rhs;   ///< power [W] (fine) / restricted residual
  std::vector<double> u;     ///< theta [K]

  std::size_t idx(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny + y) * nx + x;
  }
  std::size_t cells() const {
    return static_cast<std::size_t>(nx) * ny * nz;
  }
  /// rhs - A u at one cell.
  double residual_at(int x, int y, int z) const {
    const std::size_t i = idx(x, y, z);
    const std::size_t row = static_cast<std::size_t>(nx);
    const std::size_t plane = row * ny;
    double acc = diag[i] * u[i];
    if (x + 1 < nx) acc -= gx[i] * u[i + 1];
    if (x > 0) acc -= gx[i - 1] * u[i - 1];
    if (y + 1 < ny) acc -= gy[i] * u[i + row];
    if (y > 0) acc -= gy[i - row] * u[i - row];
    if (z + 1 < nz) acc -= gz[i] * u[i + plane];
    if (z > 0) acc -= gz[i - plane] * u[i - plane];
    return rhs[i] - acc;
  }
};

/// Coarsening ratio along one lateral axis between a level of `fine_n`
/// cells and the next coarser one of `coarse_n`: 2, or 1 once the axis has
/// reached kMinExtent.
int ratio(int fine_n, int coarse_n) { return coarse_n < fine_n ? 2 : 1; }

/// Fine cells in coarse aggregate `i` along one axis: the ratio, or one for
/// the ragged last aggregate of an odd extent.
int width(int i, int r, int fine_n) { return std::min(r, fine_n - r * i); }

void alloc_solve_arrays(Level& L) {
  const std::size_t n = L.cells();
  L.gx.assign(n, 0.0);
  L.gy.assign(n, 0.0);
  L.gz.assign(n, 0.0);
  L.film.assign(n, 0.0);
  L.diag.assign(n, 0.0);
  L.rhs.assign(n, 0.0);
  L.u.assign(n, 0.0);
}

/// diag = sum of incident link conductances + the cell's boundary films.
void build_diag(Level& L) {
  const std::size_t plane = static_cast<std::size_t>(L.nx) * L.ny;
  for (int z = 0; z < L.nz; ++z) {
    for (int y = 0; y < L.ny; ++y) {
      for (int x = 0; x < L.nx; ++x) {
        const std::size_t i = L.idx(x, y, z);
        double d = L.film[i];
        if (x + 1 < L.nx) d += L.gx[i];
        if (x > 0) d += L.gx[i - 1];
        if (y + 1 < L.ny) d += L.gy[i];
        if (y > 0) d += L.gy[i - static_cast<std::size_t>(L.nx)];
        if (z + 1 < L.nz) d += L.gz[i];
        if (z > 0) d += L.gz[i - plane];
        L.diag[i] = d;
      }
    }
  }
}

/// Assemble the finest-level operator straight from the mesh geometry and
/// per-cell conductivities; the power map becomes the right-hand side.
void assemble_fine(Level& L, const ThermalMesh& mesh) {
  alloc_solve_arrays(L);
  const double w = mesh.cell_w_um * 1e-6;
  const double h = mesh.cell_h_um * 1e-6;
  auto dz = [&mesh](int z) { return mesh.layers[static_cast<std::size_t>(z)].thickness_um * 1e-6; };
  auto k_at = [&mesh](int z, int x, int y) {
    return mesh.layers[static_cast<std::size_t>(z)].k.at(x, y);
  };
  for (int z = 0; z < L.nz; ++z) {
    const double a_x = h * dz(z);
    const double a_y = w * dz(z);
    const double a_z = w * h;
    const auto& power = mesh.layers[static_cast<std::size_t>(z)].power.data();
    std::copy(power.begin(), power.end(), L.rhs.begin() + static_cast<std::ptrdiff_t>(L.idx(0, 0, z)));
    for (int y = 0; y < L.ny; ++y) {
      for (int x = 0; x < L.nx; ++x) {
        const std::size_t i = L.idx(x, y, z);
        const double k_c = k_at(z, x, y);
        if (x + 1 < L.nx) L.gx[i] = series_g(k_c, k_at(z, x + 1, y), a_x, w / 2, w / 2);
        if (y + 1 < L.ny) L.gy[i] = series_g(k_c, k_at(z, x, y + 1), a_y, h / 2, h / 2);
        if (z + 1 < L.nz) {
          L.gz[i] = series_g(k_c, k_at(z + 1, x, y), a_z, dz(z) / 2, dz(z + 1) / 2);
        }
        // Boundary films: side convection at the lateral rim, top/bottom
        // films on the outer layers (half-cell conduction in series with
        // the film).
        double f = 0.0;
        if (x == 0) f += 1.0 / (w / 2 / (k_c * a_x) + 1.0 / (mesh.h_side * a_x));
        if (x + 1 == L.nx) f += 1.0 / (w / 2 / (k_c * a_x) + 1.0 / (mesh.h_side * a_x));
        if (y == 0) f += 1.0 / (h / 2 / (k_c * a_y) + 1.0 / (mesh.h_side * a_y));
        if (y + 1 == L.ny) f += 1.0 / (h / 2 / (k_c * a_y) + 1.0 / (mesh.h_side * a_y));
        if (z + 1 == L.nz) f += 1.0 / (dz(z) / 2 / (k_c * a_z) + 1.0 / (mesh.h_top * a_z));
        if (z == 0) f += 1.0 / (dz(0) / 2 / (k_c * a_z) + 1.0 / (mesh.h_bottom * a_z));
        L.film[i] = f;
      }
    }
  }
  build_diag(L);
}

/// Coarsen the OPERATOR, not the material map: every coarse conductance is
/// a series/parallel reduction of fine conductances, so material interfaces
/// keep their fine-grid bottlenecks (harmonic behaviour) no matter where
/// they land relative to the coarse grid.
///  * lateral link: the sum of the fine links crossing the coarse
///    interface, times fine over coarse centre distance (1/2 between two
///    full 2-wide aggregates, 2/3 next to a ragged 1-wide one, 1 along an
///    axis that no longer coarsens) -- the crossing links already hold the
///    harmonic (series) combination of the two material half-cells at the
///    interface. For uniform k this is exactly the rediscretized value; for
///    jumps it errs on the stiff side (it drops the aggregate-internal
///    resistance), which UNDERcorrects -- the stable direction. Adding that
///    internal resistance in series was tried and over-softens the coarse
///    operator enough that the correction overshoots and the cycle
///    diverges.
///  * z link and boundary film: the fine values of the aggregate add
///    (areas add).
void coarsen_operator(const Level& f, Level& c) {
  alloc_solve_arrays(c);
  const int rx = ratio(f.nx, c.nx), ry = ratio(f.ny, c.ny);
  for (int z = 0; z < c.nz; ++z) {
    for (int y = 0; y < c.ny; ++y) {
      const int y0 = ry * y, y1 = y0 + width(y, ry, f.ny);
      for (int x = 0; x < c.nx; ++x) {
        const int x0 = rx * x, x1 = x0 + width(x, rx, f.nx);
        const std::size_t i = c.idx(x, y, z);
        for (int fy = y0; fy < y1; ++fy) {
          for (int fx = x0; fx < x1; ++fx) {
            c.gz[i] += f.gz[f.idx(fx, fy, z)];
            c.film[i] += f.film[f.idx(fx, fy, z)];
          }
        }
        if (x + 1 < c.nx) {
          double g = 0;
          for (int fy = y0; fy < y1; ++fy) g += f.gx[f.idx(x1 - 1, fy, z)];
          c.gx[i] = g * 2.0 / (x1 - x0 + width(x + 1, rx, f.nx));
        }
        if (y + 1 < c.ny) {
          double g = 0;
          for (int fx = x0; fx < x1; ++fx) g += f.gy[f.idx(fx, y1 - 1, z)];
          c.gy[i] = g * 2.0 / (y1 - y0 + width(y + 1, ry, f.ny));
        }
      }
    }
  }
  build_diag(c);
}

/// One red-black z-line Gauss-Seidel sweep (both colors). The z-stack is a
/// handful of thin, strongly-coupled layers -- the stiff direction that a
/// point smoother relaxes poorly and that lateral semicoarsening leaves
/// uncoarsened -- so each vertical column is solved exactly (Thomas) with
/// its lateral neighbors frozen. Columns are colored by (x + y) parity:
/// every lateral neighbor is the opposite color, so the row-parallel sweep
/// is byte-identical at any thread count.
void smooth(Level& L) {
  const std::size_t plane = static_cast<std::size_t>(L.nx) * L.ny;
  for (int color = 0; color < 2; ++color) {
    core::parallel_for(static_cast<std::size_t>(L.ny), [&L, color, plane](std::size_t yy) {
      const int y = static_cast<int>(yy);
      // Thomas scratch: modified upper diagonal and rhs per column.
      std::vector<double> cp(static_cast<std::size_t>(L.nz));
      std::vector<double> dp(static_cast<std::size_t>(L.nz));
      for (int x = (color + y) & 1; x < L.nx; x += 2) {
        // Column rhs: power/restricted residual + frozen lateral inflow.
        for (int z = 0; z < L.nz; ++z) {
          const std::size_t i = L.idx(x, y, z);
          double acc = L.rhs[i];
          if (x + 1 < L.nx) acc += L.gx[i] * L.u[i + 1];
          if (x > 0) acc += L.gx[i - 1] * L.u[i - 1];
          if (y + 1 < L.ny) acc += L.gy[i] * L.u[i + static_cast<std::size_t>(L.nx)];
          if (y > 0) acc += L.gy[i - static_cast<std::size_t>(L.nx)] * L.u[i - static_cast<std::size_t>(L.nx)];
          dp[static_cast<std::size_t>(z)] = acc;
        }
        // Tridiagonal solve over z: diag on the main diagonal, -gz off it.
        {
          const std::size_t i0 = L.idx(x, y, 0);
          const double inv = 1.0 / L.diag[i0];
          cp[0] = (L.nz > 1 ? -L.gz[i0] : 0.0) * inv;
          dp[0] *= inv;
        }
        for (int z = 1; z < L.nz; ++z) {
          const std::size_t i = L.idx(x, y, z);
          const double lower = -L.gz[i - plane];
          const double inv = 1.0 / (L.diag[i] - lower * cp[static_cast<std::size_t>(z - 1)]);
          cp[static_cast<std::size_t>(z)] = (z + 1 < L.nz ? -L.gz[i] : 0.0) * inv;
          dp[static_cast<std::size_t>(z)] =
              (dp[static_cast<std::size_t>(z)] - lower * dp[static_cast<std::size_t>(z - 1)]) * inv;
        }
        L.u[L.idx(x, y, L.nz - 1)] = dp[static_cast<std::size_t>(L.nz - 1)];
        for (int z = L.nz - 2; z >= 0; --z) {
          L.u[L.idx(x, y, z)] = dp[static_cast<std::size_t>(z)] -
                                cp[static_cast<std::size_t>(z)] * L.u[L.idx(x, y, z + 1)];
        }
      }
    });
  }
}

/// Full-weighting restriction (finite-volume): each coarse cell's RHS is
/// the sum of its fine children's residuals -- watts add under
/// agglomeration. The residual is formed on the fly, so no level stores it.
void restrict_residual(const Level& fine, Level& coarse) {
  const int rx = ratio(fine.nx, coarse.nx), ry = ratio(fine.ny, coarse.ny);
  const std::size_t n_rows = static_cast<std::size_t>(coarse.nz) * coarse.ny;
  core::parallel_for(n_rows, [&](std::size_t r) {
    const int z = static_cast<int>(r) / coarse.ny;
    const int y = static_cast<int>(r) % coarse.ny;
    const int y0 = ry * y, y1 = y0 + width(y, ry, fine.ny);
    for (int x = 0; x < coarse.nx; ++x) {
      const int x0 = rx * x, x1 = x0 + width(x, rx, fine.nx);
      double acc = 0;
      for (int fy = y0; fy < y1; ++fy) {
        for (int fx = x0; fx < x1; ++fx) acc += fine.residual_at(fx, fy, z);
      }
      coarse.rhs[coarse.idx(x, y, z)] = acc;
    }
  });
}

/// Coarse neighbour that fine cell `i` leans toward along one axis: a fine
/// cell sits a quarter coarse cell off its parent's center, toward the
/// sibling side (clamped at the edges). Along an axis that no longer
/// coarsens (ratio 1) it sits on the center and leans nowhere. The lone
/// cell of a ragged last aggregate leans like any even cell: placing it on
/// its parent's center instead was tried and converged no faster.
int lean(int i, int r, int coarse_n) {
  const int c = i / r;
  if (r == 1) return c;
  return std::clamp(c + ((i & 1) ? 1 : -1), 0, coarse_n - 1);
}

/// Cell-centered bilinear prolongation with clamped edges: 9/16-3/16-3/16-
/// 1/16 weights toward the parent and the two/three nearest coarse
/// neighbors. Where a cell leans nowhere along an axis, the two weights on
/// that axis land on the same coarse cell and the interpolation is linear
/// in the other axis only.
void prolong_add(const Level& coarse, Level& fine) {
  const int rx = ratio(fine.nx, coarse.nx), ry = ratio(fine.ny, coarse.ny);
  const std::size_t n_rows = static_cast<std::size_t>(fine.nz) * fine.ny;
  core::parallel_for(n_rows, [&](std::size_t r) {
    const int z = static_cast<int>(r) / fine.ny;
    const int y = static_cast<int>(r) % fine.ny;
    const int cy = y / ry;
    const int cy2 = lean(y, ry, coarse.ny);
    for (int x = 0; x < fine.nx; ++x) {
      const int cx = x / rx;
      const int cx2 = lean(x, rx, coarse.nx);
      const double e =
          (9.0 * coarse.u[coarse.idx(cx, cy, z)] + 3.0 * coarse.u[coarse.idx(cx2, cy, z)] +
           3.0 * coarse.u[coarse.idx(cx, cy2, z)] + 1.0 * coarse.u[coarse.idx(cx2, cy2, z)]) /
          16.0;
      fine.u[fine.idx(x, y, z)] += e;
    }
  });
}

/// Exact solver for the coarsest level, a dense LU factored once. The
/// coarsest level must be solved EXACTLY: the convective films are weak
/// (tens of W/(m^2 K) on top and sides), so the operator carries a
/// near-singular quasi-constant mode that smoothing barely touches at any
/// level -- an iterative coarse "sweep block" leaves a slow ~0.85/cycle
/// tail, while an exact solve restores the mesh-independent multigrid rate.
circuit::LuFactor<double> factor_coarsest(const Level& L) {
  const int n = static_cast<int>(L.cells());
  circuit::DenseMatrix<double> A(n);
  for (int z = 0; z < L.nz; ++z) {
    for (int y = 0; y < L.ny; ++y) {
      for (int x = 0; x < L.nx; ++x) {
        const int i = static_cast<int>(L.idx(x, y, z));
        A.at(i, i) = L.diag[static_cast<std::size_t>(i)];
        auto link = [&A, i](int j, double g) {
          A.at(i, j) = -g;
          A.at(j, i) = -g;
        };
        if (x + 1 < L.nx) link(i + 1, L.gx[static_cast<std::size_t>(i)]);
        if (y + 1 < L.ny) link(i + L.nx, L.gy[static_cast<std::size_t>(i)]);
        if (z + 1 < L.nz) link(i + L.nx * L.ny, L.gz[static_cast<std::size_t>(i)]);
      }
    }
  }
  return circuit::LuFactor<double>(std::move(A));
}

void vcycle(std::vector<Level>& levels, std::size_t l, const circuit::LuFactor<double>& coarsest) {
  Level& L = levels[l];
  if (l + 1 == levels.size()) {
    L.u = coarsest.solve(L.rhs);
    return;
  }
  for (int s = 0; s < kPreSmooth; ++s) smooth(L);
  restrict_residual(L, levels[l + 1]);
  std::fill(levels[l + 1].u.begin(), levels[l + 1].u.end(), 0.0);
  vcycle(levels, l + 1, coarsest);
  prolong_add(levels[l + 1], L);
  for (int s = 0; s < kPostSmooth; ++s) smooth(L);
}

}  // namespace

ThermalField solve_steady_state(const ThermalMesh& mesh) {
  GIA_SPAN("thermal/steady_state");
  const int nx = mesh.nx, ny = mesh.ny;
  const int nz = static_cast<int>(mesh.layers.size());
  if (nx < 1 || ny < 1 || nz < 1) throw std::invalid_argument("empty mesh");

  // --- Level hierarchy: halve each lateral axis (rounding up) until both
  // reach kMinExtent. Each level's films are read only to coarsen it, so
  // they are dropped once the next level exists; the fine level's film
  // storage is reused for the convergence check's previous iterate.
  std::vector<Level> levels(1);
  levels[0].nx = nx;
  levels[0].ny = ny;
  levels[0].nz = nz;
  assemble_fine(levels[0], mesh);
  for (;;) {
    const Level& f = levels.back();
    const int cnx = f.nx > kMinExtent ? (f.nx + 1) / 2 : f.nx;
    const int cny = f.ny > kMinExtent ? (f.ny + 1) / 2 : f.ny;
    if (cnx == f.nx && cny == f.ny) break;
    Level c;
    c.nx = cnx;
    c.ny = cny;
    c.nz = nz;
    coarsen_operator(f, c);
    if (levels.size() > 1) std::vector<double>().swap(levels.back().film);
    levels.push_back(std::move(c));
  }
  const circuit::LuFactor<double> coarsest = factor_coarsest(levels.back());
  if (levels.size() > 1) std::vector<double>().swap(levels.back().film);
  std::vector<double> u_prev = std::move(levels.front().film);

  // --- V-cycle to tolerance: converged when the largest fine-grid update
  // of a whole cycle drops below kTolK (one V-cycle contracts the error by
  // a mesh-independent factor, so the last update tracks the error scale).
  Level& fine = levels.front();
  const std::size_t n_rows = static_cast<std::size_t>(nz) * ny;
  std::vector<double> row_max_du(n_rows);
  ThermalField field;
  field.nx = nx;
  field.ny = ny;
  for (int cycle = 0; cycle < kMaxVcycles; ++cycle) {
    u_prev = fine.u;
    vcycle(levels, 0, coarsest);
    core::parallel_for(n_rows, [&](std::size_t r) {
      const std::size_t base = r * static_cast<std::size_t>(nx);
      double m = 0;
      for (int x = 0; x < nx; ++x) m = std::max(m, std::abs(fine.u[base + x] - u_prev[base + x]));
      row_max_du[r] = m;
    });
    // max is exact under any accumulation order, so this reduction is
    // deterministic by construction.
    const double max_du = *std::max_element(row_max_du.begin(), row_max_du.end());
    field.iterations = cycle + 1;
    if (max_du < kTolK) {
      field.converged = true;
      break;
    }
  }

  // Release the hierarchy before the field is allocated.
  const std::vector<double> theta = std::move(fine.u);
  levels.clear();
  std::vector<double>().swap(u_prev);

  field.t_c.assign(static_cast<std::size_t>(nz), geometry::Grid<double>(nx, ny));
  for (int z = 0; z < nz; ++z) {
    auto& t = field.t_c[static_cast<std::size_t>(z)].data();
    const std::size_t base = static_cast<std::size_t>(z) * t.size();
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = mesh.ambient_c + theta[base + i];
  }
  for (const auto& layer : field.t_c) {
    for (double v : layer.data()) field.max_c = std::max(field.max_c, v);
  }
  instrument::counter_add(instrument::Counter::MgVcycles,
                          static_cast<std::uint64_t>(field.iterations));
  if (instrument::enabled()) {
    instrument::gauge_set("thermal.steady.max_c", field.max_c);
    instrument::gauge_set("thermal.steady.converged", field.converged ? 1.0 : 0.0);
  }
  return field;
}

}  // namespace gia::thermal
