#pragma once

/// \file solver_backend.hpp
/// Process-wide linear-solver backend selection, shared by the circuit MNA
/// engines (dense LU vs sparse CSR + Krylov) and the thermal steady-state
/// solver (fixed-sweep SOR vs geometric multigrid).
///
/// The default backend is `Auto`: each problem picks its path from its own
/// size (`use_sparse_mna`, `use_multigrid`), so a result depends only on its
/// inputs. Below the thresholds here the dense path serves every problem,
/// keeping default flow runs byte-identical to the pre-sparse code.
/// `set_solver_backend` forces one path process-wide (solver tests and the
/// solver-scaling bench compare them on the same problem).

namespace gia::core {

enum class SolverBackend { Dense, Sparse, Auto };

/// The selected backend (`Auto` unless `set_solver_backend` forced one).
SolverBackend solver_backend() noexcept;

/// Force the backend (tests and benches).
void set_solver_backend(SolverBackend b) noexcept;

/// Unknown count at which `auto` hands an MNA system to the sparse Krylov
/// path. Flow circuits are a few hundred unknowns where dense LU wins;
/// production-scale PDN meshes are 10-100x past this.
inline constexpr int kSparseAutoUnknowns = 512;

/// Lateral mesh extent at which `auto` hands the thermal steady solve to
/// multigrid. The default flow mesh is 48x48 and stays on SOR.
inline constexpr int kMultigridAutoExtent = 96;

/// Should an MNA system of `unknowns` unknowns use the sparse path?
bool use_sparse_mna(int unknowns) noexcept;

/// Should an nx-by-ny thermal mesh use multigrid? Requires both extents
/// even (cell-centered 2x coarsening) regardless of backend.
bool use_multigrid(int nx, int ny) noexcept;

}  // namespace gia::core
