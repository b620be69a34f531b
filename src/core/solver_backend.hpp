#pragma once

/// \file solver_backend.hpp
/// Process-wide linear-solver backend selection for the circuit MNA
/// engines (dense LU vs sparse CSR + Krylov).
///
/// The default backend is `Auto`: each system picks its path from its own
/// size (`use_sparse_mna`), so a result depends only on its inputs. Below
/// the threshold here the dense path serves every system, keeping default
/// flow runs byte-identical to the pre-sparse code. `set_solver_backend`
/// forces one path process-wide (solver tests and the solver-scaling bench
/// compare them on the same problem).

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

/// Should an MNA system of `unknowns` unknowns use the sparse path?
bool use_sparse_mna(int unknowns) noexcept;

}  // namespace gia::core
