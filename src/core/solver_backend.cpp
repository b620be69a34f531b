#include "core/solver_backend.hpp"

#include <atomic>

namespace gia::core {

namespace {

std::atomic<SolverBackend> g_backend{SolverBackend::Auto};

}  // namespace

SolverBackend solver_backend() noexcept { return g_backend.load(std::memory_order_relaxed); }

void set_solver_backend(SolverBackend b) noexcept {
  g_backend.store(b, std::memory_order_relaxed);
}

bool use_sparse_mna(int unknowns) noexcept {
  switch (solver_backend()) {
    case SolverBackend::Dense: return false;
    case SolverBackend::Sparse: return true;
    case SolverBackend::Auto: break;
  }
  return unknowns >= kSparseAutoUnknowns;
}

bool use_multigrid(int nx, int ny) noexcept {
  // Cell-centered 2x coarsening needs even extents; odd meshes stay on SOR
  // whatever the backend says.
  if (nx % 2 != 0 || ny % 2 != 0) return false;
  switch (solver_backend()) {
    case SolverBackend::Dense: return false;
    case SolverBackend::Sparse: return true;
    case SolverBackend::Auto: break;
  }
  return nx >= kMultigridAutoExtent && ny >= kMultigridAutoExtent;
}

}  // namespace gia::core
