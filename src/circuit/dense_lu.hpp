#pragma once

#include <cmath>
#include <complex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/instrument.hpp"

/// \file dense_lu.hpp
/// Dense LU factorization with partial pivoting, templated on the scalar so
/// the same code serves real (DC/transient) and complex (AC) MNA systems.
/// Circuits in this toolkit are a few hundred unknowns, where dense LU beats
/// sparse bookkeeping comfortably.

namespace gia::circuit {

template <typename T>
struct abs_of {
  static double get(const T& v) { return std::abs(v); }
};

/// Is `v` (or one of its components) zero, of either sign?
inline bool has_zero_part(double v) { return v == 0.0; }
inline bool has_zero_part(const std::complex<double>& v) {
  return v.real() == 0.0 || v.imag() == 0.0;
}

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  explicit DenseMatrix(int n) : n_(n), a_(static_cast<std::size_t>(n) * n, T{}) {}

  int size() const { return n_; }
  T& at(int r, int c) { return a_[static_cast<std::size_t>(r) * n_ + c]; }
  const T& at(int r, int c) const { return a_[static_cast<std::size_t>(r) * n_ + c]; }
  /// Contiguous row base pointer -- lets the LU inner loops index as row[c]
  /// instead of recomputing r * n + c per element.
  T* row(int r) { return a_.data() + static_cast<std::size_t>(r) * n_; }
  const T* row(int r) const { return a_.data() + static_cast<std::size_t>(r) * n_; }
  void add(int r, int c, T v) { at(r, c) += v; }
  void clear() { a_.assign(a_.size(), T{}); }

 private:
  int n_ = 0;
  std::vector<T> a_;
};

/// LU factorization (in place, partial pivoting). Throws on a singular
/// matrix -- in MNA terms, a floating node or a source loop.
template <typename T>
class LuFactor {
 public:
  explicit LuFactor(DenseMatrix<T> m) : lu_(std::move(m)), piv_(static_cast<std::size_t>(lu_.size())) {
    core::instrument::counter_add(core::instrument::Counter::LuFactorizations);
    factor();
  }

  /// Solve A x = b; returns x.
  std::vector<T> solve(const std::vector<T>& b) const {
    std::vector<T> x;
    solve_into(b, x);
    return x;
  }

  /// Solve A x = b into the caller's `x` (resized to n, so a reused buffer
  /// allocates nothing). `x` must not alias `b`. Bitwise equal to `solve`.
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const {
    core::instrument::counter_add(core::instrument::Counter::LuSolves);
    const int n = lu_.size();
    if (static_cast<int>(b.size()) != n) throw std::invalid_argument("rhs size mismatch");
    x.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(piv_[static_cast<std::size_t>(i)])];
    // Forward substitution (L has unit diagonal).
    for (int i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] =
          substitute(i, x, row_runs_[static_cast<std::size_t>(i)], u_runs_[static_cast<std::size_t>(i)], 0, i);
    }
    // Back substitution, multiplying by the reciprocal pivots cached at
    // factor time instead of dividing per row.
    for (int i = n - 1; i >= 0; --i) {
      x[static_cast<std::size_t>(i)] =
          substitute(i, x, u_runs_[static_cast<std::size_t>(i)], row_runs_[static_cast<std::size_t>(i) + 1], i + 1, n) *
          inv_diag_[static_cast<std::size_t>(i)];
    }
  }

 private:
  /// x[i] minus row i's products with x over columns [lo, hi), in ascending
  /// column order, visiting only the nonzero runs runs_[r0, r1) recorded at
  /// factor time (MNA ladders are banded, so most of a row is skipped). A
  /// skipped entry is an exact zero: for finite x its product is +-0, which
  /// leaves every accumulator's value unchanged and can flip only the sign
  /// of a zero one. So only a zero result may differ from the full sum, and
  /// a zero result is recomputed over every column.
  T substitute(int i, const std::vector<T>& x, int r0, int r1, int lo, int hi) const {
    const T* ri = lu_.row(i);
    T acc = x[static_cast<std::size_t>(i)];
    for (int r = r0; r < r1; ++r) {
      const auto [j0, j1] = runs_[static_cast<std::size_t>(r)];
      for (int j = j0; j < j1; ++j) acc -= ri[j] * x[static_cast<std::size_t>(j)];
    }
    if (has_zero_part(acc)) {
      acc = x[static_cast<std::size_t>(i)];
      for (int j = lo; j < hi; ++j) acc -= ri[j] * x[static_cast<std::size_t>(j)];
    }
    return acc;
  }

  void factor() {
    const int n = lu_.size();
    inv_diag_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) piv_[static_cast<std::size_t>(i)] = i;
    for (int k = 0; k < n; ++k) {
      // Pivot: largest magnitude in column k.
      int p = k;
      double best = abs_of<T>::get(lu_.at(k, k));
      for (int r = k + 1; r < n; ++r) {
        const double v = abs_of<T>::get(lu_.at(r, k));
        if (v > best) { best = v; p = r; }
      }
      if (best < 1e-300) throw std::runtime_error("singular MNA matrix (floating node?)");
      if (p != k) {
        T* rk = lu_.row(k);
        T* rp = lu_.row(p);
        for (int c = 0; c < n; ++c) std::swap(rk[c], rp[c]);
        std::swap(piv_[static_cast<std::size_t>(k)], piv_[static_cast<std::size_t>(p)]);
      }
      const T* rk = lu_.row(k);
      // U(k, k) is final after this step, so its reciprocal serves both the
      // elimination below and later solves.
      const T inv_piv = T{1} / rk[k];
      inv_diag_[static_cast<std::size_t>(k)] = inv_piv;
      for (int r = k + 1; r < n; ++r) {
        T* rr = lu_.row(r);
        const T m = rr[k] * inv_piv;
        rr[k] = m;
        for (int c = k + 1; c < n; ++c) rr[c] -= m * rk[c];
      }
    }
    // Nonzero runs of each row: the L part (columns < i), then the U part.
    row_runs_.resize(static_cast<std::size_t>(n) + 1);
    u_runs_.resize(static_cast<std::size_t>(n));
    runs_.clear();
    auto add_runs = [&](const T* r, int lo, int hi) {
      for (int j = lo; j < hi;) {
        while (j < hi && r[j] == T{}) ++j;
        const int start = j;
        while (j < hi && r[j] != T{}) ++j;
        if (j > start) runs_.push_back({start, j});
      }
    };
    for (int i = 0; i < n; ++i) {
      row_runs_[static_cast<std::size_t>(i)] = static_cast<int>(runs_.size());
      add_runs(lu_.row(i), 0, i);
      u_runs_[static_cast<std::size_t>(i)] = static_cast<int>(runs_.size());
      add_runs(lu_.row(i), i + 1, n);
    }
    row_runs_[static_cast<std::size_t>(n)] = static_cast<int>(runs_.size());
  }

  DenseMatrix<T> lu_;
  std::vector<int> piv_;
  std::vector<T> inv_diag_;  ///< 1 / U(i, i), cached during factor()
  std::vector<std::pair<int, int>> runs_;  ///< [first, last + 1) column of each nonzero run
  std::vector<int> row_runs_;  ///< row i's runs are runs_[row_runs_[i], row_runs_[i + 1])
  std::vector<int> u_runs_;    ///< ... of which runs_[u_runs_[i], row_runs_[i + 1]) are in U
};

using RealMatrix = DenseMatrix<double>;
using ComplexMatrix = DenseMatrix<std::complex<double>>;

}  // namespace gia::circuit
