#include "numeric/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace spiv::numeric {

CMatrix::CMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

CMatrix CMatrix::identity(std::size_t n) {
  CMatrix m{n, n};
  for (std::size_t i = 0; i < n; ++i) m(i, i) = Complex{1.0, 0.0};
  return m;
}

CMatrix CMatrix::from_real(const Matrix& m) {
  CMatrix out{m.rows(), m.cols()};
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      out(i, j) = Complex{m(i, j), 0.0};
  return out;
}

CMatrix operator*(const CMatrix& a, const CMatrix& b) {
  if (a.cols_ != b.rows_)
    throw std::invalid_argument("CMatrix: shape mismatch in *");
  CMatrix out{a.rows_, b.cols_};
  for (std::size_t i = 0; i < a.rows_; ++i)
    for (std::size_t k = 0; k < a.cols_; ++k) {
      const Complex aik = a(i, k);
      if (aik == Complex{}) continue;
      for (std::size_t j = 0; j < b.cols_; ++j) out(i, j) += aik * b(k, j);
    }
  return out;
}

CMatrix& CMatrix::operator-=(const CMatrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("CMatrix: shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

CMatrix CMatrix::adjoint() const {
  CMatrix out{cols_, rows_};
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j)
      out(j, i) = std::conj((*this)(i, j));
  return out;
}

std::optional<CMatrix> CMatrix::inverse() const {
  if (rows_ != cols_)
    throw std::invalid_argument("CMatrix: inverse requires square");
  const std::size_t n = rows_;
  CMatrix m = *this;
  CMatrix inv = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(m(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(m(r, col)) > best) {
        best = std::abs(m(r, col));
        pivot = r;
      }
    }
    if (best == 0.0) return std::nullopt;
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(m(pivot, j), m(col, j));
        std::swap(inv(pivot, j), inv(col, j));
      }
    }
    const Complex ipiv = Complex{1.0, 0.0} / m(col, col);
    for (std::size_t j = 0; j < n; ++j) {
      m(col, j) *= ipiv;
      inv(col, j) *= ipiv;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const Complex f = m(r, col);
      if (f == Complex{}) continue;
      for (std::size_t j = 0; j < n; ++j) {
        m(r, j) -= f * m(col, j);
        inv(r, j) -= f * inv(col, j);
      }
    }
  }
  return inv;
}

Matrix CMatrix::real_part() const {
  Matrix out{rows_, cols_};
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(i, j) = (*this)(i, j).real();
  return out;
}

double CMatrix::frobenius_norm() const {
  double acc = 0.0;
  for (const auto& v : data_) acc += std::norm(v);
  return std::sqrt(acc);
}

namespace {

/// Unitary Givens rotation [[c, s], [-conj(s), c]] (c real) mapping
/// (f, g) -> (r, 0).
struct Givens {
  double c = 1.0;
  Complex s{};
};

Givens make_givens(Complex f, Complex g) {
  Givens out;
  const double af = std::abs(f);
  const double ag = std::abs(g);
  if (ag == 0.0) return out;
  const double denom = std::hypot(af, ag);
  if (af == 0.0) {
    out.c = 0.0;
    out.s = std::conj(g) / ag;
    return out;
  }
  out.c = af / denom;
  out.s = (f / af) * std::conj(g) / denom;
  return out;
}

/// Reduce a complex square matrix to upper Hessenberg via Householder
/// similarity, accumulating the unitary transform in u.
void hessenberg_reduce(CMatrix& h, CMatrix& u) {
  const std::size_t n = h.rows();
  if (n < 3) return;
  for (std::size_t k = 0; k + 2 < n; ++k) {
    // Householder on x = h(k+1..n-1, k).
    double xnorm = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) xnorm += std::norm(h(i, k));
    xnorm = std::sqrt(xnorm);
    if (xnorm == 0.0) continue;
    Complex x0 = h(k + 1, k);
    const Complex phase =
        std::abs(x0) == 0.0 ? Complex{1.0, 0.0} : x0 / std::abs(x0);
    const Complex alpha = -phase * xnorm;
    std::vector<Complex> v(n, Complex{});
    v[k + 1] = x0 - alpha;
    for (std::size_t i = k + 2; i < n; ++i) v[i] = h(i, k);
    double vnorm2 = 0.0;
    for (std::size_t i = k + 1; i < n; ++i) vnorm2 += std::norm(v[i]);
    if (vnorm2 == 0.0) continue;
    const double beta = 2.0 / vnorm2;
    // Left: H <- H - beta v (v^H H).
    for (std::size_t j = 0; j < n; ++j) {
      Complex s{};
      for (std::size_t i = k + 1; i < n; ++i) s += std::conj(v[i]) * h(i, j);
      s *= beta;
      for (std::size_t i = k + 1; i < n; ++i) h(i, j) -= v[i] * s;
    }
    // Right: H <- H - (H v) beta v^H.
    for (std::size_t i = 0; i < n; ++i) {
      Complex s{};
      for (std::size_t j = k + 1; j < n; ++j) s += h(i, j) * v[j];
      s *= beta;
      for (std::size_t j = k + 1; j < n; ++j) h(i, j) -= s * std::conj(v[j]);
    }
    // U <- U (I - beta v v^H).
    for (std::size_t i = 0; i < n; ++i) {
      Complex s{};
      for (std::size_t j = k + 1; j < n; ++j) s += u(i, j) * v[j];
      s *= beta;
      for (std::size_t j = k + 1; j < n; ++j) u(i, j) -= s * std::conj(v[j]);
    }
    // Enforce exact zeros below the subdiagonal in column k.
    for (std::size_t i = k + 2; i < n; ++i) h(i, k) = Complex{};
  }
}

}  // namespace

ComplexSchur complex_schur(const Matrix& a) {
  if (!a.is_square())
    throw std::invalid_argument("complex_schur: requires square");
  const std::size_t n = a.rows();
  ComplexSchur out;
  out.t = CMatrix::from_real(a);
  out.u = CMatrix::identity(n);
  if (n == 0) return out;
  hessenberg_reduce(out.t, out.u);
  CMatrix& t = out.t;
  CMatrix& u = out.u;

  const double scale = std::max(1e-300, t.frobenius_norm());
  const double eps = 1e-15;
  std::size_t hi = n - 1;
  int iters_since_deflation = 0;
  const int max_total_iters = static_cast<int>(60 * n);
  int total_iters = 0;

  while (hi > 0) {
    if (++total_iters > max_total_iters) {
      out.converged = false;
      break;
    }
    // Find the deflation point: smallest lo with a non-negligible
    // subdiagonal chain up to hi.
    std::size_t lo = hi;
    while (lo > 0) {
      const double sub = std::abs(t(lo, lo - 1));
      const double ref =
          std::abs(t(lo - 1, lo - 1)) + std::abs(t(lo, lo));
      if (sub <= eps * (ref > 0 ? ref : scale)) {
        t(lo, lo - 1) = Complex{};
        break;
      }
      --lo;
    }
    if (lo == hi) {
      --hi;
      iters_since_deflation = 0;
      continue;
    }

    // Shift: Wilkinson from the trailing 2x2 of the active window, with an
    // exceptional shift every 12 stalled iterations.
    Complex mu;
    ++iters_since_deflation;
    if (iters_since_deflation % 12 == 0) {
      mu = t(hi, hi) + Complex{std::abs(t(hi, hi - 1)), 0.0} * 1.5;
    } else {
      const Complex a11 = t(hi - 1, hi - 1), a12 = t(hi - 1, hi);
      const Complex a21 = t(hi, hi - 1), a22 = t(hi, hi);
      const Complex tr2 = (a11 + a22) * 0.5;
      const Complex disc = std::sqrt(tr2 * tr2 - (a11 * a22 - a12 * a21));
      const Complex l1 = tr2 + disc;
      const Complex l2 = tr2 - disc;
      mu = std::abs(l1 - a22) < std::abs(l2 - a22) ? l1 : l2;
    }

    // Single-shift QR sweep on the window [lo, hi] via Givens chasing.
    Complex x = t(lo, lo) - mu;
    Complex y = t(lo + 1, lo);
    for (std::size_t k = lo; k < hi; ++k) {
      Givens g = make_givens(x, y);
      // Apply from the left to rows k, k+1.
      const std::size_t col_start = k > lo ? k - 1 : lo;
      for (std::size_t j = col_start; j < n; ++j) {
        const Complex t1 = t(k, j), t2 = t(k + 1, j);
        t(k, j) = g.c * t1 + g.s * t2;
        t(k + 1, j) = -std::conj(g.s) * t1 + g.c * t2;
      }
      // Apply from the right to columns k, k+1.
      const std::size_t row_end = std::min(hi, k + 2);
      for (std::size_t i = 0; i <= row_end; ++i) {
        const Complex t1 = t(i, k), t2 = t(i, k + 1);
        t(i, k) = g.c * t1 + std::conj(g.s) * t2;
        t(i, k + 1) = -g.s * t1 + g.c * t2;
      }
      // Accumulate in U (right multiplication).
      for (std::size_t i = 0; i < n; ++i) {
        const Complex u1 = u(i, k), u2 = u(i, k + 1);
        u(i, k) = g.c * u1 + std::conj(g.s) * u2;
        u(i, k + 1) = -g.s * u1 + g.c * u2;
      }
      if (k + 1 < hi) {
        x = t(k + 1, k);
        y = t(k + 2, k);
      }
    }
  }
  // Zero-out the strict lower triangle (numerically negligible by now).
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) t(i, j) = Complex{};
  return out;
}

EigenDecomposition eigen_decompose(const Matrix& a) {
  const std::size_t n = a.rows();
  ComplexSchur schur = complex_schur(a);
  EigenDecomposition out;
  out.converged = schur.converged;
  out.values.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.values[i] = schur.t(i, i);
  // Eigenvectors of the triangular T by back substitution, then rotate by U.
  CMatrix y{n, n};
  const double tiny = 1e-300;
  for (std::size_t k = 0; k < n; ++k) {
    const Complex lambda = schur.t(k, k);
    y(k, k) = Complex{1.0, 0.0};
    for (std::size_t i = k; i-- > 0;) {
      Complex acc{};
      for (std::size_t m = i + 1; m <= k; ++m) acc += schur.t(i, m) * y(m, k);
      Complex denom = schur.t(i, i) - lambda;
      if (std::abs(denom) < tiny + 1e-12 * std::abs(lambda))
        denom += Complex{1e-12 * (1.0 + std::abs(lambda)), 0.0};
      y(i, k) = -acc / denom;
    }
  }
  out.modal = schur.u * y;
  // Normalize columns.
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i) norm += std::norm(out.modal(i, k));
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) out.modal(i, k) /= norm;
  }
  return out;
}

std::vector<Complex> eigenvalues(const Matrix& a) {
  ComplexSchur schur = complex_schur(a);
  std::vector<Complex> out(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) out[i] = schur.t(i, i);
  return out;
}

double spectral_abscissa(const Matrix& a) {
  double best = -std::numeric_limits<double>::infinity();
  for (const Complex& l : eigenvalues(a)) best = std::max(best, l.real());
  return best;
}

bool is_hurwitz(const Matrix& a, double margin) {
  return spectral_abscissa(a) < -margin;
}

}  // namespace spiv::numeric
