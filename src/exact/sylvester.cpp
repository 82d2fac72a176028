#include "exact/sylvester.hpp"

#include <stdexcept>

namespace spiv::exact {

IntMatrix IntMatrix::cleared(const RatMatrix& m) {
  if (!m.is_square())
    throw std::invalid_argument("IntMatrix::cleared: square matrix required");
  const std::size_t n = m.rows();
  BigInt d{1};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const BigInt& den = m(i, j).den();
      if (!den.is_one()) d *= den / BigInt::gcd(d, den);
    }
  IntMatrix s{n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      const Rational& v = m(i, j);
      if (!v.is_zero()) s(i, j) = v.num() * (d / v.den());
    }
  return s;
}

IntMatrix lie_matrix(const IntMatrix& a, const IntMatrix& p) {
  const std::size_t n = a.size();
  if (p.size() != n) throw std::invalid_argument("lie_matrix: size mismatch");
  // M = A^T P; since P is symmetric, P A = M^T and the result is
  // -(M + M^T).
  IntMatrix m{n};
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i) {
      const BigInt& aki = a(k, i);
      if (aki.is_zero()) continue;
      for (std::size_t j = 0; j < n; ++j)
        if (!p(k, j).is_zero()) m(i, j) += aki * p(k, j);
    }
  IntMatrix lie{n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      lie(i, j) = -(m(i, j) + m(j, i));
      lie(j, i) = lie(i, j);
    }
  return lie;
}

bool leading_minors_positive(IntMatrix s, const Deadline& deadline) {
  const std::size_t n = s.size();
  BigInt prev{1};
  BigInt t;
  for (std::size_t k = 0; k < n; ++k) {
    deadline.check();
    // Bareiss: the pivot is the (k+1)-th leading principal minor.
    if (s(k, k).sign() <= 0) return false;
    const BigInt& pivot = s(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      deadline.check();  // row-level poll: rows get heavy late in elimination
      const BigInt& ski = s(k, i);  // == s(i, k) by symmetry
      // The trailing block stays symmetric, so only j >= i is updated.
      for (std::size_t j = i; j < n; ++j) {
        t = pivot * s(i, j);
        if (!ski.is_zero() && !s(k, j).is_zero()) t -= ski * s(k, j);
        s(i, j) = k == 0 ? std::move(t) : t / prev;  // exact division
      }
    }
    prev = pivot;
  }
  return true;
}

}  // namespace spiv::exact
