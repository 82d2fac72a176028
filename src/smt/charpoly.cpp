#include "smt/charpoly.hpp"

#include <stdexcept>

#include "exact/modular.hpp"

namespace spiv::smt {

using exact::RatMatrix;
using exact::Rational;

std::vector<Rational> characteristic_polynomial_faddeev(
    const RatMatrix& m, const Deadline& deadline) {
  if (!m.is_square())
    throw std::invalid_argument("characteristic_polynomial: square required");
  const std::size_t n = m.rows();
  // Faddeev–LeVerrier: M_1 = M, c_{n-1} = -tr(M_1);
  // M_k = M (M_{k-1} + c_{n-k+1} I), c_{n-k} = -tr(M_k)/k.
  std::vector<Rational> coeffs(n + 1);
  coeffs[n] = Rational{1};
  RatMatrix mk = m;
  for (std::size_t k = 1; k <= n; ++k) {
    deadline.check();
    Rational trace;
    for (std::size_t i = 0; i < n; ++i) trace += mk(i, i);
    coeffs[n - k] = -trace / Rational{static_cast<std::int64_t>(k)};
    if (k == n) break;
    RatMatrix shifted = mk;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) += coeffs[n - k];
    mk = m * shifted;
  }
  return coeffs;
}

std::vector<Rational> characteristic_polynomial_interpolation(
    const RatMatrix& m, const Deadline& deadline) {
  if (!m.is_square())
    throw std::invalid_argument("characteristic_polynomial: square required");
  const std::size_t n = m.rows();
  // Values p(k) = det(k I - M) at nodes k = 0..n.
  std::vector<Rational> values(n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    deadline.check();
    RatMatrix shifted = -m;
    for (std::size_t i = 0; i < n; ++i)
      shifted(i, i) += Rational{static_cast<std::int64_t>(k)};
    // Each determinant is the engine's dominant cost; pass the deadline so
    // a cancellation preempts inside the elimination, not just between
    // interpolation nodes.  Inside a parallel validation sweep its
    // fan-out finds no idle worker and runs inline.
    values[k] = exact::determinant_modular(shifted, deadline);
  }
  // Newton's divided differences on integer nodes, then expand to the
  // monomial basis.
  std::vector<Rational> dd = values;
  for (std::size_t level = 1; level <= n; ++level) {
    deadline.check();
    for (std::size_t i = n; i >= level; --i) {
      dd[i] = (dd[i] - dd[i - 1]) /
              Rational{static_cast<std::int64_t>(level)};
      if (i == level) break;
    }
  }
  // p(x) = sum_j dd[j] * prod_{i<j} (x - i): expand incrementally.
  std::vector<Rational> coeffs(n + 1);
  std::vector<Rational> basis{Rational{1}};  // prod_{i<j} (x - i) so far
  for (std::size_t j = 0; j <= n; ++j) {
    for (std::size_t t = 0; t < basis.size(); ++t)
      coeffs[t] += dd[j] * basis[t];
    if (j == n) break;
    // basis *= (x - j): new[t] = old[t-1] - j*old[t].
    const Rational node{static_cast<std::int64_t>(j)};
    std::vector<Rational> fresh(basis.size() + 1);
    for (std::size_t t = 0; t < basis.size(); ++t) {
      fresh[t + 1] += basis[t];
      fresh[t] -= node * basis[t];
    }
    basis = std::move(fresh);
  }
  return coeffs;
}

bool all_roots_positive_strict(const std::vector<Rational>& coeffs) {
  if (coeffs.empty())
    throw std::invalid_argument("all_roots_positive_strict: empty polynomial");
  const std::size_t n = coeffs.size() - 1;
  for (std::size_t k = 0; k <= n; ++k) {
    const int expected = (n - k) % 2 == 0 ? 1 : -1;
    if (coeffs[k].sign() != expected) return false;
  }
  return true;
}

bool all_roots_nonnegative(const std::vector<Rational>& coeffs) {
  if (coeffs.empty())
    throw std::invalid_argument("all_roots_nonnegative: empty polynomial");
  const std::size_t n = coeffs.size() - 1;
  for (std::size_t k = 0; k <= n; ++k) {
    const int expected = (n - k) % 2 == 0 ? 1 : -1;
    const int s = coeffs[k].sign();
    if (s != 0 && s != expected) return false;
  }
  return true;
}

Rational evaluate_polynomial(const std::vector<Rational>& coeffs,
                             const Rational& x) {
  Rational acc;
  for (std::size_t k = coeffs.size(); k-- > 0;) acc = acc * x + coeffs[k];
  return acc;
}

}  // namespace spiv::smt
