// Parameterized property sweeps for the exact linear-algebra layer.
#include <gtest/gtest.h>

#include <random>

#include "exact/lyapunov_exact.hpp"
#include "exact/matrix.hpp"
#include "exact/modular.hpp"

namespace spiv::exact {
namespace {

RatMatrix random_matrix(std::mt19937_64& rng, std::size_t n, std::size_t m) {
  std::uniform_int_distribution<std::int64_t> num{-7, 7};
  std::uniform_int_distribution<std::int64_t> den{1, 5};
  RatMatrix out{n, m};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) out(i, j) = Rational{num(rng), den(rng)};
  return out;
}

class ExactMatrixProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ExactMatrixProperty, InverseIsTwoSided) {
  std::mt19937_64 rng{GetParam()};
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t n = 2 + iter % 5;
    RatMatrix m = random_matrix(rng, n, n);
    auto inv = m.inverse();
    if (!inv) {
      EXPECT_TRUE(m.determinant().is_zero());
      continue;
    }
    EXPECT_EQ(m * *inv, RatMatrix::identity(n));
    EXPECT_EQ(*inv * m, RatMatrix::identity(n));
    // det(M^-1) = 1/det(M).
    EXPECT_EQ(inv->determinant() * m.determinant(), Rational{1});
  }
}

TEST_P(ExactMatrixProperty, TransposeAndDeterminantLaws) {
  std::mt19937_64 rng{GetParam() + 5};
  for (int iter = 0; iter < 8; ++iter) {
    const std::size_t n = 2 + iter % 5;
    RatMatrix a = random_matrix(rng, n, n);
    RatMatrix b = random_matrix(rng, n, n);
    EXPECT_EQ(a.transposed().determinant(), a.determinant());
    EXPECT_EQ((a * b).transposed(), b.transposed() * a.transposed());
    EXPECT_EQ(a.transposed().transposed(), a);
    // rank(A) == rank(A^T).
    EXPECT_EQ(a.rank(), a.transposed().rank());
  }
}

TEST_P(ExactMatrixProperty, LdltAgreesWithMinorsOnPdQuestion) {
  std::mt19937_64 rng{GetParam() + 13};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 2 + iter % 5;
    RatMatrix m = random_matrix(rng, n, n).symmetrized();
    auto minors = m.leading_principal_minors();
    bool pd_by_minors = true;
    for (const auto& mm : minors) pd_by_minors &= mm.sign() > 0;
    auto f = m.ldlt();
    bool pd_by_ldlt = f.has_value();
    if (f)
      for (const auto& dv : f->d) pd_by_ldlt &= dv.sign() > 0;
    EXPECT_EQ(pd_by_minors, pd_by_ldlt) << "iter " << iter;
  }
}

TEST_P(ExactMatrixProperty, LyapunovSolveHasZeroResidual) {
  std::mt19937_64 rng{GetParam() + 17};
  for (int iter = 0; iter < 4; ++iter) {
    const std::size_t n = 2 + iter % 3;
    // Diagonally dominant => Hurwitz and Lyapunov-solvable.
    RatMatrix a = random_matrix(rng, n, n);
    for (std::size_t i = 0; i < n; ++i) a(i, i) -= Rational{30};
    RatMatrix q = RatMatrix::identity(n);
    auto p = solve_lyapunov_exact(a, q);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->is_symmetric());
    EXPECT_EQ(lyapunov_residual(a, *p, q), RatMatrix(n, n)) << "iter " << iter;
  }
}

TEST_P(ExactMatrixProperty, ModularSolverAgreesWithBareiss) {
  // The multi-modular path must return the *same RatMatrix* as Bareiss
  // (canonical rationals make equality representation-exact), or nullopt on
  // exactly the systems Bareiss declares singular.
  std::mt19937_64 rng{GetParam() + 29};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 2 + iter % 7;  // 2..8
    RatMatrix a = random_matrix(rng, n, n);
    if (iter % 3 == 0)  // bias a third of cases towards nonsingular
      for (std::size_t i = 0; i < n; ++i) a(i, i) += Rational{25};
    RatMatrix b = random_matrix(rng, n, 1 + iter % 2);
    auto modular = solve_rational_modular(a, b);
    auto bareiss = a.solve(b);
    if (bareiss.has_value()) {
      ASSERT_TRUE(modular.has_value()) << "iter " << iter;
      EXPECT_EQ(*modular, *bareiss) << "iter " << iter;
    } else {
      EXPECT_FALSE(modular.has_value()) << "iter " << iter;
    }
    EXPECT_EQ(determinant_modular(a), a.determinant()) << "iter " << iter;
  }
}

TEST_P(ExactMatrixProperty, QuadFormMatchesExplicitProduct) {
  std::mt19937_64 rng{GetParam() + 23};
  const std::size_t n = 5;
  RatMatrix m = random_matrix(rng, n, n);
  std::uniform_int_distribution<std::int64_t> num{-6, 6};
  std::vector<Rational> x(n);
  for (auto& v : x) v = Rational{num(rng), 2};
  // x^T M x via explicit products.
  std::vector<Rational> mx = m.apply(x);
  Rational expected;
  for (std::size_t i = 0; i < n; ++i) expected += x[i] * mx[i];
  EXPECT_EQ(m.quad_form(x), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactMatrixProperty,
                         ::testing::Values(301u, 302u, 303u));

}  // namespace
}  // namespace spiv::exact
