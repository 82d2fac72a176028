// Unit and property tests for spiv::exact::RatMatrix.
#include "exact/matrix.hpp"

#include <gtest/gtest.h>

#include <random>

namespace spiv::exact {
namespace {

Rational q(std::int64_t n, std::int64_t d = 1) { return Rational{n, d}; }

RatMatrix random_matrix(std::mt19937_64& rng, std::size_t n, std::size_t m,
                        std::int64_t lo = -9, std::int64_t hi = 9) {
  std::uniform_int_distribution<std::int64_t> d{lo, hi};
  RatMatrix out{n, m};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) out(i, j) = Rational{d(rng)};
  return out;
}

TEST(RatMatrix, BasicShapeAndAccess) {
  RatMatrix m{2, 3};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.is_square());
  m(1, 2) = q(7);
  EXPECT_EQ(m(1, 2), q(7));
  EXPECT_THROW((RatMatrix{{q(1)}, {q(1), q(2)}}), std::invalid_argument);
}

TEST(RatMatrix, ArithmeticAndShapeChecks) {
  RatMatrix a{{q(1), q(2)}, {q(3), q(4)}};
  RatMatrix b{{q(5), q(6)}, {q(7), q(8)}};
  EXPECT_EQ(a + b, (RatMatrix{{q(6), q(8)}, {q(10), q(12)}}));
  EXPECT_EQ(b - a, (RatMatrix{{q(4), q(4)}, {q(4), q(4)}}));
  EXPECT_EQ(a * q(2), (RatMatrix{{q(2), q(4)}, {q(6), q(8)}}));
  EXPECT_EQ(a * b, (RatMatrix{{q(19), q(22)}, {q(43), q(50)}}));
  EXPECT_EQ(-a, (RatMatrix{{q(-1), q(-2)}, {q(-3), q(-4)}}));
  RatMatrix wrong{1, 2};
  EXPECT_THROW(a += wrong, std::invalid_argument);
  EXPECT_THROW(a * RatMatrix(3, 3), std::invalid_argument);
}

TEST(RatMatrix, TransposeAndSymmetry) {
  RatMatrix a{{q(1), q(2)}, {q(3), q(4)}};
  EXPECT_EQ(a.transposed(), (RatMatrix{{q(1), q(3)}, {q(2), q(4)}}));
  EXPECT_FALSE(a.is_symmetric());
  RatMatrix s = a.symmetrized();
  EXPECT_TRUE(s.is_symmetric());
  EXPECT_EQ(s(0, 1), q(5, 2));
}

TEST(RatMatrix, DeterminantKnownValues) {
  EXPECT_EQ((RatMatrix{{q(1), q(2)}, {q(3), q(4)}}).determinant(), q(-2));
  EXPECT_EQ(RatMatrix::identity(5).determinant(), q(1));
  RatMatrix singular{{q(1), q(2)}, {q(2), q(4)}};
  EXPECT_EQ(singular.determinant(), q(0));
  // Requires a row swap to find the pivot.
  RatMatrix swap_needed{{q(0), q(1)}, {q(1), q(0)}};
  EXPECT_EQ(swap_needed.determinant(), q(-1));
  RatMatrix m3{{q(2), q(0), q(1)}, {q(1), q(3), q(2)}, {q(1), q(1), q(4)}};
  EXPECT_EQ(m3.determinant(), q(18));
}

TEST(RatMatrix, DeterminantIsMultiplicative) {
  std::mt19937_64 rng{42};
  for (int iter = 0; iter < 20; ++iter) {
    RatMatrix a = random_matrix(rng, 4, 4);
    RatMatrix b = random_matrix(rng, 4, 4);
    EXPECT_EQ((a * b).determinant(), a.determinant() * b.determinant());
  }
}

TEST(RatMatrix, LeadingPrincipalMinors) {
  RatMatrix m{{q(2), q(1), q(0)}, {q(1), q(2), q(1)}, {q(0), q(1), q(2)}};
  auto minors = m.leading_principal_minors();
  ASSERT_EQ(minors.size(), 3u);
  EXPECT_EQ(minors[0], q(2));
  EXPECT_EQ(minors[1], q(3));
  EXPECT_EQ(minors[2], q(4));
  // Zero pivot path: top-left entry zero.
  RatMatrix zp{{q(0), q(1)}, {q(1), q(0)}};
  auto mz = zp.leading_principal_minors();
  ASSERT_EQ(mz.size(), 2u);
  EXPECT_EQ(mz[0], q(0));
  EXPECT_EQ(mz[1], q(-1));
}

TEST(RatMatrix, MinorsMatchExplicitDeterminants) {
  std::mt19937_64 rng{7};
  for (int iter = 0; iter < 10; ++iter) {
    RatMatrix m = random_matrix(rng, 5, 5);
    auto minors = m.leading_principal_minors();
    for (std::size_t k = 0; k < 5; ++k) {
      RatMatrix block{k + 1, k + 1};
      for (std::size_t i = 0; i <= k; ++i)
        for (std::size_t j = 0; j <= k; ++j) block(i, j) = m(i, j);
      EXPECT_EQ(minors[k], block.determinant()) << "k=" << k;
    }
  }
}

TEST(RatMatrix, SolveAndInverse) {
  RatMatrix a{{q(2), q(1)}, {q(1), q(3)}};
  auto x = a.solve(std::vector<Rational>{q(5), q(10)});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ((*x)[0], q(1));
  EXPECT_EQ((*x)[1], q(3));
  auto inv = a.inverse();
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(a * *inv, RatMatrix::identity(2));
  RatMatrix singular{{q(1), q(2)}, {q(2), q(4)}};
  EXPECT_FALSE(singular.inverse().has_value());
  EXPECT_FALSE(singular.solve(std::vector<Rational>{q(1), q(1)}).has_value());
}

TEST(RatMatrix, SolveRandomRoundTrip) {
  std::mt19937_64 rng{123};
  for (int iter = 0; iter < 20; ++iter) {
    RatMatrix a = random_matrix(rng, 6, 6);
    if (a.determinant().is_zero()) continue;
    RatMatrix x_true = random_matrix(rng, 6, 2);
    RatMatrix b = a * x_true;
    auto x = a.solve(b);
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(*x, x_true);
  }
}

TEST(RatMatrix, Rank) {
  EXPECT_EQ(RatMatrix::identity(4).rank(), 4u);
  RatMatrix r1{{q(1), q(2)}, {q(2), q(4)}};
  EXPECT_EQ(r1.rank(), 1u);
  EXPECT_EQ(RatMatrix(3, 3).rank(), 0u);
  RatMatrix rect{{q(1), q(0), q(1)}, {q(0), q(1), q(1)}};
  EXPECT_EQ(rect.rank(), 2u);
}

TEST(RatMatrix, LdltReconstruction) {
  RatMatrix m{{q(4), q(2), q(0)}, {q(2), q(5), q(3)}, {q(0), q(3), q(6)}};
  auto f = m.ldlt();
  ASSERT_TRUE(f.has_value());
  // Reconstruct L D L^T.
  RatMatrix d{3, 3};
  for (std::size_t i = 0; i < 3; ++i) d(i, i) = f->d[i];
  EXPECT_EQ(f->l * d * f->l.transposed(), m);
  for (const auto& di : f->d) EXPECT_GT(di, q(0));
  // Indefinite matrix has a negative pivot.
  RatMatrix indef{{q(1), q(3)}, {q(3), q(1)}};
  auto fi = indef.ldlt();
  ASSERT_TRUE(fi.has_value());
  EXPECT_LT(fi->d[1], q(0));
  // Zero pivot fails.
  RatMatrix zp{{q(0), q(1)}, {q(1), q(0)}};
  EXPECT_FALSE(zp.ldlt().has_value());
}

TEST(RatMatrix, QuadFormAndApply) {
  RatMatrix p{{q(2), q(1)}, {q(1), q(3)}};
  std::vector<Rational> x{q(1), q(-1)};
  EXPECT_EQ(p.quad_form(x), q(3));  // 2 - 1 - 1 + 3
  auto y = p.apply(x);
  EXPECT_EQ(y[0], q(1));
  EXPECT_EQ(y[1], q(-2));
}

TEST(RatMatrix, FromDoublesRoundedAndExact) {
  const double data[4] = {0.123456, -1.0, 2.5, 1e-8};
  RatMatrix exact = rat_matrix_from_doubles(data, 2, 2, 0);
  EXPECT_DOUBLE_EQ(exact(0, 0).to_double(), 0.123456);
  RatMatrix rounded = rat_matrix_from_doubles(data, 2, 2, 3);
  EXPECT_EQ(rounded(0, 0), Rational{"0.123"});
  EXPECT_EQ(rounded(1, 0), Rational{"2.5"});
}

}  // namespace
}  // namespace spiv::exact
