// Tests for the exact validation engines (charpoly + PD checks).
#include <gtest/gtest.h>

#include <random>

#include "exact/sylvester.hpp"
#include "numeric/lyapunov.hpp"
#include "smt/charpoly.hpp"
#include "smt/validate.hpp"
#include "tick_clock.hpp"

namespace spiv::smt {
namespace {

using exact::BigInt;
using exact::RatMatrix;
using exact::Rational;

Rational q(std::int64_t n, std::int64_t d = 1) { return Rational{n, d}; }

const std::vector<Engine> kAllEngines = {
    Engine::Sylvester, Engine::SympyGauss, Engine::Ldlt, Engine::SmtZ3Style,
    Engine::SmtCvc5Style};

TEST(CharPoly, KnownSmallMatrices) {
  // M = [[2,1],[1,2]]: char poly = x^2 - 4x + 3.
  RatMatrix m{{q(2), q(1)}, {q(1), q(2)}};
  for (auto coeffs : {characteristic_polynomial_faddeev(m),
                      characteristic_polynomial_interpolation(m)}) {
    ASSERT_EQ(coeffs.size(), 3u);
    EXPECT_EQ(coeffs[2], q(1));
    EXPECT_EQ(coeffs[1], q(-4));
    EXPECT_EQ(coeffs[0], q(3));
  }
}

TEST(CharPoly, TwoAlgorithmsAgreeOnRandomMatrices) {
  std::mt19937_64 rng{21};
  std::uniform_int_distribution<std::int64_t> d{-5, 5};
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t n = 2 + iter % 5;
    RatMatrix m{n, n};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) m(i, j) = Rational{d(rng), 3};
    auto c1 = characteristic_polynomial_faddeev(m);
    auto c2 = characteristic_polynomial_interpolation(m);
    EXPECT_EQ(c1, c2);
    // p(lambda) evaluated at an eigenvalue-free integer equals
    // det(kI - M).
    RatMatrix shifted = -m;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) += q(7);
    EXPECT_EQ(evaluate_polynomial(c1, q(7)), shifted.determinant());
  }
}

TEST(CharPoly, DescartesSignConditions) {
  // diag(1, 2): roots {1, 2} positive.
  RatMatrix pd{{q(1), q(0)}, {q(0), q(2)}};
  EXPECT_TRUE(all_roots_positive_strict(characteristic_polynomial_faddeev(pd)));
  // diag(0, 2): nonnegative but not strict.
  RatMatrix psd{{q(0), q(0)}, {q(0), q(2)}};
  auto c = characteristic_polynomial_faddeev(psd);
  EXPECT_FALSE(all_roots_positive_strict(c));
  EXPECT_TRUE(all_roots_nonnegative(c));
  // diag(-1, 2): indefinite.
  RatMatrix indef{{q(-1), q(0)}, {q(0), q(2)}};
  auto ci = characteristic_polynomial_faddeev(indef);
  EXPECT_FALSE(all_roots_positive_strict(ci));
  EXPECT_FALSE(all_roots_nonnegative(ci));
}

TEST(CheckPd, AllEnginesAgreeOnKnownMatrices) {
  RatMatrix pd{{q(4), q(1), q(0)}, {q(1), q(3), q(1)}, {q(0), q(1), q(2)}};
  RatMatrix indef{{q(1), q(3)}, {q(3), q(1)}};
  RatMatrix psd{{q(1), q(1)}, {q(1), q(1)}};  // singular
  RatMatrix neg{{q(-2), q(0)}, {q(0), q(-3)}};
  for (Engine e : kAllEngines) {
    for (bool det : {false, true}) {
      CheckOptions opts;
      opts.det_encoding = det;
      EXPECT_EQ(check_positive_definite(pd, e, opts).outcome, Outcome::Valid)
          << to_string(e) << " det=" << det;
      EXPECT_EQ(check_positive_definite(indef, e, opts).outcome,
                Outcome::Invalid)
          << to_string(e) << " det=" << det;
      EXPECT_EQ(check_positive_definite(psd, e, opts).outcome,
                Outcome::Invalid)
          << to_string(e) << " det=" << det;
      EXPECT_EQ(check_positive_definite(neg, e, opts).outcome,
                Outcome::Invalid)
          << to_string(e) << " det=" << det;
    }
  }
}

TEST(CheckPd, EnginesAgreeOnRandomSymmetricMatrices) {
  std::mt19937_64 rng{31};
  std::uniform_int_distribution<std::int64_t> d{-4, 4};
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t n = 2 + iter % 5;
    RatMatrix m{n, n};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i; j < n; ++j) {
        m(i, j) = Rational{d(rng)};
        m(j, i) = m(i, j);
      }
    // Reference: Sylvester.
    const Outcome ref = check_positive_definite(m, Engine::Sylvester).outcome;
    for (Engine e : kAllEngines) {
      EXPECT_EQ(check_positive_definite(m, e).outcome, ref)
          << to_string(e) << " iter " << iter;
    }
  }
}

/// Seeded random rational matrices of known definiteness class.
class PdCorpus {
 public:
  enum class Kind { Pd, PsdSingular, Indefinite, ZeroMinor, NegativeMinor };

  explicit PdCorpus(std::uint64_t seed) : rng_{seed} {}

  /// Small numerator over a small denominator, so clearing denominators
  /// needs a nontrivial lcm.
  Rational entry() {
    const auto num = static_cast<std::int64_t>(rng_() % 19) - 9;
    const auto den = static_cast<std::int64_t>(rng_() % 12) + 1;
    return Rational{num, den};
  }

  /// Random rows x cols matrix of entry()s.
  RatMatrix random(std::size_t rows, std::size_t cols) {
    RatMatrix b{rows, cols};
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j) b(i, j) = entry();
    return b;
  }

  /// L diag(d) L^T with a random unit lower triangular L: its k-th leading
  /// principal minor is d_1 * ... * d_k.
  RatMatrix ldlt(const std::vector<Rational>& d) {
    const std::size_t n = d.size();
    RatMatrix l = RatMatrix::identity(n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < i; ++j) l(i, j) = entry();
    RatMatrix dm{n, n};
    for (std::size_t i = 0; i < n; ++i) dm(i, i) = d[i];
    return l * dm * l.transposed();
  }

  /// Positive diagonal entries from 1/7 up to about 2^70 / 3, so the
  /// cleared integers span several limbs.
  Rational positive() {
    const BigInt num = BigInt{static_cast<std::int64_t>(rng_() % 97 + 1)}
                           .shifted_left(rng_() % 71);
    return Rational{num, BigInt{static_cast<std::int64_t>(rng_() % 7 + 1)}};
  }

  RatMatrix make(Kind kind, std::size_t n) {
    RatMatrix m;
    switch (kind) {
      case Kind::Pd: {
        std::vector<Rational> d(n);
        for (auto& v : d) v = positive();
        m = ldlt(d);
        break;
      }
      case Kind::PsdSingular: {
        const RatMatrix b = random(n - 1, n);  // rank < n
        m = b.transposed() * b;
        break;
      }
      case Kind::Indefinite: {
        // Inertia of a congruence: one negative pivot among positives
        // (or a single negative entry at n = 1).
        std::vector<Rational> d(n);
        for (auto& v : d) v = positive();
        d[rng_() % n] = -positive();
        m = ldlt(d);
        break;
      }
      case Kind::ZeroMinor:
      case Kind::NegativeMinor: {
        // Leading k x k block with a zero (singular PSD) or negative
        // determinant, bordered by random entries: the k-th leading
        // minor is that determinant, whatever the later ones are.
        const std::size_t k = 1 + rng_() % n;
        RatMatrix lead;
        if (kind == Kind::ZeroMinor) {
          const RatMatrix b = random(k - 1, k);
          lead = b.transposed() * b;
        } else {
          std::vector<Rational> d(k);
          for (auto& v : d) v = positive();
          d[k - 1] = -positive();
          lead = ldlt(d);
        }
        m = random(n, n);
        m = m + m.transposed();
        for (std::size_t i = 0; i < k; ++i)
          for (std::size_t j = 0; j < k; ++j) m(i, j) = lead(i, j);
        break;
      }
    }
    return m;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(CheckPd, IntegerSylvesterAgreesWithRationalEnginesOnCorpus) {
  using Kind = PdCorpus::Kind;
  PdCorpus corpus{2026};
  for (std::size_t n = 1; n <= 12; ++n) {
    for (Kind kind : {Kind::Pd, Kind::PsdSingular, Kind::Indefinite,
                      Kind::ZeroMinor, Kind::NegativeMinor}) {
      const RatMatrix m = corpus.make(kind, n);
      ASSERT_TRUE(m.is_symmetric());
      const Outcome expected = kind == Kind::Pd ? Outcome::Valid
                                                : Outcome::Invalid;
      for (bool det : {false, true}) {
        CheckOptions opts;
        opts.det_encoding = det;
        for (Engine e : {Engine::Sylvester, Engine::SympyGauss, Engine::Ldlt})
          EXPECT_EQ(check_positive_definite(m, e, opts).outcome, expected)
              << to_string(e) << " n=" << n << " kind="
              << static_cast<int>(kind) << " det=" << det;
      }
    }
  }
}

TEST(CheckPd, IntegerLieMatrixIsAPositiveMultipleOfTheRationalOne) {
  PdCorpus corpus{7};
  for (std::size_t n = 1; n <= 8; ++n) {
    const RatMatrix a = corpus.random(n, n);
    RatMatrix p = corpus.make(PdCorpus::Kind::Pd, n);
    const RatMatrix lie = -(a.transposed() * p + p * a);
    const exact::IntMatrix lie_int = exact::lie_matrix(
        exact::IntMatrix::cleared(a), exact::IntMatrix::cleared(p));
    // One positive rational c with lie_int == c * lie, entry by entry.
    std::optional<Rational> c;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const Rational v{lie_int(i, j), BigInt{1}};
        if (!c && !lie(i, j).is_zero()) c = v / lie(i, j);
        if (c) {
          EXPECT_EQ(v, *c * lie(i, j)) << n << ": " << i << "," << j;
        } else {
          EXPECT_TRUE(v.is_zero());
        }
      }
    if (c) {
      EXPECT_GT(c->sign(), 0);
    }
  }
}

TEST(ValidateLyapunov, IntegerSylvesterAgreesWithRationalEnginesOnCandidates) {
  // Random stable A with its Lyapunov solution P (valid), P shifted below
  // its smallest eigenvalue (positivity fails) and P with one diagonal
  // entry scaled up (decrease usually fails): all three rational engines
  // must give the same two verdicts as the integer Sylvester check.
  std::mt19937_64 rng{48};
  std::normal_distribution<double> dist;
  int not_positive = 0, not_decreasing = 0, valid = 0;
  for (std::size_t n = 2; n <= 8; ++n) {
    numeric::Matrix a{n, n};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    double shift = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) row += std::abs(a(i, j));
      shift = std::max(shift, row);
    }
    for (std::size_t i = 0; i < n; ++i) a(i, i) -= shift + 0.5;
    auto p = numeric::solve_lyapunov(a, numeric::Matrix::identity(n));
    ASSERT_TRUE(p.has_value());
    numeric::Matrix shifted = *p;
    for (std::size_t i = 0; i < n; ++i) shifted(i, i) -= 2.0 * (*p)(i, i);
    numeric::Matrix skewed = *p;
    skewed(0, 0) *= 40.0;
    for (const numeric::Matrix& cand : {*p, shifted, skewed}) {
      for (int digits : {10, 3, 0}) {
        const auto ref = validate_lyapunov(a, cand, Engine::Sylvester, digits);
        not_positive += ref.positivity.outcome == Outcome::Invalid;
        not_decreasing += ref.decrease.outcome == Outcome::Invalid;
        valid += ref.valid();
        for (Engine e : {Engine::SympyGauss, Engine::Ldlt}) {
          const auto v = validate_lyapunov(a, cand, e, digits);
          EXPECT_EQ(v.positivity.outcome, ref.positivity.outcome)
              << to_string(e) << " n=" << n << " digits=" << digits;
          EXPECT_EQ(v.decrease.outcome, ref.decrease.outcome)
              << to_string(e) << " n=" << n << " digits=" << digits;
        }
      }
    }
  }
  // The corpus exercises every verdict combination it is meant to.
  EXPECT_GT(not_positive, 0);
  EXPECT_GT(not_decreasing, 0);
  EXPECT_GT(valid, 0);
}

TEST(CheckPd, SmtEnginesProduceExactWitnesses) {
  RatMatrix indef{{q(1), q(3)}, {q(3), q(1)}};
  for (Engine e : {Engine::SmtZ3Style, Engine::SmtCvc5Style}) {
    Verdict v = check_positive_definite(indef, e);
    ASSERT_EQ(v.outcome, Outcome::Invalid);
    ASSERT_TRUE(v.witness.has_value()) << to_string(e);
    EXPECT_LE(indef.quad_form(*v.witness).sign(), 0);
  }
}

TEST(CheckPd, RespectsDeadline) {
  RatMatrix big{12, 12};
  for (std::size_t i = 0; i < 12; ++i) {
    big(i, i) = Rational{1000000007, 3};
    if (i + 1 < 12) {
      big(i, i + 1) = Rational{999999937, 13};
      big(i + 1, i) = big(i, i + 1);
    }
  }
  CheckOptions opts;
  opts.deadline = Deadline::after_seconds(-1.0);
  EXPECT_EQ(check_positive_definite(big, Engine::Sylvester, opts).outcome,
            Outcome::Timeout);
  EXPECT_EQ(check_positive_definite(big, Engine::SmtZ3Style, opts).outcome,
            Outcome::Timeout);
  {
    // Every clock read advances one 1 ms tick.  The check reads the clock
    // once for its start time and once per deadline poll: 12 per-column
    // polls alone stay inside a 20-tick budget, so only the per-row polls
    // (66 more on a 12 x 12 matrix) can run it out.
    ScopedTickClock clock;
    opts.deadline = Deadline::after_seconds(0.020);
    EXPECT_EQ(check_positive_definite(big, Engine::Sylvester, opts).outcome,
              Outcome::Timeout);
  }
  EXPECT_EQ(check_positive_definite(big, Engine::Sylvester).outcome,
            Outcome::Valid);
}

TEST(CheckPd, RejectsNonSymmetric) {
  RatMatrix ns{{q(1), q(2)}, {q(0), q(1)}};
  EXPECT_THROW(check_positive_definite(ns, Engine::Sylvester),
               std::invalid_argument);
}

TEST(ValidateLyapunov, AcceptsTrueLyapunovFunction) {
  // A = diag(-1,-2), P = diag(1/2, 1/4) solves A^T P + P A + I = 0.
  numeric::Matrix a = numeric::Matrix::diagonal(numeric::Vector{-1, -2});
  numeric::Matrix p = numeric::Matrix::diagonal(numeric::Vector{0.5, 0.25});
  for (Engine e : kAllEngines) {
    auto v = validate_lyapunov(a, p, e, 10);
    EXPECT_TRUE(v.valid()) << to_string(e);
  }
}

TEST(ValidateLyapunov, RejectsWrongCandidate) {
  numeric::Matrix a = numeric::Matrix::diagonal(numeric::Vector{-1, -2});
  // Indefinite "candidate".
  numeric::Matrix p{{1, 5}, {5, 1}};
  auto v = validate_lyapunov(a, p, Engine::Sylvester, 10);
  EXPECT_FALSE(v.valid());
  EXPECT_EQ(v.positivity.outcome, Outcome::Invalid);
  // Candidate for an unstable system fails the decrease condition.
  numeric::Matrix a_unstable = numeric::Matrix::diagonal(numeric::Vector{1, -2});
  numeric::Matrix p_id = numeric::Matrix::identity(2);
  auto v2 = validate_lyapunov(a_unstable, p_id, Engine::Sylvester, 10);
  EXPECT_EQ(v2.positivity.outcome, Outcome::Valid);
  EXPECT_EQ(v2.decrease.outcome, Outcome::Invalid);
}

TEST(ValidateLyapunov, RoundingDigitsMatter) {
  // A candidate that is PD but extremely close to singular: coarse
  // rounding can flip the verdict (the paper's robustness experiment).
  numeric::Matrix a = numeric::Matrix::diagonal(numeric::Vector{-1, -1});
  numeric::Matrix p{{1.0, 0.999999}, {0.999999, 1.0}};  // eigs {2e-6-ish, 2}
  auto fine = validate_lyapunov(a, p, Engine::Sylvester, 10);
  EXPECT_TRUE(fine.valid());
  auto coarse = validate_lyapunov(a, p, Engine::Sylvester, 4);
  // At 4 significant digits the off-diagonal rounds to 1.0 -> singular.
  EXPECT_FALSE(coarse.valid());
}

TEST(ValidateLyapunov, NumericLyapunovSolutionValidatesOnMidSizeSystem) {
  // End-to-end: Bartels–Stewart candidate on a random stable system passes
  // exact validation at 10 significant digits.
  std::mt19937_64 rng{47};
  std::normal_distribution<double> dist;
  const std::size_t n = 8;
  numeric::Matrix a{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
  double shift = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += std::abs(a(i, j));
    shift = std::max(shift, row);
  }
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= shift + 1.0;
  auto p = numeric::solve_lyapunov(a, numeric::Matrix::identity(n));
  ASSERT_TRUE(p.has_value());
  for (Engine e : {Engine::Sylvester, Engine::Ldlt, Engine::SympyGauss}) {
    auto v = validate_lyapunov(a, *p, e, 10);
    EXPECT_TRUE(v.valid()) << to_string(e);
  }
}

}  // namespace
}  // namespace spiv::smt
