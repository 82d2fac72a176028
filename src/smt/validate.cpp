#include "smt/validate.hpp"

#include <stdexcept>

#include "exact/sylvester.hpp"
#include "numeric/eigen.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "smt/charpoly.hpp"

namespace spiv::smt {

using exact::IntMatrix;
using exact::RatMatrix;
using exact::Rational;

std::string to_string(Engine e) {
  switch (e) {
    case Engine::Sylvester: return "sylvester";
    case Engine::SympyGauss: return "sympy-gauss";
    case Engine::Ldlt: return "ldlt";
    case Engine::SmtZ3Style: return "smt-z3";
    case Engine::SmtCvc5Style: return "smt-cvc5";
  }
  return "?";
}

std::optional<Engine> engine_from_string(const std::string& name) {
  for (Engine e : {Engine::Sylvester, Engine::SympyGauss, Engine::Ldlt,
                   Engine::SmtZ3Style, Engine::SmtCvc5Style})
    if (to_string(e) == name) return e;
  return std::nullopt;
}

namespace {

/// Fraction-free Bareiss elimination without renormalization (the SymPy
/// is_positive_definite route): the k-th pivot equals the k-th leading
/// principal minor, intermediate products are kept un-divided as long as
/// possible, giving the heavier coefficient growth the paper observed.
Outcome bareiss_strict(const RatMatrix& input, const Deadline& deadline) {
  RatMatrix m = input;
  const std::size_t n = m.rows();
  Rational prev_pivot{1};
  for (std::size_t col = 0; col < n; ++col) {
    deadline.check();
    const Rational pivot = m(col, col);
    // Bareiss pivots are exactly the leading principal minors.
    if (pivot.sign() <= 0) return Outcome::Invalid;
    for (std::size_t r = col + 1; r < n; ++r) {
      deadline.check();  // row-level poll: rows get heavy late in elimination
      for (std::size_t j = col + 1; j < n; ++j) {
        m(r, j) = (pivot * m(r, j) - m(r, col) * m(col, j)) / prev_pivot;
      }
      m(r, col) = Rational{};
    }
    prev_pivot = pivot;
  }
  return Outcome::Valid;
}

/// Exact LDL^T with early exit on a non-positive pivot.
Outcome ldlt_strict(const RatMatrix& input, const Deadline& deadline) {
  const std::size_t n = input.rows();
  RatMatrix l = RatMatrix::identity(n);
  std::vector<Rational> d(n);
  for (std::size_t j = 0; j < n; ++j) {
    deadline.check();
    Rational dj = input(j, j);
    for (std::size_t k = 0; k < j; ++k) {
      if (l(j, k).is_zero()) continue;
      dj -= l(j, k) * l(j, k) * d[k];
    }
    if (dj.sign() <= 0) return Outcome::Invalid;
    d[j] = dj;
    const Rational inv_dj = dj.reciprocal();
    for (std::size_t i = j + 1; i < n; ++i) {
      deadline.check();  // row-level poll: rows get heavy late in elimination
      Rational acc = input(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        if (l(i, k).is_zero() || l(j, k).is_zero()) continue;
        acc -= l(i, k) * l(j, k) * d[k];
      }
      l(i, j) = acc * inv_dj;
    }
  }
  return Outcome::Valid;
}

/// SMT-style counter-model attempt: rationalize the numeric eigenvector of
/// the smallest eigenvalue and test the quadratic form exactly.  Returns a
/// witness when it certifies indefiniteness.
std::optional<std::vector<Rational>> counter_model(const RatMatrix& m) {
  const std::size_t n = m.rows();
  numeric::Matrix md{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) md(i, j) = m(i, j).to_double();
  auto eig = numeric::symmetric_eigen(md);
  if (eig.values.front() > 0.0) return std::nullopt;  // numerically PD
  std::vector<Rational> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = exact::Rational::from_double_rounded(eig.vectors(i, 0), 8);
  bool nonzero = false;
  for (const auto& v : w) nonzero |= !v.is_zero();
  if (!nonzero) return std::nullopt;
  if (m.quad_form(w).sign() <= 0) return w;
  return std::nullopt;
}

/// Runs `decide` and times it; a TimeoutError becomes Outcome::Timeout.
template <class Decide>
Verdict timed_verdict(Decide&& decide) {
  Verdict verdict;
  const auto start = time_source::now();
  try {
    verdict.outcome = decide(verdict);
  } catch (const TimeoutError&) {
    verdict.outcome = Outcome::Timeout;
  }
  verdict.seconds = time_source::seconds_since(start);
  return verdict;
}

Outcome sylvester_int(IntMatrix s, const Deadline& deadline) {
  // "+det" needs no extra work here: the determinant is the last pivot,
  // and every pivot positive already implies it is nonzero.
  return exact::leading_minors_positive(std::move(s), deadline)
             ? Outcome::Valid
             : Outcome::Invalid;
}

}  // namespace

Verdict check_positive_definite(const RatMatrix& m, Engine engine,
                                const CheckOptions& options) {
  if (!m.is_square() || !m.is_symmetric())
    throw std::invalid_argument(
        "check_positive_definite: symmetric matrix required");
  return timed_verdict([&](Verdict& verdict) {
    switch (engine) {
      case Engine::Sylvester:
        return sylvester_int(IntMatrix::cleared(m), options.deadline);
      case Engine::SympyGauss:
        if (options.det_encoding && m.determinant(options.deadline).is_zero())
          return Outcome::Invalid;
        return bareiss_strict(m, options.deadline);
      case Engine::Ldlt:
        if (options.det_encoding && m.determinant(options.deadline).is_zero())
          return Outcome::Invalid;
        return ldlt_strict(m, options.deadline);
      case Engine::SmtZ3Style:
      case Engine::SmtCvc5Style: {
        // Phase 1: cheap counter-model search (SAT answers are fast).
        if (auto w = counter_model(m)) {
          verdict.witness = std::move(*w);
          return Outcome::Invalid;
        }
        // Phase 2: complete decision via the characteristic polynomial.
        auto coeffs = engine == Engine::SmtZ3Style
                          ? characteristic_polynomial_faddeev(m, options.deadline)
                          : characteristic_polynomial_interpolation(
                                m, options.deadline);
        bool ok;
        if (options.det_encoding) {
          // weak alternation + det != 0  (det = +/- c0).
          ok = all_roots_nonnegative(coeffs) && !coeffs.front().is_zero();
        } else {
          ok = all_roots_positive_strict(coeffs);
        }
        return ok ? Outcome::Valid : Outcome::Invalid;
      }
    }
    throw std::logic_error("check_positive_definite: unknown engine");
  });
}

exact::RatMatrix rationalize(const numeric::Matrix& m, int digits) {
  return exact::rat_matrix_from_doubles(m.data().data(), m.rows(), m.cols(),
                                        digits);
}

LyapunovValidation validate_lyapunov(const numeric::Matrix& a,
                                     const numeric::Matrix& p, Engine engine,
                                     int digits, const CheckOptions& options) {
  if (!a.is_square() || !p.is_square() || a.rows() != p.rows())
    throw std::invalid_argument("validate_lyapunov: shape mismatch");
  obs::Span span{"validation", to_string(engine)};
  // The system matrix enters exactly; only the candidate is rounded
  // (paper §VI-B1: candidates rounded at the 10th significant figure).
  const RatMatrix a_exact = rationalize(a, 0);
  const RatMatrix p_exact = rationalize(p, digits).symmetrized();

  LyapunovValidation out;
  if (engine == Engine::Sylvester) {
    // All in integers: P = P_int / D and A = A_int / 2^k, so the Lie
    // matrix is lie_matrix(A_int, P_int) / (2^k D), and the positive
    // scales change neither definiteness question.
    const IntMatrix p_int = IntMatrix::cleared(p_exact);
    out.positivity = timed_verdict([&](Verdict&) {
      return sylvester_int(p_int, options.deadline);
    });
    out.decrease = timed_verdict([&](Verdict&) {
      return sylvester_int(
          exact::lie_matrix(IntMatrix::cleared(a_exact), p_int),
          options.deadline);
    });
  } else {
    const RatMatrix lie =
        -(a_exact.transposed() * p_exact + p_exact * a_exact).symmetrized();
    out.positivity = check_positive_definite(p_exact, engine, options);
    out.decrease = check_positive_definite(lie, engine, options);
  }
  obs::Registry::global()
      .histogram("spiv_validation_seconds{engine=\"" + to_string(engine) +
                 "\"}")
      .observe(out.seconds());
  return out;
}

}  // namespace spiv::smt
