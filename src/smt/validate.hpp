// spiv::smt — exact (symbolic) validation of candidate Lyapunov functions
// (paper §VI-B1 and Fig. 3).
//
// Numerically synthesized candidates P are rounded to a fixed number of
// significant decimal figures, converted to exact rationals, and the two
// Lyapunov conditions
//     (1)  forall w != 0 :  w^T P w > 0
//     (2)  forall w != 0 :  w^T (A^T P + P A) w < 0
// are decided exactly.  Both reduce to strict positive-definiteness of a
// symmetric rational matrix; the engines below are complete decision
// procedures with deliberately different algorithmic profiles, mirroring
// the validators compared in the paper's Fig. 3:
//
//   Sylvester     — leading principal minors (the paper's fastest method),
//                   by fraction-free elimination on integers (the matrix
//                   with its denominators cleared; see exact/sylvester.hpp);
//   SympyGauss    — fraction-free (Bareiss) elimination without
//                   renormalization, SymPy-is_positive_definite style;
//   Ldlt          — exact LDL^T pivots;
//   SmtZ3Style    — SMT-flavoured: numerically-guided counter-model search
//                   first (cheap Invalid answers with an exact witness),
//                   then a complete check via the Faddeev–LeVerrier
//                   characteristic polynomial and Descartes' rule;
//   SmtCvc5Style  — same search loop, complete check via characteristic
//                   polynomial by exact evaluation/interpolation.
//
// The `det_encoding` option mirrors the paper's "+det" variant: the strict
// check "forall w != 0: q(w) > 0" is encoded as
// "forall w: q(w) >= 0  and  det != 0" (weak sign condition + separate
// nonsingularity test).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exact/matrix.hpp"
#include "exact/timeout.hpp"
#include "numeric/matrix.hpp"

namespace spiv::smt {

enum class Engine {
  Sylvester,
  SympyGauss,
  Ldlt,
  SmtZ3Style,
  SmtCvc5Style,
};

[[nodiscard]] std::string to_string(Engine e);
/// Inverse of to_string ("sylvester", ...); nullopt for unknown names.
[[nodiscard]] std::optional<Engine> engine_from_string(const std::string& name);

struct CheckOptions {
  bool det_encoding = false;  ///< the paper's "+det" reformulation
  Deadline deadline{};
};

enum class Outcome { Valid, Invalid, Timeout };

/// Result of one positive-definiteness query.
struct Verdict {
  Outcome outcome = Outcome::Timeout;
  /// For Invalid: an exact vector w with w^T M w <= 0, when the engine
  /// produced one.
  std::optional<std::vector<exact::Rational>> witness;
  double seconds = 0.0;
};

/// Decide strict positive-definiteness of a symmetric rational matrix.
[[nodiscard]] Verdict check_positive_definite(const exact::RatMatrix& m,
                                              Engine engine,
                                              const CheckOptions& options = {});

/// Validation of a candidate quadratic Lyapunov function for wdot = A w:
/// both conditions (positivity of P and negativity of the Lie derivative).
struct LyapunovValidation {
  Verdict positivity;
  Verdict decrease;
  [[nodiscard]] bool valid() const {
    return positivity.outcome == Outcome::Valid &&
           decrease.outcome == Outcome::Valid;
  }
  [[nodiscard]] double seconds() const {
    return positivity.seconds + decrease.seconds;
  }
};

/// Exact-rationalize A, round candidate P to `digits` significant decimal
/// figures (paper protocol; digits = 0 keeps the binary-exact value), and
/// validate both Lyapunov conditions with the chosen engine.
[[nodiscard]] LyapunovValidation validate_lyapunov(
    const numeric::Matrix& a, const numeric::Matrix& p, Engine engine,
    int digits = 10, const CheckOptions& options = {});

/// Round-and-rationalize helper shared by the validation harness.
[[nodiscard]] exact::RatMatrix rationalize(const numeric::Matrix& m,
                                           int digits);

}  // namespace spiv::smt
