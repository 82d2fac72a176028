// spiv::smt — exact characteristic polynomials of rational matrices.
//
// The complete decision procedures behind the SMT-style validation engines
// (paper's Z3 / CVC5 columns in Fig. 3) reduce positive-definiteness of a
// symmetric rational matrix to a sign condition on its characteristic
// polynomial: P is PD iff all roots of det(lambda I - P) are positive,
// which for a symmetric (hence real-rooted) matrix is equivalent to the
// coefficients of det(lambda I - P) alternating strictly in sign
// (Descartes).  Two exact algorithms with different cost profiles are
// provided, mirroring two different solver back-ends.
#pragma once

#include <vector>

#include "exact/matrix.hpp"
#include "exact/timeout.hpp"

namespace spiv::smt {

/// Coefficients c of det(lambda I - M) = sum_k c[k] lambda^k
/// (monic: c[n] == 1) via the Faddeev–LeVerrier recurrence.
/// O(n) exact matrix products with substantial coefficient growth — the
/// deliberately heavyweight route (Z3-like engine).
[[nodiscard]] std::vector<exact::Rational> characteristic_polynomial_faddeev(
    const exact::RatMatrix& m, const Deadline& deadline = {});

/// Same polynomial via evaluation/interpolation: det(k I - M) at the
/// integer nodes k = 0..n followed by exact Lagrange interpolation.
/// n+1 multi-modular determinants — a different cost profile (CVC5-like
/// engine).
[[nodiscard]] std::vector<exact::Rational>
characteristic_polynomial_interpolation(const exact::RatMatrix& m,
                                        const Deadline& deadline = {});

/// Sign condition for a *symmetric* matrix with char poly c (monic,
/// degree n): all eigenvalues > 0 iff the coefficients alternate strictly:
/// sign(c[k]) == (-1)^(n-k).
[[nodiscard]] bool all_roots_positive_strict(
    const std::vector<exact::Rational>& coeffs);

/// All eigenvalues >= 0 iff coefficients alternate weakly:
/// c[k] * (-1)^(n-k) >= 0 for every k.
[[nodiscard]] bool all_roots_nonnegative(
    const std::vector<exact::Rational>& coeffs);

/// Evaluate the polynomial at x (Horner).
[[nodiscard]] exact::Rational evaluate_polynomial(
    const std::vector<exact::Rational>& coeffs, const exact::Rational& x);

}  // namespace spiv::smt
