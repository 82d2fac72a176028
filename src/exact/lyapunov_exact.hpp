// spiv::exact — exact (symbolic) solution of the continuous-time Lyapunov
// equation  A^T P + P A + Q = 0.
//
// This is the paper's `eq-smt` synthesis method: the equation is turned into
// a linear system over the n(n+1)/2 distinct entries of the symmetric P
// (the "vech" parameterization) and solved exactly by the multi-modular
// solver.  The paper's Bareiss-style elimination times out at sizes 15/18;
// budgets are still enforced through the cooperative Deadline.
#pragma once

#include <optional>

#include "exact/matrix.hpp"
#include "exact/timeout.hpp"

namespace spiv::exact {

/// Index of entry (i, j), i >= j, in the vech (column-stacked lower
/// triangle) ordering of a symmetric n x n matrix.
[[nodiscard]] std::size_t vech_index(std::size_t i, std::size_t j,
                                     std::size_t n);

/// vech(M): stack the lower triangle of symmetric M column by column.
[[nodiscard]] std::vector<Rational> vech(const RatMatrix& m);

/// Inverse of vech for an n x n symmetric matrix.
[[nodiscard]] RatMatrix unvech(const std::vector<Rational>& v, std::size_t n);

/// The matrix of the linear map P -> A^T P + P A restricted to symmetric
/// matrices, in vech coordinates (size N x N with N = n(n+1)/2).
[[nodiscard]] RatMatrix lyapunov_operator_vech(const RatMatrix& a,
                                               const Deadline& deadline = {});

/// Solve A^T P + P A + Q = 0 exactly for symmetric P by the multi-modular
/// solver (exact/modular.hpp).  Q must be symmetric.  Returns nullopt when
/// the Lyapunov operator is proven singular (i.e. A and -A share an
/// eigenvalue).  A returned P has an exactly zero residual.  Throws
/// TimeoutError when the deadline expires mid-solve.
[[nodiscard]] std::optional<RatMatrix> solve_lyapunov_exact(
    const RatMatrix& a, const RatMatrix& q, const Deadline& deadline = {});

/// Batched variant: solve A^T P_c + P_c A + Q_c = 0 for every Q in `qs`
/// against the SAME A.  The Lyapunov operator is assembled once and all
/// right-hand sides share its one factorisation mod p, so k solves cost
/// far less than k separate ones.  Every out[c] is empty iff the operator is
/// singular.  Throws TimeoutError on deadline.
[[nodiscard]] std::vector<std::optional<RatMatrix>> solve_lyapunov_exact_multi(
    const RatMatrix& a, const std::vector<RatMatrix>& qs,
    const Deadline& deadline = {});

/// Residual A^T P + P A + Q (all-zero iff P solves the equation).
[[nodiscard]] RatMatrix lyapunov_residual(const RatMatrix& a,
                                          const RatMatrix& p,
                                          const RatMatrix& q);

}  // namespace spiv::exact
