// spiv::exact — Sylvester's criterion on integer matrices.
//
// The `sylvester` validation engine decides strict positive-definiteness
// of a symmetric rational matrix M.  It clears denominators once
// (M = S / d with d > 0, so S and M have the same definiteness) and runs
// fraction-free elimination with exact division (Bareiss) on S.  The k-th
// pivot is then the k-th leading principal minor of S, so M is positive
// definite iff every pivot is positive, and the last pivot is det(S).  No
// rational normalization (gcd) runs on this path.
#pragma once

#include <cstddef>
#include <vector>

#include "exact/bigint.hpp"
#include "exact/matrix.hpp"
#include "exact/timeout.hpp"

namespace spiv::exact {

/// Dense square matrix of BigInt entries (row-major).
class IntMatrix {
 public:
  explicit IntMatrix(std::size_t n = 0) : n_(n), data_(n * n) {}

  /// S with m = S / d for d = the lcm of m's denominators (d > 0).
  /// Requires a square matrix.
  [[nodiscard]] static IntMatrix cleared(const RatMatrix& m);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] BigInt& operator()(std::size_t r, std::size_t c) {
    return data_[r * n_ + c];
  }
  [[nodiscard]] const BigInt& operator()(std::size_t r, std::size_t c) const {
    return data_[r * n_ + c];
  }

 private:
  std::size_t n_;
  std::vector<BigInt> data_;
};

/// -(A^T P + P A) for a symmetric P of the same size as A.  With
/// A = A_int / a and P = P_int / p (a, p > 0) this is the Lie matrix
/// -(A^T P + P A) scaled by the positive factor a * p.
[[nodiscard]] IntMatrix lie_matrix(const IntMatrix& a, const IntMatrix& p);

/// True iff every leading principal minor of the symmetric matrix `s` is
/// strictly positive (Sylvester's criterion); stops at the first pivot
/// that is not.  Reads only the upper triangle.  Polls `deadline` once per
/// column and once per eliminated row, and throws TimeoutError when it
/// has expired.
[[nodiscard]] bool leading_minors_positive(IntMatrix s,
                                           const Deadline& deadline = {});

}  // namespace spiv::exact
