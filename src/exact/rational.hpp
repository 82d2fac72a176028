// spiv::exact — exact rational numbers on top of BigInt.
//
// Rational is the scalar type of the symbolic validation layer: candidate
// Lyapunov matrices are rounded to a fixed number of significant decimal
// digits, converted losslessly to Rational, and all positive-definiteness /
// Lie-derivative checks are carried out in exact arithmetic.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "exact/bigint.hpp"

namespace spiv::exact {

/// Exact rational number.
///
/// Invariants: denominator > 0; gcd(|num|, den) == 1; zero is 0/1.
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}

  Rational(std::int64_t v) : num_(v), den_(1) {}  // NOLINT: literal convenience

  /// num/den, normalized. Throws std::domain_error if den == 0.
  Rational(BigInt num, BigInt den);

  Rational(std::int64_t num, std::int64_t den)
      : Rational(BigInt{num}, BigInt{den}) {}

  /// num/den taken as already in lowest terms: the caller has proven
  /// den > 0 and gcd(|num|, den) == 1 (zero must arrive as 0/1), so no
  /// gcd is run.  For reconstruction sites that computed that gcd anyway.
  [[nodiscard]] static Rational from_lowest_terms(BigInt num, BigInt den);

  /// Parse "a", "a/b" or decimal "a.b" / "-a.bEk" notation (exact).
  explicit Rational(std::string_view text);

  /// Exact conversion of a finite double (every finite double is a rational
  /// with power-of-two denominator).  Throws std::domain_error on NaN/inf.
  [[nodiscard]] static Rational from_double_exact(double v);

  /// Decimal rounding of `v` to `digits` significant figures, returned as an
  /// exact rational (e.g. 0.0123456, 3 digits -> 123/10000).  This mirrors
  /// the paper's rounding of synthesized Lyapunov matrices before symbolic
  /// validation.  digits must be >= 1.
  [[nodiscard]] static Rational from_double_rounded(double v, int digits);

  [[nodiscard]] const BigInt& num() const { return num_; }
  [[nodiscard]] const BigInt& den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_.is_zero(); }
  [[nodiscard]] bool is_negative() const { return num_.is_negative(); }
  [[nodiscard]] bool is_one() const { return num_.is_one() && den_.is_one(); }
  [[nodiscard]] int sign() const { return num_.sign(); }

  [[nodiscard]] Rational abs() const;
  [[nodiscard]] Rational reciprocal() const;

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational a, const Rational& b) { return a += b; }
  friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
  friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
  friend Rational operator/(Rational a, const Rational& b) { return a /= b; }
  Rational operator-() const;

  friend bool operator==(const Rational& a, const Rational& b) {
    return a.num_ == b.num_ && a.den_ == b.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

  [[nodiscard]] Rational pow(int e) const;

  /// The truncated quotient num * 2^s / den (about 64 bits) converted by
  /// BigInt::to_double and scaled back by 2^-s.  Like BigInt::to_double it
  /// rounds twice, so it can miss the nearest double by one ulp (e.g.
  /// (2^63 + 2^10) * 2^8 + 1 gives 2^71); eq-smt's double P depends on
  /// exactly these bits.
  [[nodiscard]] double to_double() const;
  [[nodiscard]] std::string to_string() const;

  /// Total bit size of numerator+denominator (coefficient-growth metric).
  [[nodiscard]] std::size_t bit_size() const {
    return num_.bit_length() + den_.bit_length();
  }

  friend std::ostream& operator<<(std::ostream& os, const Rational& v);

 private:
  BigInt num_;
  BigInt den_;  // > 0

  void normalize();
};

/// min/max by value.
[[nodiscard]] inline const Rational& min(const Rational& a, const Rational& b) {
  return b < a ? b : a;
}
[[nodiscard]] inline const Rational& max(const Rational& a, const Rational& b) {
  return a < b ? b : a;
}

/// Integer square-root helper: largest s with s*s <= v (v >= 0).
[[nodiscard]] BigInt isqrt(const BigInt& v);

/// Rational sqrt bracket: returns (lo, hi) with lo^2 <= v <= hi^2 and
/// hi - lo <= 1/2^precision_bits.  Used to compare quantities involving
/// square roots without leaving exact arithmetic.
[[nodiscard]] std::pair<Rational, Rational> sqrt_bracket(const Rational& v,
                                                         unsigned precision_bits);

}  // namespace spiv::exact
