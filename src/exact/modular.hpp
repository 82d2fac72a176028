// spiv::exact — multi-modular and p-adic exact linear algebra.
//
// The paper's eq-smt method (§VI-B1) solves the Lyapunov equation in exact
// rational arithmetic; fraction-free Bareiss over ever-growing BigInt
// entries is its dominant cost (Table I: 0.56 s at size 5, timeout at 10+).
// This module replaces that with the standard fast paths of exact linear
// algebra.
//
// Linear solves use Dixon p-adic lifting (Dixon 1982, Numer. Math. 40; as
// in IML, Chen–Storjohann ISSAC 2005): the (denominator-cleared) integer
// system M X = R is factorised once modulo one ~62-bit prime p, and each
// lifting step then costs one O(N²k) triangular solve mod p plus one sparse
// integer residual update, yielding the next p-adic digit of X.  At
// doubling checkpoints the digits are converted to X mod p^L through a
// balanced product tree (entry blocks fan out via core::for_each_block) and
// Wang-style rational reconstruction is tried; a Hadamard bound caps L,
// and an exact A·X = B recheck makes the early exit sound.  A shared
// denominator (every denominator divides det(M) by Cramer) turns most
// per-entry reconstructions into a single mulmod + gcd instead of an
// extended-Euclid pass; once it has settled, the per-entry pass fans out
// over entry blocks too.  Every step is a pure function of the input, so
// any SPIV_JOBS gives bit-identical results.
//
// Determinants (the charpoly engine) still run per-prime elimination and
// a CRT fold through a balanced product tree, to the full Hadamard budget.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exact/matrix.hpp"
#include "exact/timeout.hpp"

namespace spiv::exact {

/// Per-solve statistics (also mirrored into the obs registry).
struct ModularStats {
  /// p-adic digits lifted (solves) or lucky primes folded into the CRT
  /// (determinants).
  std::uint64_t primes_used = 0;
  std::uint64_t unlucky_primes = 0;  ///< det == 0 mod p, skipped
  bool early_exit = false;  ///< reconstruction succeeded below the bound
  // Inside reconstruction (where the exact solve spends most of its time).
  std::uint64_t attempts = 0;      ///< trial reconstruction passes run
  std::uint64_t euclid_calls = 0;  ///< per-entry extended-Euclid runs
  /// Entries the shared-denominator mulmod recovered, and tries of it that
  /// fell back to Euclid.  Which route serves an entry can vary with jobs;
  /// the reconstructed value cannot.
  std::uint64_t shared_den_hits = 0;
  std::uint64_t shared_den_misses = 0;
  // Per-phase wall-clock split of this solve (driver-attributed seconds,
  // wall time of any fan-out, not summed worker time).  For a solve,
  // "elim" is denominator clearing, the factorisation mod p and the
  // lifting steps, and "crt" the p-adic -> integer conversion; for a
  // determinant they are the per-prime eliminations and the CRT fold.  The same split feeds the
  // spiv_modular_elim / crt / reconstruct / verify histograms and
  // BENCH_exact_solvers.json.
  double elim_seconds = 0;
  double crt_seconds = 0;
  double reconstruct_seconds = 0;
  double verify_seconds = 0;
};

struct ModularOptions {
  /// Fan-out width cap for the entry-block p-adic conversion and
  /// reconstruction, the A·X == B recheck, and the determinant's per-prime
  /// fan-out and CRT fold: 0 = $SPIV_JOBS (else hardware_concurrency),
  /// 1 = serial on the calling thread.  Results are identical for any
  /// value.
  std::size_t jobs = 0;
  ModularStats* stats = nullptr;  ///< optional out-param
};

/// The i-th prime of the deterministic, descending sequence of ~62-bit
/// primes every modular solve draws from: a solve factorises modulo the
/// first one that is lucky, a determinant folds them all in order (exposed
/// so tests can build "unlucky prime" instances whose determinant vanishes
/// mod a known prime).
[[nodiscard]] std::uint64_t modular_prime(std::size_t index);

/// Exact solve A X = B for square A by Dixon p-adic lifting.  Every
/// returned matrix is a proven solution (exact A·X == B recheck).  Returns
/// nullopt only on a proof that A is singular: the unlucky primes, each of
/// which divides det(A), multiply past the Hadamard bound on |det(A)|.
/// Throws TimeoutError when `deadline` expires, and std::logic_error if
/// reconstruction fails at the full Hadamard budget (an internal invariant
/// violation: Cramer's rule guarantees it succeeds there).
[[nodiscard]] std::optional<RatMatrix> solve_rational_modular(
    const RatMatrix& a, const RatMatrix& b, const Deadline& deadline = {},
    const ModularOptions& options = {});

/// Exact determinant by per-prime elimination + CRT, run to the full
/// Hadamard budget (no early exit, hence deterministic with no recheck
/// needed).  Every node of the interpolation charpoly engine runs on it.
[[nodiscard]] Rational determinant_modular(const RatMatrix& m,
                                           const Deadline& deadline = {},
                                           const ModularOptions& options = {});

/// Montgomery arithmetic modulo an odd prime p < 2^62.  Values live in
/// Montgomery form (x·2^64 mod p); a multiply is two 64x64->128 products
/// and a conditional subtract — no division anywhere in the elimination
/// kernel.  Exposed for the micro benchmarks and kernel unit tests.
class Montgomery62 {
 public:
  explicit Montgomery62(std::uint64_t p);

  [[nodiscard]] std::uint64_t modulus() const { return p_; }
  /// 1 in Montgomery form.
  [[nodiscard]] std::uint64_t one() const { return r1_; }
  /// x < p into Montgomery form.
  [[nodiscard]] std::uint64_t to_mont(std::uint64_t x) const {
    return mul(x, r2_);
  }
  /// Montgomery form back to a plain residue in [0, p).
  [[nodiscard]] std::uint64_t from_mont(std::uint64_t x) const {
    return redc(x);
  }
  [[nodiscard]] std::uint64_t add(std::uint64_t a, std::uint64_t b) const {
    const std::uint64_t s = a + b;  // a, b < p < 2^62: no wrap
    return s >= p_ ? s - p_ : s;
  }
  [[nodiscard]] std::uint64_t sub(std::uint64_t a, std::uint64_t b) const {
    return a >= b ? a - b : a + (p_ - b);
  }
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const {
    return redc(static_cast<unsigned __int128>(a) * b);
  }
  /// Inverse of a nonzero Montgomery-form value (Fermat: a^(p-2)).
  [[nodiscard]] std::uint64_t inv(std::uint64_t a_mont) const;
  /// Σ_j mul(a[j], b[j]) over `len` terms with one reduction per four
  /// products: each product is below p², and four of them stay below
  /// p·2^64 (p < 2^62), the input range of one Montgomery reduction.
  [[nodiscard]] std::uint64_t dot(const std::uint64_t* a,
                                  const std::uint64_t* b,
                                  std::size_t len) const {
    using U128 = unsigned __int128;
    std::uint64_t acc = 0;
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4)
      acc = add(acc, redc(static_cast<U128>(a[j]) * b[j] +
                          static_cast<U128>(a[j + 1]) * b[j + 1] +
                          static_cast<U128>(a[j + 2]) * b[j + 2] +
                          static_cast<U128>(a[j + 3]) * b[j + 3]));
    for (; j < len; ++j) acc = add(acc, mul(a[j], b[j]));
    return acc;
  }

 private:
  [[nodiscard]] std::uint64_t redc(unsigned __int128 t) const {
    const std::uint64_t m = static_cast<std::uint64_t>(t) * ninv_;
    const unsigned __int128 s = t + static_cast<unsigned __int128>(m) * p_;
    const std::uint64_t r = static_cast<std::uint64_t>(s >> 64);
    return r >= p_ ? r - p_ : r;
  }

  std::uint64_t p_;     ///< modulus
  std::uint64_t ninv_;  ///< -p^{-1} mod 2^64
  std::uint64_t r1_;    ///< 2^64 mod p
  std::uint64_t r2_;    ///< 2^128 mod p
};

/// Wang-style rational reconstruction: the unique n/d with |n|, d <= bound,
/// gcd(n, d) = 1 and n == u·d (mod m), if one exists.  `bound` defaults to
/// the balanced floor(sqrt((m-1)/2)) when callers pass none.
[[nodiscard]] std::optional<Rational> rational_reconstruct(const BigInt& u,
                                                           const BigInt& m,
                                                           const BigInt& bound);

namespace detail {

struct IntSystem;  // exact/int_system.hpp

/// Batched CRT fold (exposed for micro benchmarks and determinism tests).
/// `residues[i][e]` is the plain residue of entry e modulo `primes[i]`
/// (all primes distinct, odd, < 2^62, and coprime to m).  Afterwards every
/// xs[e] is the unique value in [0, m·Πp) congruent to its old self mod m
/// and to residues[i][e] mod primes[i], and m has been multiplied by Πp.
/// The per-prime deltas are combined through a balanced product tree and
/// the per-entry folds fan out over `jobs` workers in entry blocks; the
/// result is a pure function of (xs, m, residues, primes) — bit-identical
/// for any jobs value.
void crt_fold_batch(std::vector<BigInt>& xs, BigInt& m,
                    const std::vector<const std::uint64_t*>& residues,
                    const std::vector<std::uint64_t>& primes,
                    std::size_t jobs);

/// Dixon p-adic lifting of the integer system M X = R (n x n, n x k).
/// One LU factorisation of M mod p; then step() appends the next p-adic
/// digit Y_L = M^{-1} R_L mod p and updates the residual
/// R_{L+1} = (R_L - M Y_L) / p, an exact division.  After L steps
/// X ≡ Σ_{i<L} Y_i p^i (mod p^L).  The residual stays below
/// max(|R|, max row 1-norm of M) in magnitude, so it lives in a fixed
/// number of 64-bit words (2 at the paper's sizes) and a step is O(N²k)
/// word operations — no BigInt.
class DixonLift {
 public:
  /// Factorise M modulo modular_prime(0), modular_prime(1), ... until one
  /// is lucky (M invertible mod p).  Every unlucky prime divides det(M);
  /// once their product passes sys.det_bound_bits, M is proven singular
  /// and this returns nullopt.  `unlucky` receives the number of primes
  /// skipped.  Throws TimeoutError when `deadline` expires.
  [[nodiscard]] static std::optional<DixonLift> start(const IntSystem& sys,
                                                      const Deadline& deadline,
                                                      std::uint64_t& unlucky);

  /// Lift one more digit.
  void step();

  [[nodiscard]] std::uint64_t prime() const { return mont_.modulus(); }
  [[nodiscard]] std::size_t digits() const { return lifted_; }
  /// Digit i (plain residues in [0, p)), row-major n x k.
  [[nodiscard]] const std::uint64_t* digit(std::size_t i) const {
    return digits_.data() + i * width_;
  }

 private:
  DixonLift(std::uint64_t p, std::size_t n, std::size_t k);
  /// LU-factorise M mod p; false when M is singular mod p (unlucky).
  [[nodiscard]] bool factorise(const IntSystem& sys, const Deadline& deadline);
  /// M's nonzeros and the initial residual R as fixed-width integers.
  void load(const IntSystem& sys);
  /// Canonical residue mod p of a words_-word two's-complement value.
  [[nodiscard]] std::uint64_t words_mod(const std::uint64_t* a) const;

  Montgomery62 mont_;
  std::size_t n_, k_, width_;  ///< width_ = n·k entries per digit
  std::vector<std::uint64_t> lu_;     ///< n x n Montgomery form, L below diag
  std::vector<std::size_t> swaps_;    ///< pivot row chosen at each column
  std::vector<std::uint64_t> dinv_;   ///< U(i,i)^{-1}, Montgomery form
  std::size_t words_ = 0;             ///< two's-complement words per value
  std::vector<std::size_t> row_start_, cols_;  ///< M's nonzeros (CSR)
  std::vector<std::uint64_t> vals_;   ///< words_ words per nonzero
  std::vector<std::uint64_t> res_;    ///< residual, words_ per entry
  std::vector<std::uint64_t> res_mod_;  ///< residual mod p, per entry
  std::uint64_t p_inv_ = 0;  ///< p^{-1} mod 2^64 (exact division)
  std::uint64_t wrap_mod_ = 0;  ///< 2^(64·words_) mod p
  std::vector<std::uint64_t> digits_;
  std::size_t lifted_ = 0;  ///< digits so far (k may be 0)
};

/// P-adic fold (the Dixon counterpart of crt_fold_batch): digit i of entry
/// e is digits[i·entries + e], in [0, p), for i < count.  Afterwards every
/// xs[e] has grown by m·Σ_i digit_i·p^i and m has been multiplied by
/// p^count.  The digit sum is combined through a balanced product tree
/// (lo + p^h·hi) and entry blocks fan out over `jobs` workers; the result
/// is bit-identical for any jobs value.
void padic_fold(std::vector<BigInt>& xs, BigInt& m,
                const std::uint64_t* digits, std::size_t count,
                std::uint64_t p, std::size_t jobs);

}  // namespace detail

}  // namespace spiv::exact
