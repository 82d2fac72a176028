// Exact modular solver: Montgomery kernel units, Dixon p-adic lifting and
// its digit conversion, rational reconstruction, and (the property the
// whole module hangs on) bit-identical agreement with fraction-free
// Bareiss.
#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "exact/int_system.hpp"
#include "exact/lyapunov_exact.hpp"
#include "exact/matrix.hpp"
#include "exact/modular.hpp"
#include "obs/metrics.hpp"

namespace spiv::exact {
namespace {

RatMatrix random_matrix(std::mt19937_64& rng, std::size_t n, std::size_t m) {
  std::uniform_int_distribution<std::int64_t> num{-9, 9};
  std::uniform_int_distribution<std::int64_t> den{1, 6};
  RatMatrix out{n, m};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < m; ++j) out(i, j) = Rational{num(rng), den(rng)};
  return out;
}

/// Diagonally dominant => nonsingular (and Hurwitz after the shift).
RatMatrix random_stable(std::mt19937_64& rng, std::size_t n) {
  RatMatrix a = random_matrix(rng, n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= Rational{40};
  return a;
}

// ---------------------------------------------------------------- kernel

TEST(Montgomery62, RoundTripAndArithmeticMatchReference) {
  const std::uint64_t p = modular_prime(0);
  const Montgomery62 mont{p};
  std::mt19937_64 rng{42};
  std::uniform_int_distribution<std::uint64_t> dist{0, p - 1};
  EXPECT_EQ(mont.from_mont(mont.one()), 1u);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t a = dist(rng);
    const std::uint64_t b = dist(rng);
    EXPECT_EQ(mont.from_mont(mont.to_mont(a)), a);
    const std::uint64_t prod = mont.from_mont(mont.mul(mont.to_mont(a), mont.to_mont(b)));
    const auto ref = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(a) * b % p);
    EXPECT_EQ(prod, ref);
    EXPECT_EQ(mont.from_mont(mont.add(mont.to_mont(a), mont.to_mont(b))),
              (a + b) % p);
    const std::uint64_t diff = a >= b ? a - b : a + p - b;
    EXPECT_EQ(mont.from_mont(mont.sub(mont.to_mont(a), mont.to_mont(b))), diff);
    if (a != 0) {
      const std::uint64_t inv = mont.inv(mont.to_mont(a));
      EXPECT_EQ(mont.from_mont(mont.mul(inv, mont.to_mont(a))), 1u);
    }
  }
}

TEST(Montgomery62, RejectsBadModulus) {
  EXPECT_THROW(Montgomery62{0}, std::invalid_argument);
  EXPECT_THROW(Montgomery62{10}, std::invalid_argument);  // even
  EXPECT_THROW(Montgomery62{std::uint64_t{1} << 62}, std::invalid_argument);
}

TEST(ModularPrime, DeterministicDescendingOddSequence) {
  const std::uint64_t p0 = modular_prime(0);
  EXPECT_EQ(p0, modular_prime(0));  // cached, stable
  EXPECT_LT(p0, std::uint64_t{1} << 62);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t p = modular_prime(i);
    EXPECT_EQ(p & 1u, 1u);
    if (i > 0) EXPECT_LT(p, modular_prime(i - 1));
    // Spot-check primality against small factors.
    for (std::uint64_t d : {3ull, 5ull, 7ull, 11ull, 13ull, 101ull})
      EXPECT_NE(p % d, 0u) << "prime " << i;
  }
}

// -------------------------------------------------------- reconstruction

TEST(RationalReconstruct, RecoversSmallFractions) {
  const BigInt m{1000003};  // prime
  const BigInt bound = isqrt((m - BigInt{1}) / BigInt{2});
  // u = num * den^-1 mod m, computed by brute-force search of the inverse.
  auto encode = [&](std::int64_t num, std::int64_t den) {
    std::int64_t inv = 0;
    for (std::int64_t t = 1; t < 1000003; ++t)
      if (t * den % 1000003 == 1) {
        inv = t;
        break;
      }
    std::int64_t u = (num % 1000003 + 1000003) % 1000003;
    u = u * inv % 1000003;
    return BigInt{u};
  };
  for (auto [num, den] : {std::pair<std::int64_t, std::int64_t>{22, 7},
                          {-3, 5},
                          {0, 1},
                          {137, 1},
                          {-1, 99}}) {
    auto r = rational_reconstruct(encode(num, den), m, bound);
    ASSERT_TRUE(r.has_value()) << num << "/" << den;
    EXPECT_EQ(*r, Rational(num, den));
  }
}

/// a^{-1} mod m by extended Euclid (gcd(a, m) == 1).
BigInt inverse_mod(const BigInt& a, const BigInt& m) {
  BigInt r0 = m, r1 = a % m, t0{0}, t1{1};
  while (!r1.is_zero()) {
    auto [q, r2] = BigInt::div_mod(r0, r1);
    r0 = std::move(r1);
    r1 = std::move(r2);
    BigInt t2 = t0 - q * t1;
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  return t0.is_negative() ? t0 + m : t0;
}

TEST(RationalReconstruct, RecoversFractionsJustUnderTheBound) {
  // Multi-word fractions a few bits under the balanced bound, where the
  // Lehmer rounds must stop before stepping over the first remainder at
  // or below it.
  const BigInt m = BigInt{static_cast<std::int64_t>(modular_prime(0))}.pow(10);
  const BigInt bound = isqrt((m - BigInt{1}) / BigInt{2});
  std::mt19937_64 rng{7020};
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t bits = bound.bit_length() - 1 - iter % 5;
    auto random_bits = [&rng](std::size_t nbits) {
      BigInt v{1};
      while (v.bit_length() < nbits)
        v = v.shifted_left(31) + BigInt{static_cast<std::int64_t>(rng() >> 33)};
      return v.shifted_right(v.bit_length() - nbits);
    };
    BigInt num = random_bits(bits);
    BigInt den = random_bits(bits - iter % 3);
    const BigInt g = BigInt::gcd(num, den);
    num /= g;
    den /= g;
    if (iter % 2) num = num.negated();
    BigInt u = num % m * inverse_mod(den, m) % m;
    if (u.is_negative()) u += m;
    const auto r = rational_reconstruct(u, m, bound);
    ASSERT_TRUE(r.has_value()) << iter;
    EXPECT_EQ(*r, Rational(num, den)) << iter;
  }
}

TEST(RationalReconstruct, RejectsValuesOutsideTheBound) {
  // With bound floor(sqrt((m-1)/2)) ~ 707, a residue encoding 1234/1235
  // (both above the bound) has no admissible representative.
  const BigInt m{1000003};
  const BigInt bound{20};
  auto r = rational_reconstruct(BigInt{987654}, m, bound);
  EXPECT_FALSE(r.has_value());
}

// ------------------------------------------------------------ p-adic lift

/// Σ_i digits[i·entries + e]·p^i by Horner, the reference for padic_fold.
BigInt horner(const std::vector<std::uint64_t>& digits, std::size_t count,
              std::size_t entries, std::size_t e, std::uint64_t p) {
  BigInt x;
  for (std::size_t i = count; i-- > 0;)
    x = x * BigInt{static_cast<std::int64_t>(p)} +
        BigInt{static_cast<std::int64_t>(digits[i * entries + e])};
  return x;
}

TEST(PadicFold, BalancedConversionMatchesHorner) {
  const std::uint64_t p = modular_prime(0);
  const std::size_t entries = 7;
  std::mt19937_64 rng{7300};
  std::uniform_int_distribution<std::uint64_t> digit{0, p - 1};
  for (std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{8}, std::size_t{13}, std::size_t{64},
                            std::size_t{65}}) {
    std::vector<std::uint64_t> digits(count * entries);
    for (std::uint64_t& d : digits) d = digit(rng);
    digits[0] = 0;                      // a zero low digit
    digits[digits.size() - 1] = p - 1;  // the largest top digit
    for (std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
      std::vector<BigInt> xs(entries);
      BigInt m{1};
      detail::padic_fold(xs, m, digits.data(), count, p, jobs);
      EXPECT_EQ(m, BigInt{static_cast<std::int64_t>(p)}.pow(
                       static_cast<unsigned>(count)));
      for (std::size_t e = 0; e < entries; ++e)
        EXPECT_EQ(xs[e], horner(digits, count, entries, e, p))
            << "count=" << count << " jobs=" << jobs << " entry " << e;
      // Folding in two pieces (as the checkpoints do) gives the same value.
      const std::size_t head = count / 2;
      std::vector<BigInt> ys(entries);
      BigInt m2{1};
      detail::padic_fold(ys, m2, digits.data(), head, p, jobs);
      detail::padic_fold(ys, m2, digits.data() + head * entries, count - head,
                         p, jobs);
      EXPECT_EQ(ys, xs) << "count=" << count << " jobs=" << jobs;
      EXPECT_EQ(m2, m);
    }
  }
}

TEST(DixonLift, DigitsSolveTheSystemModuloPToTheL) {
  // The lifting invariant: after L steps, x_L = Σ_{i<L} y_i p^i satisfies
  // M·x_L ≡ R (mod p^L), for every right-hand side column.  Checked on a
  // rational system (row scaling in play) with two right-hand sides.
  std::mt19937_64 rng{7310};
  const RatMatrix a = random_stable(rng, 9);
  const RatMatrix b = random_matrix(rng, 9, 2);
  const detail::IntSystem sys = detail::clear_denominators(a, &b);
  std::uint64_t unlucky = 99;
  auto lift = detail::DixonLift::start(sys, Deadline{}, unlucky);
  ASSERT_TRUE(lift.has_value());
  EXPECT_EQ(unlucky, 0u);
  EXPECT_EQ(lift->prime(), modular_prime(0));
  const std::size_t n = 9, k = 2;
  std::vector<BigInt> xs(n * k);
  BigInt m{1};
  std::size_t converted = 0;
  for (std::size_t checkpoint : {std::size_t{1}, std::size_t{4},
                                 std::size_t{16}}) {
    while (lift->digits() < checkpoint) lift->step();
    ASSERT_EQ(lift->digits(), checkpoint);
    detail::padic_fold(xs, m, lift->digit(converted), checkpoint - converted,
                       lift->prime(), 2);
    converted = checkpoint;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < k; ++c) {
        BigInt lhs = -sys.rhs[i][c];
        for (std::size_t j = 0; j < n; ++j) lhs += sys.m[i][j] * xs[j * k + c];
        EXPECT_TRUE((lhs % m).is_zero())
            << "L=" << checkpoint << " row " << i << " col " << c;
      }
  }
  // And the residue image is the true solution's: X ≡ x_L (mod p^L).
  const auto x = a.solve(b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t e = 0; e < n * k; ++e) {
    const Rational& v = (*x)(e / k, e % k);
    EXPECT_TRUE(((v.num() - v.den() * xs[e]) % m).is_zero()) << e;
  }
}

TEST(DixonLift, PivotsPastZeroDiagonalAndWideEntries) {
  // A zero diagonal forces a row swap at every column of the LU mod p,
  // and entries near 2^62 put the residual bound at 64 bits, so the
  // residual needs a second word for its sign.
  std::mt19937_64 rng{7330};
  std::uniform_int_distribution<std::int64_t> big{std::int64_t{1} << 61,
                                                  std::int64_t{1} << 62};
  for (std::size_t n : {std::size_t{2}, std::size_t{5}, std::size_t{8}}) {
    RatMatrix a = random_matrix(rng, n, n);
    for (std::size_t i = 0; i < n; ++i) a(i, i) = Rational{0};
    RatMatrix wide{n, n};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        wide(i, j) = Rational{i == j ? 0 : (rng() % 2 ? 1 : -1) * big(rng)};
    RatMatrix b = random_matrix(rng, n, 2);
    for (std::size_t i = 0; i < n; ++i)  // integers: rows stay unscaled
      for (std::size_t c = 0; c < 2; ++c)
        b(i, c) = Rational{b(i, c).num(), BigInt{1}};
    for (const RatMatrix* m : {&a, &wide}) {
      auto bareiss = m->solve(b);
      ASSERT_TRUE(bareiss.has_value()) << "n=" << n;
      auto modular = solve_rational_modular(*m, b);
      ASSERT_TRUE(modular.has_value()) << "n=" << n;
      EXPECT_EQ(*modular, *bareiss) << "n=" << n;
    }
  }
}

TEST(DixonLift, SkipsTheFirstTwoUnluckyPrimes) {
  // det(M) is divisible by modular_prime(0) and modular_prime(1), so both
  // factorisations are singular mod p and the lift starts at the third.
  RatMatrix a{{Rational{static_cast<std::int64_t>(modular_prime(0))},
               Rational{1}, Rational{0}},
              {Rational{0}, Rational{static_cast<std::int64_t>(modular_prime(1))},
               Rational{2}},
              {Rational{0}, Rational{0}, Rational{3}}};
  const RatMatrix b{{Rational{1}}, {Rational{2}}, {Rational{3}}};
  const detail::IntSystem sys = detail::clear_denominators(a, &b);
  std::uint64_t unlucky = 0;
  auto lift = detail::DixonLift::start(sys, Deadline{}, unlucky);
  ASSERT_TRUE(lift.has_value());
  EXPECT_EQ(unlucky, 2u);
  EXPECT_EQ(lift->prime(), modular_prime(2));
  // The full solve skips the same two and still matches Bareiss.
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  auto modular = solve_rational_modular(a, b, Deadline{}, options);
  auto bareiss = a.solve(b);
  ASSERT_TRUE(modular.has_value());
  ASSERT_TRUE(bareiss.has_value());
  EXPECT_EQ(*modular, *bareiss);
  EXPECT_EQ(stats.unlucky_primes, 2u);
}

// ---------------------------------------------------------------- solves

TEST(SolveRationalModular, MatchesBareissOnRandomSystems) {
  std::mt19937_64 rng{7001};
  for (std::size_t n = 2; n <= 8; ++n) {
    RatMatrix a = random_stable(rng, n);
    RatMatrix b = random_matrix(rng, n, 2);
    ModularStats stats;
    ModularOptions options;
    options.stats = &stats;
    auto modular = solve_rational_modular(a, b, Deadline{}, options);
    auto bareiss = a.solve(b);
    ASSERT_TRUE(modular.has_value()) << "n=" << n;
    ASSERT_TRUE(bareiss.has_value()) << "n=" << n;
    EXPECT_EQ(*modular, *bareiss) << "n=" << n;
    EXPECT_GE(stats.primes_used, 1u);
  }
}

TEST(SolveRationalModular, SingularSystemReturnsNullopt) {
  RatMatrix a{{Rational{1}, Rational{2}}, {Rational{2}, Rational{4}}};
  RatMatrix b{{Rational{1}}, {Rational{1}}};
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  EXPECT_FALSE(solve_rational_modular(a, b, Deadline{}, options).has_value());
  EXPECT_FALSE(a.solve(b).has_value());  // Bareiss agrees: singular
}

TEST(SolveRationalModular, NoRightHandSideColumns) {
  // k = 0: a nonsingular system has the empty solution, a singular one
  // is still proven singular.
  std::mt19937_64 rng{7009};
  const RatMatrix a = random_stable(rng, 4);
  const auto x = solve_rational_modular(a, RatMatrix{4, 0});
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(*x, RatMatrix(4, 0));
  const RatMatrix s{{Rational{1}, Rational{2}}, {Rational{2}, Rational{4}}};
  EXPECT_FALSE(solve_rational_modular(s, RatMatrix{2, 0}).has_value());
}

TEST(SolveRationalModular, SkipsSeededUnluckyPrime) {
  // det(A) == modular_prime(0), so the first prime of the sequence sees a
  // singular system and must be skipped without affecting the result.
  const auto p0 = static_cast<std::int64_t>(modular_prime(0));
  RatMatrix a{{Rational{p0}, Rational{0}, Rational{3}},
              {Rational{0}, Rational{1}, Rational{1}},
              {Rational{0}, Rational{0}, Rational{1}}};
  RatMatrix b{{Rational{1}}, {Rational{2}}, {Rational{3}}};
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  auto modular = solve_rational_modular(a, b, Deadline{}, options);
  auto bareiss = a.solve(b);
  ASSERT_TRUE(modular.has_value());
  ASSERT_TRUE(bareiss.has_value());
  EXPECT_EQ(*modular, *bareiss);
  EXPECT_EQ(stats.unlucky_primes, 1u);
}

TEST(SolveRationalModular, ResultIndependentOfJobs) {
  std::mt19937_64 rng{7003};
  RatMatrix a = random_stable(rng, 6);
  RatMatrix b = random_matrix(rng, 6, 1);
  ModularOptions serial;
  serial.jobs = 1;
  ModularOptions parallel;
  parallel.jobs = 4;
  auto x1 = solve_rational_modular(a, b, Deadline{}, serial);
  auto x4 = solve_rational_modular(a, b, Deadline{}, parallel);
  ASSERT_TRUE(x1.has_value());
  ASSERT_TRUE(x4.has_value());
  EXPECT_EQ(*x1, *x4);
}

TEST(SolveRationalModular, PaperSizeVechSystemsMatchBareissAcrossJobs) {
  // The Table I "TO" sizes: vech Lyapunov systems of matrix dimension 15
  // and 18 (120 and 171 unknowns).  Small-coefficient random A keeps the
  // Bareiss reference affordable; the property under test is the same as
  // for the engine family — the modular result is bit-identical to
  // Bareiss and independent of the worker count.
  for (std::size_t n : {std::size_t{15}, std::size_t{18}}) {
    std::mt19937_64 rng{7100 + n};
    RatMatrix a = random_stable(rng, n);
    RatMatrix op = lyapunov_operator_vech(a);
    const std::vector<Rational> v = vech(RatMatrix::identity(n) * Rational{-1});
    RatMatrix rhs{op.rows(), 1};
    for (std::size_t i = 0; i < v.size(); ++i) rhs(i, 0) = v[i];
    auto bareiss = op.solve(rhs);
    ASSERT_TRUE(bareiss.has_value()) << "n=" << n;
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      ModularStats stats;
      ModularOptions options;
      options.jobs = jobs;
      options.stats = &stats;
      auto modular = solve_rational_modular(op, rhs, Deadline{}, options);
      ASSERT_TRUE(modular.has_value()) << "n=" << n << " jobs=" << jobs;
      EXPECT_EQ(*modular, *bareiss) << "n=" << n << " jobs=" << jobs;
      EXPECT_GT(stats.primes_used, 0u);
      // The per-phase split is recorded and accounts for real time.
      EXPECT_GT(stats.elim_seconds, 0.0);
      EXPECT_GT(stats.reconstruct_seconds, 0.0);
      EXPECT_GE(stats.crt_seconds, 0.0);
      EXPECT_GE(stats.verify_seconds, 0.0);
    }
  }
}

TEST(SolveRationalModular, PerEntryReconstructionHandlesMixedDenominators) {
  // Output-sensitive reconstruction: a diagonal system whose solution
  // mixes tiny denominators (reconstructable after a handful of digits)
  // with a ~320-bit one (beyond the first checkpoints' reach), plus
  // repeats that exercise the shared-denominator fast path.
  const BigInt huge1 = BigInt{"340282366920938463463374607431768211507"};
  const BigInt huge2 = BigInt{"18446744073709551629"}.pow(5);
  const std::vector<Rational> expect = {
      Rational{1, 2},
      Rational{-3, 7},
      Rational{5},
      Rational{BigInt{7}, huge1},
      Rational{BigInt{-11}, huge2},
      Rational{BigInt{13}, huge1},   // repeated huge denominator
      Rational{0},
      Rational{1, 2},                // repeated tiny denominator
  };
  const std::size_t n = expect.size();
  RatMatrix a{n, n};
  RatMatrix b{n, 1};
  for (std::size_t i = 0; i < n; ++i) {
    // a(i,i) * x_i = 1  =>  pick a(i,i) = 1 / x_i (x_i = 0 row uses b = 0).
    if (expect[i].is_zero()) {
      a(i, i) = Rational{1};
      b(i, 0) = Rational{0};
    } else {
      a(i, i) = Rational{expect[i].den(), expect[i].num()};
      b(i, 0) = Rational{1};
    }
  }
  ModularStats stats;
  ModularOptions options;
  options.jobs = 1;
  options.stats = &stats;
  auto x = solve_rational_modular(a, b, Deadline{}, options);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ((*x)(i, 0), expect[i]) << i;
  // Checkpoints fall at 4, 8, 16, ... p-adic digits of ~62 bits.  The
  // 320-bit denominator needs a modulus beyond 640 bits, so the attempts
  // at 4 digits (248 bits) and 8 digits (496 bits) fail on it, after the
  // tiny-denominator entries before it have reconstructed.
  EXPECT_GE(stats.attempts, 2u);
}

TEST(SolveRationalModular, ParallelPassMatchesSerialOnMixedDenominators) {
  // A diagonal system scaled by 10^40 (so the solve exits at a checkpoint,
  // where the shared denominator grows from the entries): entries 0-4
  // share one denominator, so the driver settles on it and fans out; the
  // rest mix in denominators it does not divide, so the fast path misses
  // and Euclid runs inside the workers.  Which route serves an entry
  // depends on the block split, the value must not.
  const BigInt p1 = BigInt{"340282366920938463463374607431768211507"};
  const BigInt p2 = BigInt{"18446744073709551629"}.pow(3);
  const BigInt p3 = BigInt{"18446744073709551557"} * p1;
  const std::vector<BigInt> dens = {p1, p2, p1, p3, BigInt{7}, p1};
  std::vector<Rational> expect;
  for (std::int64_t i = 0; i < 5; ++i)
    expect.push_back(Rational{BigInt{2 * i + 1}, p1});
  for (std::int64_t i = 0; i < 19; ++i)
    expect.push_back(Rational{BigInt{i % 2 ? -(3 * i + 2) : 3 * i + 2},
                              dens[static_cast<std::size_t>(i) % dens.size()]});
  const std::size_t n = expect.size();
  const Rational scale{BigInt::pow10(40), BigInt{1}};
  RatMatrix a{n, n};
  RatMatrix b{n, 1};
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = Rational{expect[i].den(), expect[i].num()} * scale;
    b(i, 0) = scale;
  }
  std::vector<RatMatrix> results;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    ModularStats stats;
    ModularOptions options;
    options.jobs = jobs;
    options.stats = &stats;
    auto x = solve_rational_modular(a, b, Deadline{}, options);
    ASSERT_TRUE(x.has_value()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ((*x)(i, 0), expect[i]) << "jobs=" << jobs << " entry " << i;
    EXPECT_TRUE(stats.early_exit) << "jobs=" << jobs;
    EXPECT_GE(stats.attempts, 1u);
    EXPECT_GT(stats.shared_den_hits, 0u) << "jobs=" << jobs;
    EXPECT_GT(stats.shared_den_misses, 0u) << "jobs=" << jobs;
    EXPECT_GE(stats.euclid_calls, stats.shared_den_misses);
    results.push_back(std::move(*x));
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(SolveRationalModular, EachPhaseHistogramIsObservedOncePerSolve) {
  // Per-solve phase histograms (spivbench's exact-solver probe reads their
  // deltas around one solve): exactly one observation each, whether the
  // solve exits early, runs to the full budget, or proves singularity.
  auto& registry = obs::Registry::global();
  obs::Histogram* phases[] = {
      &registry.histogram("spiv_modular_elim_seconds"),
      &registry.histogram("spiv_modular_crt_seconds"),
      &registry.histogram("spiv_modular_reconstruct_seconds"),
      &registry.histogram("spiv_modular_verify_seconds")};
  std::mt19937_64 rng{7320};
  const RatMatrix a = random_stable(rng, 6);
  const RatMatrix b = random_matrix(rng, 6, 1);
  const Rational scale{BigInt::pow10(40), BigInt{1}};
  const RatMatrix singular{{Rational{1}, Rational{2}},
                           {Rational{2}, Rational{4}}};
  const RatMatrix singular_b{{Rational{1}}, {Rational{1}}};
  struct Case {
    const RatMatrix* a;
    const RatMatrix* b;
    bool solvable;
  };
  const RatMatrix a_scaled = a * scale;
  const RatMatrix b_scaled = b * scale;
  for (const Case& c : {Case{&a, &b, true}, Case{&a_scaled, &b_scaled, true},
                        Case{&singular, &singular_b, false}}) {
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      std::uint64_t before[4];
      for (std::size_t i = 0; i < 4; ++i) before[i] = phases[i]->count();
      ModularOptions options;
      options.jobs = jobs;
      EXPECT_EQ(solve_rational_modular(*c.a, *c.b, Deadline{}, options)
                    .has_value(),
                c.solvable);
      for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(phases[i]->count() - before[i], 1u)
            << "histogram " << i << " jobs=" << jobs;
    }
  }
}

TEST(SolveRationalModular, DeadlineExpiringMidPassRaisesOnTheDriver) {
  // Deadlines aimed at the tail of a solve, where the final reconstruction
  // pass runs on the workers.  A worker that threw would terminate the
  // process; a correct one stops at its next entry and the driver raises
  // TimeoutError.  Timing decides which phase each deadline lands in, but
  // not the property: every outcome is a TimeoutError or the exact
  // solution.
  std::mt19937_64 rng{7130};
  RatMatrix op = lyapunov_operator_vech(random_stable(rng, 15));
  const std::vector<Rational> v = vech(RatMatrix::identity(15) * Rational{-1});
  RatMatrix rhs{op.rows(), 1};
  for (std::size_t i = 0; i < v.size(); ++i) rhs(i, 0) = v[i];
  ModularStats stats;
  ModularOptions options;
  options.jobs = 4;
  options.stats = &stats;
  (void)solve_rational_modular(op, rhs, Deadline{}, options);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  const auto reference = solve_rational_modular(op, rhs, Deadline{}, options);
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(reference.has_value());
  // The reconstruction passes end just before the verify phase.
  const double pass_end = total - stats.verify_seconds;
  const double pass_seconds = stats.reconstruct_seconds;
  for (int step = 1; step <= 8; ++step) {
    const double budget = pass_end - pass_seconds * (1.0 - step / 8.0);
    try {
      auto x = solve_rational_modular(op, rhs, Deadline::after_seconds(budget),
                                      options);
      ASSERT_TRUE(x.has_value()) << budget;
      EXPECT_EQ(*x, *reference) << budget;
    } catch (const TimeoutError&) {
      // Raised on this (the driver) thread: the property under test.
    }
  }
}

TEST(SolveRationalModular, SkipsSeededUnluckyPrimeAtSize15) {
  // A 15-dimensional system whose determinant is divisible by the first
  // prime of the modular sequence: block-triangular with a(0,0) ==
  // modular_prime(0), so p0 must be rejected as unlucky at full size and
  // the result still match Bareiss bit-for-bit.
  std::mt19937_64 rng{7111};
  RatMatrix a = random_stable(rng, 15);
  for (std::size_t j = 1; j < 15; ++j) a(0, j) = Rational{0};
  for (std::size_t i = 1; i < 15; ++i) a(i, 0) = Rational{0};
  a(0, 0) = Rational{static_cast<std::int64_t>(modular_prime(0))};
  // Integer entries only: row scaling must not cancel the seeded factor.
  for (std::size_t i = 1; i < 15; ++i)
    for (std::size_t j = 1; j < 15; ++j)
      a(i, j) = Rational{a(i, j).num() * BigInt{60} / a(i, j).den(), BigInt{1}};
  RatMatrix b = random_matrix(rng, 15, 1);
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  auto modular = solve_rational_modular(a, b, Deadline{}, options);
  auto bareiss = a.solve(b);
  ASSERT_TRUE(modular.has_value());
  ASSERT_TRUE(bareiss.has_value());
  EXPECT_EQ(*modular, *bareiss);
  EXPECT_GE(stats.unlucky_primes, 1u);
}

TEST(SolveRationalModular, EarlyExitsWhenSolutionIsSmallerThanTheBound) {
  // Scaling the whole system by 10^40 inflates the Hadamard budget far
  // beyond what the (unchanged, small) solution needs; checkpointed trial
  // reconstruction should bail out long before the full prime budget.
  std::mt19937_64 rng{7005};
  RatMatrix a = random_stable(rng, 4);
  RatMatrix b = random_matrix(rng, 4, 1);
  const Rational scale{BigInt::pow10(40), BigInt{1}};
  RatMatrix a2 = a * scale;
  RatMatrix b2 = b * scale;
  ModularStats stats;
  ModularOptions options;
  options.stats = &stats;
  auto x = solve_rational_modular(a2, b2, Deadline{}, options);
  auto reference = a.solve(b);
  ASSERT_TRUE(x.has_value());
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(*x, *reference);
  EXPECT_TRUE(stats.early_exit);
}

TEST(SolveRationalModular, HonoursExpiredDeadline) {
  std::mt19937_64 rng{7007};
  RatMatrix a = random_stable(rng, 5);
  RatMatrix b = random_matrix(rng, 5, 1);
  const Deadline expired = Deadline::after_seconds(-1.0);
  EXPECT_THROW((void)solve_rational_modular(a, b, expired), TimeoutError);
}

// ----------------------------------------------------------- determinant

TEST(DeterminantModular, MatchesBareissIncludingSignAndZero) {
  std::mt19937_64 rng{7011};
  for (std::size_t n = 1; n <= 7; ++n) {
    RatMatrix m = random_matrix(rng, n, n);
    EXPECT_EQ(determinant_modular(m), m.determinant()) << "n=" << n;
  }
  // Singular: determinant is exactly zero (no "unlucky prime" confusion).
  RatMatrix s{{Rational{1}, Rational{2}}, {Rational{2}, Rational{4}}};
  EXPECT_TRUE(determinant_modular(s).is_zero());
  // Known negative determinant.
  RatMatrix neg{{Rational{0}, Rational{1}}, {Rational{1}, Rational{0}}};
  EXPECT_EQ(determinant_modular(neg), Rational{-1});
}

// ------------------------------------------------------- Lyapunov solves

/// A = S diag(1, -1, -2, ...) S^-1 for a dense unimodular integer S (unit
/// lower times unit upper triangular, so S^-1 is integral too).  The
/// eigenvalues 1 and -1 sum to zero, so the Lyapunov operator is singular.
RatMatrix singular_lyapunov_matrix(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::uniform_int_distribution<std::int64_t> entry{-2, 2};
  RatMatrix lower = RatMatrix::identity(n);
  RatMatrix upper = RatMatrix::identity(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      lower(i, j) = Rational{entry(rng)};
      upper(j, i) = Rational{entry(rng)};
    }
  const RatMatrix s = lower * upper;
  auto s_inv = s.inverse();
  RatMatrix d{n, n};
  d(0, 0) = Rational{1};
  for (std::size_t i = 1; i < n; ++i)
    d(i, i) = Rational{-static_cast<std::int64_t>(i)};
  return s * d * *s_inv;
}

TEST(SolveLyapunovExact, DenseSingularOperatorIsProvenSingular) {
  for (std::size_t n : {std::size_t{3}, std::size_t{12}}) {
    const RatMatrix a = singular_lyapunov_matrix(n, 7200 + n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ASSERT_TRUE(a(i, j).den().is_one()) << "n=" << n;
    const RatMatrix op = lyapunov_operator_vech(a);
    ASSERT_EQ(op.rows(), n * (n + 1) / 2);
    const std::vector<Rational> v = vech(RatMatrix::identity(n) * Rational{-1});
    RatMatrix rhs{op.rows(), 1};
    for (std::size_t i = 0; i < v.size(); ++i) rhs(i, 0) = v[i];
    ModularStats stats;
    ModularOptions options;
    options.stats = &stats;
    EXPECT_FALSE(solve_rational_modular(op, rhs, Deadline{}, options)
                     .has_value())
        << "n=" << n;
    // The proof: no prime was lucky, and the unlucky ones (each > 2^61,
    // each dividing det) multiply past the Hadamard bound on |det|.
    EXPECT_EQ(stats.primes_used, 0u) << "n=" << n;
    const std::size_t det_bits =
        detail::clear_denominators(op, &rhs).det_bound_bits;
    EXPECT_GE(stats.unlucky_primes * 61, det_bits) << "n=" << n;
    EXPECT_FALSE(solve_lyapunov_exact(a, RatMatrix::identity(n)).has_value())
        << "n=" << n;
    if (n == 3) {
      EXPECT_TRUE(op.determinant().is_zero());  // the Bareiss oracle agrees
    }
  }
}

TEST(SolveLyapunovExact, SmallSizesMatchTheBareissOracle) {
  // n = 1..5 (N = 1..15 unknowns): the sizes the modular path is not
  // tuned for.  The result equals Bareiss on the vech system bit for bit
  // and solves the Lyapunov equation exactly.
  std::mt19937_64 rng{7013};
  for (std::size_t n = 1; n <= 5; ++n) {
    const RatMatrix a = random_stable(rng, n);
    const RatMatrix q = RatMatrix::identity(n);
    const auto p = solve_lyapunov_exact(a, q);
    const auto oracle = lyapunov_operator_vech(a).solve(vech(-q));
    ASSERT_TRUE(p.has_value()) << "n=" << n;
    ASSERT_TRUE(oracle.has_value()) << "n=" << n;
    EXPECT_EQ(*p, unvech(*oracle, n)) << "n=" << n;
    EXPECT_EQ(lyapunov_residual(a, *p, q), RatMatrix(n, n)) << "n=" << n;
  }
}

}  // namespace
}  // namespace spiv::exact
