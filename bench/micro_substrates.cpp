// Google-benchmark micro benchmarks for the substrates: exact arithmetic,
// dense linear algebra, Lyapunov solvers, LMI iterations and validation
// engines.  These quantify the building blocks behind Tables I/II.
#include <benchmark/benchmark.h>

#include <random>

#include "exact/int_system.hpp"
#include "exact/lyapunov_exact.hpp"
#include "exact/modular.hpp"
#include "lyapunov/synthesis.hpp"
#include "model/reduction.hpp"
#include "numeric/eigen.hpp"
#include "numeric/lyapunov.hpp"
#include "numeric/svd.hpp"
#include "sdp/lyapunov_lmi.hpp"
#include "smt/validate.hpp"

namespace {

using namespace spiv;
using numeric::Matrix;

Matrix random_hurwitz(std::size_t n, unsigned seed) {
  std::mt19937_64 rng{seed};
  std::normal_distribution<double> d;
  Matrix a{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = d(rng);
  const double shift = numeric::spectral_abscissa(a) + 1.0;
  for (std::size_t i = 0; i < n; ++i) a(i, i) -= shift;
  return a;
}

void BM_BigIntMultiply(benchmark::State& state) {
  const auto limbs = static_cast<unsigned>(state.range(0));
  exact::BigInt a{"123456789123456789"};
  exact::BigInt big = a.pow(limbs);
  for (auto _ : state) benchmark::DoNotOptimize(big * big);
}
BENCHMARK(BM_BigIntMultiply)->Arg(4)->Arg(16)->Arg(64);

void BM_BigIntGcd(benchmark::State& state) {
  // range(1) == 0: operands sharing a large common factor, the shape
  // Rational cross-cancellation feeds gcd(): a 60-bit base to the power
  // range(0) (about 60, 240 and 960 bits) times a 30-bit prime.
  // range(1) == 1: coprime random operands of 32 * range(0) bits (350 ->
  // 11.2k bits, a size-15 vech determinant), the det-sized pairs of the
  // modular solver's shared-denominator reconstruction.
  const auto n = static_cast<unsigned>(state.range(0));
  exact::BigInt a, b;
  if (state.range(1) == 0) {
    const exact::BigInt g = exact::BigInt{"987654321987654321"}.pow(n);
    a = g * exact::BigInt{"1000000007"};
    b = g * exact::BigInt{"998244353"};
  } else {
    std::mt19937_64 rng{n};
    for (unsigned i = 0; i < n; ++i) {
      a = a.shifted_left(32) + exact::BigInt{static_cast<std::int64_t>(rng() >> 32)};
      b = b.shifted_left(32) + exact::BigInt{static_cast<std::int64_t>(rng() >> 32)};
    }
    const exact::BigInt g = exact::BigInt::gcd(a, b);
    a /= g;  // coprime, both still ~32n bits
    b /= g;
  }
  for (auto _ : state) benchmark::DoNotOptimize(exact::BigInt::gcd(a, b));
}
BENCHMARK(BM_BigIntGcd)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({350, 1});

void BM_BigIntSmallVecAddMul(benchmark::State& state) {
  // The small-operand paths of the pooled-limb BigInt, the shape of CRT
  // delta arithmetic.  Arg(1): 27- and 30-bit operands, all on the
  // one-word int128 fast paths.  Arg(4): 108- and 120-bit operands, held
  // inline (below 2^128), whose 228-bit product takes a pooled block.
  const auto limbs = static_cast<unsigned>(state.range(0));
  const exact::BigInt a = exact::BigInt{"123456789"}.pow(limbs);
  const exact::BigInt b = exact::BigInt{"987654321"}.pow(limbs);
  for (auto _ : state) {
    exact::BigInt s = a * b;
    s += a;
    s -= b;
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_BigIntSmallVecAddMul)->Arg(1)->Arg(4);

void BM_BigIntDivMod(benchmark::State& state) {
  // One quotient-and-remainder of a range(0)-bit by a range(1)-bit random
  // operand: 38k/27k and 27k/11k bits are the reconstruction shapes of the
  // size-15 eq-smt solve (Knuth algorithm D).
  std::mt19937_64 rng{static_cast<std::uint64_t>(state.range(0))};
  auto random_bits = [&rng](std::int64_t bits) {
    exact::BigInt v{1};
    for (std::int64_t b = 1; b < bits; b += 32)
      v = v.shifted_left(32) +
          exact::BigInt{static_cast<std::int64_t>(rng() >> 32)};
    return v.shifted_right(v.bit_length() - static_cast<std::size_t>(bits));
  };
  const exact::BigInt num = random_bits(state.range(0));
  const exact::BigInt den = random_bits(state.range(1));
  for (auto _ : state)
    benchmark::DoNotOptimize(exact::BigInt::div_mod(num, den));
}
BENCHMARK(BM_BigIntDivMod)->Args({38000, 27000})->Args({27000, 11000});

void BM_CrtFold(benchmark::State& state) {
  // One product-tree batch fold of range(0) fresh primes into the 171
  // solution entries of the paper's size-15 vech system (m starts at 1:
  // the first, cheapest batch — later batches add the m-delta multiply).
  const std::size_t entries = 171;
  const auto primes_n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> primes(primes_n);
  std::vector<std::vector<std::uint64_t>> res(primes_n);
  std::vector<const std::uint64_t*> ptrs(primes_n);
  for (std::size_t i = 0; i < primes_n; ++i) {
    primes[i] = exact::modular_prime(i);
    res[i].resize(entries);
    for (std::size_t e = 0; e < entries; ++e)
      res[i][e] = (0x9e3779b97f4a7c15ull * (i * entries + e + 1)) % primes[i];
    ptrs[i] = res[i].data();
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<exact::BigInt> xs(entries);
    exact::BigInt m{1};
    state.ResumeTiming();
    exact::detail::crt_fold_batch(xs, m, ptrs, primes, 1);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_CrtFold)->Arg(8)->Arg(32);

void BM_RationalReconstruct(benchmark::State& state) {
  // Euclid pullback of one small entry whose CRT image spans range(0)
  // primes: after a few Lehmer rounds one huge quotient ends the run.
  const auto primes_n = static_cast<std::size_t>(state.range(0));
  const exact::BigInt num{"123456789123456789"};
  const exact::BigInt den{"987654321987"};
  std::vector<std::uint64_t> primes(primes_n);
  std::vector<std::uint64_t> res(primes_n);
  std::vector<const std::uint64_t*> ptrs(primes_n);
  for (std::size_t i = 0; i < primes_n; ++i) {
    primes[i] = exact::modular_prime(i);
    const exact::Montgomery62 mont{primes[i]};
    res[i] = mont.from_mont(
        mont.mul(mont.to_mont(num.mod_u64(primes[i])),
                 mont.inv(mont.to_mont(den.mod_u64(primes[i])))));
    ptrs[i] = &res[i];
  }
  std::vector<exact::BigInt> xs(1);
  exact::BigInt m{1};
  exact::detail::crt_fold_batch(xs, m, ptrs, primes, 1);
  const exact::BigInt bound =
      exact::isqrt((m - exact::BigInt{1}) / exact::BigInt{2});
  for (auto _ : state)
    benchmark::DoNotOptimize(exact::rational_reconstruct(xs[0], m, bound));
}
BENCHMARK(BM_RationalReconstruct)->Arg(8)->Arg(64)->Arg(256);

void BM_MontgomeryMulInv(benchmark::State& state) {
  // The inner product of the elimination kernels (the determinant's
  // per-prime eliminations, the lifting solve's one factorisation): one
  // Montgomery multiply per matrix entry per pivot.
  const exact::Montgomery62 mont{exact::modular_prime(0)};
  std::uint64_t x = mont.to_mont(123456789u);
  const std::uint64_t y = mont.to_mont(987654321u);
  for (auto _ : state) {
    x = mont.mul(x, y);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_MontgomeryMulInv);

void BM_DixonLiftStep(benchmark::State& state) {
  // One p-adic lifting step on the paper's size-15 vech system (N = 171
  // unknowns, the exact-eqsmt workload): a triangular solve mod p through
  // the LU factors plus the sparse fixed-width residual update.  A size-15
  // solve takes one step per digit, 433 of them.  Each step also stores
  // its 171-word digit (1.4 KB).
  for (const auto& bm : model::make_benchmark_family()) {
    if (bm.name != "size15") continue;
    const auto mode =
        model::close_loop_single_mode(bm.plant, model::engine_gains_mode0());
    const std::size_t d = mode.a.rows();
    const exact::RatMatrix op = exact::lyapunov_operator_vech(
        exact::rat_matrix_from_doubles(mode.a.data().data(), d, d, 0));
    exact::RatMatrix rhs{op.rows(), 1};
    const auto v = exact::vech(exact::RatMatrix::identity(d) * exact::Rational{-1});
    for (std::size_t i = 0; i < v.size(); ++i) rhs(i, 0) = v[i];
    const exact::detail::IntSystem sys =
        exact::detail::clear_denominators(op, &rhs);
    std::uint64_t unlucky = 0;
    auto lift = exact::detail::DixonLift::start(sys, Deadline{}, unlucky);
    for (auto _ : state) lift->step();
    state.counters["unknowns"] = static_cast<double>(op.rows());
  }
}
BENCHMARK(BM_DixonLiftStep);

void BM_ModularVsBareissSolve(benchmark::State& state) {
  // Whole-solver comparison on one vech-sized system (state.range(1) = 1
  // selects the modular backend) — the factorisation and checkpoint
  // overhead shows up as the gap between the two at small sizes.
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 11);
  exact::RatMatrix a_exact =
      exact::rat_matrix_from_doubles(a.data().data(), n, n, 4);
  exact::RatMatrix op = exact::lyapunov_operator_vech(a_exact);
  exact::RatMatrix rhs{op.rows(), 1};
  const auto v = exact::vech(exact::RatMatrix::identity(n) * exact::Rational{-1});
  for (std::size_t i = 0; i < v.size(); ++i) rhs(i, 0) = v[i];
  const bool modular = state.range(1) == 1;
  for (auto _ : state) {
    if (modular)
      benchmark::DoNotOptimize(exact::solve_rational_modular(op, rhs));
    else
      benchmark::DoNotOptimize(op.solve(rhs));
  }
}
BENCHMARK(BM_ModularVsBareissSolve)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({6, 0})
    ->Args({6, 1});

void BM_RationalMatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  exact::RatMatrix m{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      m(i, j) = exact::Rational{static_cast<std::int64_t>(i * 31 + j * 17 + 1),
                                static_cast<std::int64_t>(j + 3)};
  for (auto _ : state) benchmark::DoNotOptimize(m * m);
}
BENCHMARK(BM_RationalMatrixMultiply)->Arg(6)->Arg(13)->Arg(21);

void BM_ComplexSchur(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 1);
  for (auto _ : state) benchmark::DoNotOptimize(numeric::complex_schur(a));
}
BENCHMARK(BM_ComplexSchur)->Arg(6)->Arg(13)->Arg(21);

void BM_BartelsStewart(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 2);
  Matrix q = Matrix::identity(n);
  for (auto _ : state) benchmark::DoNotOptimize(numeric::solve_lyapunov(a, q));
}
BENCHMARK(BM_BartelsStewart)->Arg(6)->Arg(13)->Arg(21);

void BM_JacobiSvd(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 3);
  for (auto _ : state) benchmark::DoNotOptimize(numeric::svd_decompose(a));
}
BENCHMARK(BM_JacobiSvd)->Arg(6)->Arg(13)->Arg(21);

void BM_ExactLyapunovSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 4);
  exact::RatMatrix a_exact =
      exact::rat_matrix_from_doubles(a.data().data(), n, n, 4);
  exact::RatMatrix q = exact::RatMatrix::identity(n);
  for (auto _ : state)
    benchmark::DoNotOptimize(exact::solve_lyapunov_exact(a_exact, q));
}
BENCHMARK(BM_ExactLyapunovSolve)->Arg(4)->Arg(6)->Arg(8);

void BM_LmiNewtonSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 5);
  auto problem = sdp::make_lyapunov_lmi(a, sdp::LyapunovLmiConfig{});
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sdp::solve_lmi(problem, sdp::Backend::NewtonAnalyticCenter));
}
BENCHMARK(BM_LmiNewtonSolve)->Arg(6)->Arg(13);

void BM_SylvesterValidation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Matrix a = random_hurwitz(n, 6);
  auto p = numeric::solve_lyapunov(a, Matrix::identity(n));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        smt::validate_lyapunov(a, *p, smt::Engine::Sylvester, 10));
}
BENCHMARK(BM_SylvesterValidation)->Arg(6)->Arg(13)->Arg(21);

void BM_BalancedTruncation(benchmark::State& state) {
  const auto order = static_cast<std::size_t>(state.range(0));
  model::StateSpace engine = model::make_engine_model();
  for (auto _ : state)
    benchmark::DoNotOptimize(model::balanced_truncation(engine, order));
}
BENCHMARK(BM_BalancedTruncation)->Arg(3)->Arg(10)->Arg(15);

}  // namespace

BENCHMARK_MAIN();
