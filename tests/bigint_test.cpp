// Unit and property tests for spiv::exact::BigInt.
#include "exact/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>

namespace spiv::exact {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.sign(), 0);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.bit_length(), 0u);
}

TEST(BigInt, FromInt64RoundTrips) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{42}, std::int64_t{-123456789},
                         std::int64_t{1} << 40,
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    BigInt b{v};
    EXPECT_TRUE(b.fits_int64()) << v;
    EXPECT_EQ(b.to_int64(), v);
    EXPECT_EQ(b.to_string(), std::to_string(v));
  }
}

TEST(BigInt, ParseRoundTrips) {
  const std::string big = "123456789012345678901234567890123456789";
  BigInt b{big};
  EXPECT_EQ(b.to_string(), big);
  BigInt neg{"-" + big};
  EXPECT_EQ(neg.to_string(), "-" + big);
  EXPECT_FALSE(b.fits_int64());
  EXPECT_THROW(b.to_int64(), std::range_error);
}

TEST(BigInt, ParseRejectsGarbage) {
  EXPECT_THROW(BigInt{""}, std::invalid_argument);
  EXPECT_THROW(BigInt{"-"}, std::invalid_argument);
  EXPECT_THROW(BigInt{"12a3"}, std::invalid_argument);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  BigInt a{"4294967295"};  // 2^32 - 1
  BigInt one{1};
  EXPECT_EQ((a + one).to_string(), "4294967296");
  BigInt b{"18446744073709551615"};  // 2^64 - 1
  EXPECT_EQ((b + one).to_string(), "18446744073709551616");
}

TEST(BigInt, SubtractionSignHandling) {
  BigInt a{5}, b{9};
  EXPECT_EQ((a - b).to_int64(), -4);
  EXPECT_EQ((b - a).to_int64(), 4);
  EXPECT_EQ((a - a).to_int64(), 0);
  EXPECT_TRUE((a - a).is_zero());
}

TEST(BigInt, MultiplicationLarge) {
  BigInt a{"123456789012345678901234567890"};
  BigInt b{"987654321098765432109876543210"};
  EXPECT_EQ((a * b).to_string(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt{7} / BigInt{2}).to_int64(), 3);
  EXPECT_EQ((BigInt{-7} / BigInt{2}).to_int64(), -3);
  EXPECT_EQ((BigInt{7} / BigInt{-2}).to_int64(), -3);
  EXPECT_EQ((BigInt{-7} / BigInt{-2}).to_int64(), 3);
  EXPECT_EQ((BigInt{7} % BigInt{2}).to_int64(), 1);
  EXPECT_EQ((BigInt{-7} % BigInt{2}).to_int64(), -1);
  EXPECT_EQ((BigInt{7} % BigInt{-2}).to_int64(), 1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt{1} / BigInt{0}, std::domain_error);
  EXPECT_THROW(BigInt{1} % BigInt{0}, std::domain_error);
}

TEST(BigInt, MultiLimbDivisionKnuthCases) {
  // Exercises the add-back branch region: numerator close to divisor * base.
  BigInt num{"340282366920938463463374607431768211456"};  // 2^128
  BigInt den{"18446744073709551616"};                     // 2^64
  EXPECT_EQ((num / den).to_string(), "18446744073709551616");
  EXPECT_TRUE((num % den).is_zero());

  BigInt a{"123456789123456789123456789123456789"};
  BigInt b{"98765432109876543210"};
  BigInt q = a / b;
  BigInt r = a % b;
  EXPECT_EQ((q * b + r), a);
  EXPECT_LT(r.abs(), b.abs());
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt{-5}, BigInt{3});
  EXPECT_LT(BigInt{-5}, BigInt{-3});
  EXPECT_GT(BigInt{"100000000000000000000"}, BigInt{"99999999999999999999"});
  EXPECT_EQ(BigInt{7}, BigInt{"7"});
}

TEST(BigInt, GcdBasics) {
  EXPECT_EQ(BigInt::gcd(BigInt{12}, BigInt{18}).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt{-12}, BigInt{18}).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{5}).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt{0}, BigInt{0}).to_int64(), 0);
  EXPECT_EQ(BigInt::gcd(BigInt{"1000000007"}, BigInt{"998244353"}).to_int64(), 1);
}

TEST(BigInt, GcdSteinEdgeCases) {
  // Power-of-two common factors (the binary algorithm's shift bookkeeping).
  EXPECT_EQ(BigInt::gcd(BigInt{1024}, BigInt{4096}).to_int64(), 1024);
  EXPECT_EQ(BigInt::gcd(BigInt{3} * BigInt{1024}, BigInt{5} * BigInt{4096})
                .to_int64(),
            1024);
  // Equal operands, including multi-limb.
  const BigInt big{"123456789012345678901234567890"};
  EXPECT_EQ(BigInt::gcd(big, big), big);
  EXPECT_EQ(BigInt::gcd(big, big.negated()), big);
  // Common factor spanning limbs: g has > 64 bits, so the word-size kernel
  // must not engage until it has been divided out.
  const BigInt g = BigInt::pow10(25);  // ~84 bits
  EXPECT_EQ(BigInt::gcd(g * BigInt{7}, g * BigInt{9}), g);
  // Coprime multi-limb pair: both odd and differing by 2, so the gcd is 1.
  EXPECT_TRUE(
      BigInt::gcd(BigInt::pow10(30) + BigInt{1}, BigInt::pow10(30) + BigInt{3})
          .is_one());
}

TEST(BigInt, GcdMatchesEuclidReference) {
  std::mt19937_64 rng{909};
  std::uniform_int_distribution<std::int64_t> dist{-1'000'000'000,
                                                   1'000'000'000};
  for (int iter = 0; iter < 200; ++iter) {
    const std::int64_t a = dist(rng);
    const std::int64_t b = dist(rng);
    std::int64_t x = a < 0 ? -a : a;
    std::int64_t y = b < 0 ? -b : b;
    while (y != 0) {
      const std::int64_t t = x % y;
      x = y;
      y = t;
    }
    EXPECT_EQ(BigInt::gcd(BigInt{a}, BigInt{b}).to_int64(), x)
        << a << ", " << b;
  }
  // And divisibility on operands far beyond one limb.
  for (int iter = 0; iter < 20; ++iter) {
    BigInt u{dist(rng)};
    BigInt v{dist(rng)};
    const BigInt scale = BigInt::pow10(18 + iter);
    const BigInt g = BigInt::gcd(u * scale, v * scale);
    EXPECT_TRUE((u * scale % g).is_zero());
    EXPECT_TRUE((v * scale % g).is_zero());
    EXPECT_TRUE((g % scale).is_zero());  // scale divides both, so also g
  }
}

/// Reference gcd: plain Euclid on div_mod, no shortcut shared with gcd().
BigInt euclid_gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  while (!b.is_zero()) {
    BigInt r = BigInt::div_mod(a, b).second;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

/// Uniform random magnitude of exactly `limbs` 32-bit limbs (top limb
/// nonzero), random sign.
BigInt random_limbs(std::mt19937_64& rng, std::size_t limbs) {
  BigInt acc;
  for (std::size_t i = 0; i < limbs; ++i) {
    std::uint64_t limb = rng() & 0xffffffffu;
    if (i == 0 && limb == 0) limb = 1;
    acc = acc.shifted_left(32) + BigInt{static_cast<std::int64_t>(limb)};
  }
  return rng() % 2 ? acc : acc.negated();
}

TEST(BigInt, GcdPropertyAgainstDivModEuclid) {
  std::mt19937_64 rng{4242};
  std::uniform_int_distribution<std::size_t> limbs{1, 400};
  for (int iter = 0; iter < 300; ++iter) {
    BigInt a = random_limbs(rng, limbs(rng));
    BigInt b = random_limbs(rng, limbs(rng));
    switch (iter % 5) {
      case 0: {  // shared factor of 2^k (k spans whole limbs, too)
        const std::size_t k = rng() % 200;
        a = a.shifted_left(k);
        b = b.shifted_left(k + rng() % 3);
        break;
      }
      case 1: {  // shared multi-limb odd factor
        const BigInt c = random_limbs(rng, 1 + rng() % 60);
        a *= c;
        b *= c;
        break;
      }
      case 2:  // one-limb operand against a huge one
        b = random_limbs(rng, 1);
        break;
      default:
        break;
    }
    const BigInt g = BigInt::gcd(a, b);
    EXPECT_EQ(g, euclid_gcd(a, b)) << "iter " << iter;
    EXPECT_EQ(BigInt::gcd(b, a), g) << "iter " << iter;
    EXPECT_FALSE(g.is_negative());
  }
}

TEST(BigInt, GcdEdgeOperands) {
  std::mt19937_64 rng{4243};
  const BigInt huge = random_limbs(rng, 400);
  // Zero on either side, and gcd(0, 0) == 0.
  EXPECT_EQ(BigInt::gcd(huge, BigInt{}), huge.abs());
  EXPECT_EQ(BigInt::gcd(BigInt{}, huge), huge.abs());
  EXPECT_TRUE(BigInt::gcd(BigInt{}, BigInt{}).is_zero());
  // Negative operands, and equal operands of either sign.
  EXPECT_EQ(BigInt::gcd(huge.negated(), huge), huge.abs());
  EXPECT_EQ(BigInt::gcd(huge, huge), huge.abs());
  const BigInt odd = random_limbs(rng, 37);
  EXPECT_EQ(BigInt::gcd(odd.negated(), (odd * huge).negated()), odd.abs());
  // One limb against 400: 1, a power of two, and a limb sharing a factor.
  EXPECT_TRUE(BigInt::gcd(huge, BigInt{1}).is_one());
  EXPECT_EQ(BigInt::gcd(BigInt{1024}, huge.shifted_left(10)), BigInt{1024});
  EXPECT_EQ(BigInt::gcd(huge * BigInt{3}, BigInt{6}),
            euclid_gcd(huge * BigInt{3}, BigInt{6}));
}

TEST(BigInt, GcdOfCoprimeDetSizedPairs) {
  // The shape modular reconstruction feeds gcd(): ~11k-bit operands (a
  // size-15 vech determinant) that are coprime, or coprime after dividing
  // out a known factor.
  std::mt19937_64 rng{4244};
  for (int iter = 0; iter < 6; ++iter) {
    const BigInt a = random_limbs(rng, 350);
    const BigInt b = a * random_limbs(rng, 2) + BigInt{1};  // gcd(a, b) == 1
    EXPECT_TRUE(BigInt::gcd(a, b).is_one()) << iter;
    const BigInt c = random_limbs(rng, 3);
    EXPECT_EQ(BigInt::gcd(a * c, b * c), c.abs()) << iter;
    EXPECT_EQ(BigInt::gcd(a, b), euclid_gcd(a, b)) << iter;
  }
}

TEST(BigInt, PowAndPow10) {
  EXPECT_EQ(BigInt{2}.pow(10).to_int64(), 1024);
  EXPECT_EQ(BigInt{10}.pow(0).to_int64(), 1);
  EXPECT_EQ(BigInt::pow10(20).to_string(), "100000000000000000000");
  EXPECT_EQ(BigInt{-3}.pow(3).to_int64(), -27);
  EXPECT_EQ(BigInt{-3}.pow(4).to_int64(), 81);
}

TEST(BigInt, Shifts) {
  BigInt one{1};
  EXPECT_EQ(one.shifted_left(100).shifted_right(100), one);
  EXPECT_EQ(one.shifted_left(100).bit_length(), 101u);
  EXPECT_EQ(BigInt{5}.shifted_right(1).to_int64(), 2);
  EXPECT_EQ(BigInt{-8}.shifted_left(2).to_int64(), -32);
  EXPECT_TRUE(BigInt{3}.shifted_right(10).is_zero());
}

TEST(BigInt, ToDoubleAccuracy) {
  EXPECT_DOUBLE_EQ(BigInt{12345}.to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt{-12345}.to_double(), -12345.0);
  BigInt huge = BigInt{1}.shifted_left(200);
  EXPECT_NEAR(huge.to_double() / std::ldexp(1.0, 200), 1.0, 1e-12);
}

// --- property tests against int64/double reference arithmetic ---

TEST(BigInt, InlineToHeapBoundaryArithmetic) {
  // The limb storage keeps 4 x 32-bit limbs inline and moves to pooled
  // heap blocks beyond that; exercise sizes straddling that boundary in
  // both directions (grow via multiply, shrink via divide).
  const BigInt base{"4294967295"};  // 2^32 - 1, one limb
  BigInt acc{1};
  std::vector<BigInt> stages;
  for (int limbs = 1; limbs <= 9; ++limbs) {
    acc *= base;
    stages.push_back(acc);
  }
  for (int limbs = 9; limbs-- > 1;) {
    auto [quot, rem] = BigInt::div_mod(acc, base);
    EXPECT_TRUE(rem.is_zero()) << limbs;
    acc = quot;
    EXPECT_EQ(acc, stages[static_cast<std::size_t>(limbs) - 1]) << limbs;
  }
  // Add/sub round trip across the boundary (3 <-> 5 limbs).
  const BigInt big = stages[4], small = stages[2];
  EXPECT_EQ(big + small - small, big);
  EXPECT_EQ(small + big - big, small);
  EXPECT_EQ((big - big), BigInt{});
}

TEST(BigInt, MovedFromValuesAreReusable) {
  BigInt heap = BigInt{"123456789123456789"}.pow(8);  // well past 4 limbs
  const BigInt copy = heap;
  BigInt stolen = std::move(heap);
  EXPECT_EQ(stolen, copy);
  heap = BigInt{42};  // assign into the moved-from object
  EXPECT_EQ(heap.to_int64(), 42);
  heap = stolen * BigInt{2};
  EXPECT_EQ(heap, copy + copy);
}

TEST(BigInt, SmallOperandFastPathsMatchWideReference) {
  // +=, -=, *=, div_mod and gcd all special-case operands that fit two
  // limbs; compare against the same computation routed through multi-limb
  // values (scaled up then back down).
  std::mt19937_64 rng{77};
  const BigInt scale = BigInt{"340282366920938463463374607431768211456"};  // 2^128
  std::uniform_int_distribution<std::int64_t> dist{-1000000000, 1000000000};
  for (int iter = 0; iter < 100; ++iter) {
    const std::int64_t x = dist(rng);
    const std::int64_t y = dist(rng);
    if (y == 0) continue;
    const BigInt bx{x}, by{y};
    EXPECT_EQ((bx * scale + by * scale), (bx + by) * scale);
    EXPECT_EQ((bx * scale - by * scale), (bx - by) * scale);
    auto [q_small, r_small] = BigInt::div_mod(bx, by);
    auto [q_wide, r_wide] = BigInt::div_mod(bx * scale, by * scale);
    EXPECT_EQ(q_small, q_wide);
    EXPECT_EQ(r_small * scale, r_wide);
    EXPECT_EQ(BigInt::gcd(bx, by) * scale, BigInt::gcd(bx * scale, by * scale));
  }
}

class BigIntRandomProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BigIntRandomProperty, RingLawsAgainstInt64) {
  std::mt19937_64 rng{GetParam()};
  std::uniform_int_distribution<std::int64_t> dist{-1000000000, 1000000000};
  for (int iter = 0; iter < 200; ++iter) {
    const std::int64_t x = dist(rng), y = dist(rng), z = dist(rng);
    BigInt bx{x}, by{y}, bz{z};
    EXPECT_EQ((bx + by).to_int64(), x + y);
    EXPECT_EQ((bx - by).to_int64(), x - y);
    EXPECT_EQ((bx * by).to_int64(), x * y);
    // Associativity / distributivity.
    EXPECT_EQ(((bx + by) + bz), (bx + (by + bz)));
    EXPECT_EQ((bx * (by + bz)), (bx * by + bx * bz));
    if (y != 0) {
      EXPECT_EQ((bx / by).to_int64(), x / y);
      EXPECT_EQ((bx % by).to_int64(), x % y);
    }
  }
}

TEST_P(BigIntRandomProperty, DivModInvariantOnHugeOperands) {
  std::mt19937_64 rng{GetParam() + 17};
  auto random_big = [&rng](int limbs) {
    BigInt acc;
    std::uniform_int_distribution<std::int64_t> d{0,
        std::numeric_limits<std::int64_t>::max()};
    for (int i = 0; i < limbs; ++i) {
      acc = acc.shifted_left(62);
      acc += BigInt{d(rng)};
    }
    return rng() % 2 ? acc : acc.negated();
  };
  for (int iter = 0; iter < 50; ++iter) {
    BigInt a = random_big(1 + static_cast<int>(rng() % 8));
    BigInt b = random_big(1 + static_cast<int>(rng() % 5));
    if (b.is_zero()) continue;
    auto [q, r] = BigInt::div_mod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r.abs(), b.abs());
    // Remainder sign follows dividend (truncated division).
    if (!r.is_zero()) EXPECT_EQ(r.sign(), a.sign());
  }
}

TEST_P(BigIntRandomProperty, StringRoundTrip) {
  std::mt19937_64 rng{GetParam() + 99};
  std::uniform_int_distribution<std::int64_t> d{
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  for (int iter = 0; iter < 100; ++iter) {
    BigInt a{d(rng)};
    BigInt b = a * a * a;  // force multi-limb
    EXPECT_EQ(BigInt{b.to_string()}, b);
  }
}

TEST_P(BigIntRandomProperty, KaratsubaMatchesSchoolbookViaIdentity) {
  // (a+b)^2 == a^2 + 2ab + b^2 on operands big enough to cross the
  // Karatsuba threshold.
  std::mt19937_64 rng{GetParam() + 7};
  auto random_wide = [&rng]() {
    BigInt acc{1};
    for (int i = 0; i < 40; ++i) {
      acc = acc.shifted_left(31);
      acc += BigInt{static_cast<std::int64_t>(rng() & 0x7fffffff)};
    }
    return acc;
  };
  for (int iter = 0; iter < 10; ++iter) {
    BigInt a = random_wide(), b = random_wide();
    BigInt lhs = (a + b) * (a + b);
    BigInt rhs = a * a + a * b + a * b + b * b;
    EXPECT_EQ(lhs, rhs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandomProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace spiv::exact
