// Unit and property tests for spiv::exact::BigInt.
#include "exact/bigint.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>

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

/// Uniform random magnitude of exactly `limbs` 32-bit words (top word
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
  // The limb storage keeps 2 x 64-bit limbs (values below 2^128) inline
  // and moves to pooled heap blocks beyond that; exercise sizes (32 to 288
  // bits) straddling that boundary in both directions (grow via multiply,
  // shrink via divide).
  const BigInt base{"4294967295"};  // 2^32 - 1
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
  // Add/sub round trip across the boundary (96 <-> 160 bits).
  const BigInt big = stages[4], small = stages[2];
  EXPECT_EQ(big + small - small, big);
  EXPECT_EQ(small + big - big, small);
  EXPECT_EQ((big - big), BigInt{});
}

TEST(BigInt, MovedFromValuesAreReusable) {
  BigInt heap = BigInt{"123456789123456789"}.pow(8);  // ~457 bits: heap
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

// --- bit-identity guard ---

/// FNV-1a over each result's decimal text (doubles: their bit pattern),
/// with a separator so adjacent results cannot run together.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::string_view s) {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    mix(0xff);
  }
  void add(const BigInt& v) { add(v.to_string()); }
  void add(std::uint64_t v) { add(std::to_string(v)); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void mix(unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
};

/// A magnitude of exactly `bits` bits with a random sign, built from
/// 32-bit words in one of four patterns: random, all ones, one set bit per
/// word, or runs mixing zero, all-ones and random words.
BigInt golden_operand(std::mt19937_64& rng, std::size_t bits) {
  if (bits == 0) return {};
  const std::uint64_t pattern = rng() % 4;
  auto word = [&]() -> std::uint64_t {
    switch (pattern) {
      case 0: return rng() & 0xffffffffu;
      case 1: return 0xffffffffu;
      case 2: return std::uint64_t{1} << (rng() % 32);
      default: {
        const std::uint64_t kind = rng() % 3;
        return kind == 0 ? 0 : kind == 1 ? 0xffffffffu : rng() & 0xffffffffu;
      }
    }
  };
  const std::size_t words = (bits + 31) / 32;
  const std::size_t top_bits = bits - 32 * (words - 1);
  const std::uint64_t top_mask = (std::uint64_t{1} << top_bits) - 1;
  BigInt acc{static_cast<std::int64_t>((word() & top_mask) |
                                       (std::uint64_t{1} << (top_bits - 1)))};
  for (std::size_t i = 1; i < words; ++i)
    acc = acc.shifted_left(32) + BigInt{static_cast<std::int64_t>(word())};
  return rng() % 2 ? acc : acc.negated();
}

std::size_t golden_bits(std::mt19937_64& rng) {
  static constexpr std::size_t kEdges[] = {
      0,   1,   2,   31,  32,  33,  63,  64,  65,  95,  96,
      127, 128, 129, 191, 192, 193, 255, 256, 257, 4096};
  switch (rng() % 3) {
    case 0: return kEdges[rng() % std::size(kEdges)];
    case 1: return rng() % 1024;
    default: return rng() % 40001;
  }
}

TEST(BigInt, GoldenDigestOfMixedOperations) {
  // A seeded run of * / % gcd shifts pow10 mod_u64 to_string to_double
  // (and + -) on operands of 0 to 40k bits, both signs.  Every result is
  // folded into one digest.  The constant was computed with the original
  // base-2^32 implementation: a limb-size or kernel change that alters any
  // digit of any result (or any bit of a double) fails here.
  static constexpr std::uint64_t kModuli[] = {
      1,
      2,
      3,
      10,
      0xffffffffull,
      0x100000000ull,
      0x100000001ull,
      0x7fffffffffffffffull,
      0x8000000000000000ull,
      0xffffffffffffffffull,
      0xffffffffffffffc5ull};  // largest 64-bit prime
  std::mt19937_64 rng{20261020};
  Digest d;
  for (int iter = 0; iter < 240; ++iter) {
    const BigInt a = golden_operand(rng, golden_bits(rng));
    const BigInt b = golden_operand(rng, golden_bits(rng));
    d.add(a);
    d.add(a + b);
    d.add(a - b);
    d.add(a * b);
    if (!b.is_zero()) {
      d.add(a / b);
      d.add(a % b);
    }
    d.add(BigInt::gcd(a, b));
    const std::size_t s = rng() % 300;
    d.add(a.shifted_left(s));
    d.add(a.shifted_right(s));
    const std::uint64_t m =
        rng() % 2 ? kModuli[rng() % std::size(kModuli)] : rng() | 1;
    d.add(a.mod_u64(m));
    d.add(a.to_double());
    d.add((a * b).to_double());
    if (iter % 8 == 0) {
      const BigInt p = BigInt::pow10(static_cast<unsigned>(rng() % 400));
      d.add(p);
      d.add(a * p);
      if (!a.is_zero()) d.add(p / a);
    }
  }
  EXPECT_EQ(d.h, 0xf72458306f40586dull) << std::hex << d.h;
}

/// The word-boundary values: 2^63, 2^64, 2^127, 2^128 and their
/// neighbours at distance one, with both signs.
std::vector<BigInt> boundary_values() {
  std::vector<BigInt> out;
  for (std::size_t k : {63u, 64u, 127u, 128u}) {
    const BigInt p = BigInt{1}.shifted_left(k);
    for (const BigInt& v : {p - BigInt{1}, p, p + BigInt{1}}) {
      out.push_back(v);
      out.push_back(v.negated());
    }
  }
  return out;
}

TEST(BigInt, WordBoundaryProperties) {
  const std::vector<BigInt> vals = boundary_values();
  for (const BigInt& a : vals) {
    EXPECT_EQ(BigInt{a.to_string()}, a) << a;
    BigInt self = a;  // += and -= with the operand aliasing *this
    self += self;
    EXPECT_EQ(self, a * BigInt{2}) << a;
    self -= self;
    EXPECT_TRUE(self.is_zero()) << a;
    for (const BigInt& b : vals) {
      auto [q, r] = BigInt::div_mod(a, b);
      EXPECT_EQ(q * b + r, a) << a << " / " << b;
      EXPECT_LT(r.abs(), b.abs()) << a << " / " << b;
      if (!r.is_zero()) {
        EXPECT_EQ(r.sign(), a.sign()) << a << " / " << b;
      }
      const BigInt g = BigInt::gcd(a, b);
      EXPECT_TRUE((a % g).is_zero()) << a << ", " << b;
      EXPECT_TRUE((b % g).is_zero()) << a << ", " << b;
      EXPECT_EQ(g, euclid_gcd(a, b)) << a << ", " << b;
      const BigInt prod = a * b;
      EXPECT_EQ(BigInt{prod.to_string()}, prod);
      EXPECT_EQ(prod / b, a);
    }
  }
  EXPECT_EQ(BigInt{1}.shifted_left(64).to_string(), "18446744073709551616");
  EXPECT_EQ(BigInt{1}.shifted_left(128).to_string(),
            "340282366920938463463374607431768211456");
  EXPECT_EQ((BigInt{1}.shifted_left(127) - BigInt{1}).to_string(),
            "170141183460469231731687303715884105727");
}

TEST(BigInt, KnuthDAddBackVectors) {
  // u = 3 + 2^(3w-1), v = 1 + 2^(3w-3) for word size w: the normalised
  // quotient estimate from the top two words is 4, one too large, so the
  // multiply-subtract goes negative and the add-back step runs.  Exact
  // answer: q = 3, r = 2^(3w-3).  Both the 32- and the 64-bit word shapes.
  for (std::size_t w : {32u, 64u}) {
    const BigInt u = BigInt{3} + BigInt{1}.shifted_left(3 * w - 1);
    const BigInt v = BigInt{1} + BigInt{1}.shifted_left(3 * w - 3);
    auto [q, r] = BigInt::div_mod(u, v);
    EXPECT_EQ(q, BigInt{3}) << w;
    EXPECT_EQ(r, BigInt{1}.shifted_left(3 * w - 3)) << w;
    auto [nq, nr] = BigInt::div_mod(u.negated(), v);
    EXPECT_EQ(nq, BigInt{-3}) << w;
    EXPECT_EQ(nr, r.negated()) << w;
  }
  // Hacker's Delight divmnu vectors (base-2^32 words, least significant
  // first): add-back needed, and a multiply-subtract quantity that must
  // not be treated as signed.
  const BigInt b32 = BigInt{1}.shifted_left(32);
  auto poly = [&b32](std::initializer_list<std::int64_t> words) {
    BigInt acc;
    for (auto it = std::rbegin(words); it != std::rend(words); ++it)
      acc = acc * b32 + BigInt{*it};
    return acc;
  };
  struct Vector {
    BigInt u, v, q, r;
  };
  const Vector vectors[] = {
      {poly({0x3, 0x0, 0x80000000}), poly({0x1, 0x0, 0x20000000}),
       poly({0x3}), poly({0x0, 0x0, 0x20000000})},
      {poly({0x0, 0xfffe, 0x80000000}), poly({0xffff, 0x80000000}),
       poly({0xffffffff}), poly({0xffff, 0x7fffffff})},
      {poly({0x0, 0x0, 0x8000, 0x80000000}), poly({0x1, 0x0, 0x80000000}),
       poly({0x0, 0x1}), poly({0x0, 0xffffffff, 0x7fff})},
      {poly({0x0, 0xfffe, 0x0, 0x8000}), poly({0xffff, 0x0, 0x8000}),
       poly({0xffffffff}), poly({0xffff, 0xffffffff, 0x7fff})},
  };
  for (const Vector& t : vectors) {
    auto [q, r] = BigInt::div_mod(t.u, t.v);
    EXPECT_EQ(q, t.q) << t.u << " / " << t.v;
    EXPECT_EQ(r, t.r) << t.u << " / " << t.v;
  }
}

TEST(BigInt, ToDoubleTruncatesToSixtyFourBitsThenRounds) {
  // (2^63 + 2^10) * 2^8 + 1: its nearest double is (1 + 2^-52) * 2^71, but
  // to_double keeps only the top 64 bits (2^63 + 2^10, a tie) and rounds
  // that to even, 2^63, giving 2^71.  Pinned: eq-smt's double P depends on
  // these exact bits.
  const BigInt x = (BigInt{1}.shifted_left(63) + BigInt{1}.shifted_left(10))
                       .shifted_left(8) +
                   BigInt{1};
  EXPECT_EQ(x.to_double(), std::ldexp(1.0, 71));
  EXPECT_NE(x.to_double(), std::ldexp(1.0 + std::ldexp(1.0, -52), 71));
  EXPECT_EQ(x.negated().to_double(), -std::ldexp(1.0, 71));
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
