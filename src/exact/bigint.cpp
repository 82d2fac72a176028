#include "exact/bigint.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace spiv::exact {

namespace detail {
namespace {

// Thread-local free list of heap limb blocks.  Every heap capacity LimbVec
// ever uses is a power of two in [2^kMinShift, 2^kMaxShift]; each class
// keeps up to kBinCap retired blocks for reuse.  Blocks outside the binned
// range (or overflowing a bin) go straight to new[]/delete[].
struct Pool {
  static constexpr unsigned kMinShift = 3;   // 8 limbs  (32 bytes)
  static constexpr unsigned kMaxShift = 12;  // 4096 limbs (16 KiB)
  static constexpr std::size_t kBinCap = 8;
  struct Bin {
    std::uint32_t* blocks[kBinCap];
    std::size_t count = 0;
  };
  Bin bins[kMaxShift - kMinShift + 1];
  ~Pool() {
    for (Bin& bin : bins)
      while (bin.count > 0) delete[] bin.blocks[--bin.count];
  }
};

// The pool is reached through a trivially-destructible thread_local slot so
// BigInt temporaries destroyed *after* the pool (static-destruction order,
// late thread-exit destructors) see a null slot and fall back to delete[]
// instead of touching a dead Pool.  `dead` distinguishes "not yet built"
// from "already torn down" so we never reconstruct past thread exit.
struct PoolSlot {
  Pool* pool;
  bool dead;
};
thread_local constinit PoolSlot g_pool_slot{nullptr, false};

struct PoolOwner {
  Pool pool;
  PoolOwner() { g_pool_slot.pool = &pool; }
  ~PoolOwner() { g_pool_slot = {nullptr, true}; }
};

// `cap` must be a power of two.
std::uint32_t* pool_acquire(std::size_t cap) {
  const unsigned shift = static_cast<unsigned>(std::countr_zero(cap));
  if (shift >= Pool::kMinShift && shift <= Pool::kMaxShift) {
    if (g_pool_slot.pool == nullptr && !g_pool_slot.dead) {
      thread_local PoolOwner owner;
      (void)owner;
    }
    if (Pool* p = g_pool_slot.pool) {
      Pool::Bin& bin = p->bins[shift - Pool::kMinShift];
      if (bin.count > 0) return bin.blocks[--bin.count];
    }
  }
  return new std::uint32_t[cap];
}

void pool_release(std::uint32_t* block, std::size_t cap) noexcept {
  const unsigned shift = static_cast<unsigned>(std::countr_zero(cap));
  if (shift >= Pool::kMinShift && shift <= Pool::kMaxShift) {
    if (Pool* p = g_pool_slot.pool) {
      Pool::Bin& bin = p->bins[shift - Pool::kMinShift];
      if (bin.count < Pool::kBinCap) {
        bin.blocks[bin.count++] = block;
        return;
      }
    }
  }
  delete[] block;
}

}  // namespace

void LimbVec::grow(std::size_t mincap) {
  const std::size_t newcap =
      std::bit_ceil(std::max<std::size_t>(mincap, std::size_t{1}
                                                      << Pool::kMinShift));
  value_type* fresh = pool_acquire(newcap);
  std::memcpy(fresh, data(), size_ * sizeof(value_type));
  if (on_heap()) pool_release(heap_, cap_);
  heap_ = fresh;
  cap_ = static_cast<std::uint32_t>(newcap);
}

void LimbVec::release() noexcept {
  if (on_heap()) pool_release(heap_, cap_);
}

}  // namespace detail

namespace {
// Limb count at which mul_magnitude switches from schoolbook to Karatsuba.
// Tuned 2026-08 on an x86-64 core (gcc -O2) by timing balanced random
// products at 16..512 limbs across thresholds {12, 16, 24, 32, 48, 64, 96,
// 128, 192, 256}; total bench seconds were 0.62 / 0.59 / 0.37 / 0.35 /
// 0.25 / 0.24 / 0.19 / 0.186 / 0.19 / 0.19.  The schoolbook inner loop
// (32-bit limbs accumulated in 64-bit) beats this Karatsuba's split/alloc
// overhead until well past 100 limbs: at 128 limbs pure schoolbook runs
// 10.7us vs 12.4us for Karatsuba-with-base-48, and only at 512 limbs does
// recursion still pay (131us with base 128 vs 138us with base 256).  128
// was the sweep minimum; the curve is flat within noise from 96 up.
// Overridable (-DSPIV_KARATSUBA_THRESHOLD=N) for re-tuning on new hardware.
#ifndef SPIV_KARATSUBA_THRESHOLD
#define SPIV_KARATSUBA_THRESHOLD 128
#endif
constexpr std::size_t kKaratsubaThreshold = SPIV_KARATSUBA_THRESHOLD;
}  // namespace

BigInt::BigInt(std::int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Avoid UB on INT64_MIN: negate in unsigned space.
  std::uint64_t mag =
      negative_ ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  limbs_.push_back(static_cast<Limb>(mag & 0xffffffffu));
  if (mag >> 32) limbs_.push_back(static_cast<Limb>(mag >> 32));
}

BigInt::BigInt(std::string_view decimal) {
  std::size_t i = 0;
  bool neg = false;
  if (i < decimal.size() && (decimal[i] == '-' || decimal[i] == '+')) {
    neg = decimal[i] == '-';
    ++i;
  }
  if (i == decimal.size()) throw std::invalid_argument("BigInt: empty numeral");
  BigInt acc;
  const BigInt ten{10};
  for (; i < decimal.size(); ++i) {
    char c = decimal[i];
    if (c < '0' || c > '9')
      throw std::invalid_argument("BigInt: invalid character in numeral");
    acc *= ten;
    acc += BigInt{c - '0'};
  }
  limbs_ = std::move(acc.limbs_);
  negative_ = neg && !limbs_.empty();
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

void BigInt::set_mag_u128(unsigned __int128 mag, bool negative) {
  limbs_.clear();
  while (mag != 0) {
    limbs_.push_back(static_cast<Limb>(mag & 0xffffffffu));
    mag >>= kLimbBits;
  }
  negative_ = negative && !limbs_.empty();
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * kLimbBits;
  Limb top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

BigInt BigInt::negated() const {
  BigInt r = *this;
  if (!r.limbs_.empty()) r.negative_ = !r.negative_;
  return r;
}

int BigInt::compare_magnitude(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

BigInt::Limbs BigInt::add_magnitude(const Limbs& a, const Limbs& b) {
  const auto& longer = a.size() >= b.size() ? a : b;
  const auto& shorter = a.size() >= b.size() ? b : a;
  Limbs out;
  out.reserve(longer.size() + 1);
  DoubleLimb carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    DoubleLimb s = carry + longer[i];
    if (i < shorter.size()) s += shorter[i];
    out.push_back(static_cast<Limb>(s & 0xffffffffu));
    carry = s >> 32;
  }
  if (carry) out.push_back(static_cast<Limb>(carry));
  return out;
}

BigInt::Limbs BigInt::sub_magnitude(const Limbs& a, const Limbs& b) {
  Limbs out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t d = static_cast<std::int64_t>(a[i]) - borrow -
                     (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (d < 0) {
      d += (std::int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<Limb>(d));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt::Limbs BigInt::mul_schoolbook(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  // Exact-size construction: a.size()+b.size() limbs always suffices, so
  // this single allocation is the only one the whole routine performs.
  Limbs out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    DoubleLimb carry = 0;
    DoubleLimb ai = a[i];
    if (ai == 0) continue;  // sparse operands (powers of ten, shifts)
    for (std::size_t j = 0; j < b.size(); ++j) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[i + j]) + ai * b[j] + carry;
      out[i + j] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[k]) + carry;
      out[k] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt::Limbs BigInt::mul_karatsuba(const Limbs& a, const Limbs& b) {
  if (a.size() < kKaratsubaThreshold || b.size() < kKaratsubaThreshold)
    return mul_schoolbook(a, b);
  const std::size_t half = std::max(a.size(), b.size()) / 2;
  auto split = [half](const Limbs& v) -> std::pair<Limbs, Limbs> {
    Limbs lo(v.begin(), v.begin() + std::min(half, v.size()));
    Limbs hi;
    if (v.size() > half) hi.assign(v.begin() + half, v.end());
    while (!lo.empty() && lo.back() == 0) lo.pop_back();
    return {std::move(lo), std::move(hi)};
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);
  Limbs z0 = mul_karatsuba(a0, b0);
  Limbs z2 = mul_karatsuba(a1, b1);
  Limbs sa = add_magnitude(a0, a1);
  Limbs sb = add_magnitude(b0, b1);
  Limbs z1 = mul_karatsuba(sa, sb);
  z1 = sub_magnitude(z1, z0);
  z1 = sub_magnitude(z1, z2);
  // result = z0 + z1 << (32*half) + z2 << (64*half)
  Limbs out(std::max({z0.size(), z1.size() + half, z2.size() + 2 * half}) + 1,
            0);
  auto add_at = [&out](const Limbs& v, std::size_t off) {
    DoubleLimb carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[off + i]) + v[i] + carry;
      out[off + i] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    while (carry) {
      DoubleLimb cur = static_cast<DoubleLimb>(out[off + i]) + carry;
      out[off + i] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++i;
    }
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt::Limbs BigInt::mul_magnitude(const Limbs& a, const Limbs& b) {
  if (a.size() >= kKaratsubaThreshold && b.size() >= kKaratsubaThreshold)
    return mul_karatsuba(a, b);
  return mul_schoolbook(a, b);
}

BigInt& BigInt::add_signed(const BigInt& rhs, bool rhs_negative) {
  if (limbs_.size() <= 2 && rhs.limbs_.size() <= 2) {
    __int128 a = static_cast<__int128>(mag_u64());
    if (negative_) a = -a;
    __int128 b = static_cast<__int128>(rhs.mag_u64());
    if (rhs_negative) b = -b;
    const __int128 s = a + b;
    set_mag_u128(s < 0 ? static_cast<unsigned __int128>(-s)
                       : static_cast<unsigned __int128>(s),
                 s < 0);
    return *this;
  }
  if (negative_ == rhs_negative) {
    limbs_ = add_magnitude(limbs_, rhs.limbs_);
  } else {
    int cmp = compare_magnitude(limbs_, rhs.limbs_);
    if (cmp == 0) {
      limbs_.clear();
      negative_ = false;
    } else if (cmp > 0) {
      limbs_ = sub_magnitude(limbs_, rhs.limbs_);
    } else {
      limbs_ = sub_magnitude(rhs.limbs_, limbs_);
      negative_ = rhs_negative;
    }
  }
  trim();
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  return add_signed(rhs, rhs.negative_);
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  return add_signed(rhs, !rhs.negative_);
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (limbs_.size() <= 2 && rhs.limbs_.size() <= 2) {
    const unsigned __int128 p =
        static_cast<unsigned __int128>(mag_u64()) * rhs.mag_u64();
    set_mag_u128(p, negative_ != rhs.negative_);
    return *this;
  }
  negative_ = negative_ != rhs.negative_;
  limbs_ = mul_magnitude(limbs_, rhs.limbs_);
  trim();
  return *this;
}

std::pair<BigInt::Limbs, BigInt::Limbs> BigInt::divmod_magnitude(
    const Limbs& num, const Limbs& den) {
  if (den.empty()) throw std::domain_error("BigInt: division by zero");
  if (compare_magnitude(num, den) < 0) return {{}, num};
  if (den.size() == 1) {
    // Fast path: single-limb divisor.
    Limbs quot(num.size(), 0);
    DoubleLimb rem = 0;
    DoubleLimb d = den[0];
    for (std::size_t i = num.size(); i-- > 0;) {
      DoubleLimb cur = (rem << 32) | num[i];
      quot[i] = static_cast<Limb>(cur / d);
      rem = cur % d;
    }
    while (!quot.empty() && quot.back() == 0) quot.pop_back();
    Limbs r;
    if (rem) r.push_back(static_cast<Limb>(rem));
    return {std::move(quot), std::move(r)};
  }
  // Knuth algorithm D with normalization.
  unsigned shift = 0;
  Limb top = den.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  auto shl = [](const Limbs& v, unsigned s) {
    if (s == 0) return v;
    Limbs out(v.size() + 1, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << s;
      out[i + 1] = v[i] >> (32 - s);
    }
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  Limbs u_limbs = shl(num, shift);
  const Limbs v_limbs = shl(den, shift);
  const std::size_t n = v_limbs.size();
  const std::size_t m = u_limbs.size() - n;
  u_limbs.resize(u_limbs.size() + 1, 0);  // extra high limb
  Limbs quot(m + 1, 0);
  const DoubleLimb base = DoubleLimb{1} << 32;
  // Raw limb pointers: through LimbVec::operator[] every limb store may
  // alias the vectors' own (uint32_t) size/capacity fields, which forces a
  // reload of the storage pointer in the inner loops.
  Limb* const u = u_limbs.data();
  const Limb* const v = v_limbs.data();
  for (std::size_t j = m + 1; j-- > 0;) {
    DoubleLimb numerator = (static_cast<DoubleLimb>(u[j + n]) << 32) | u[j + n - 1];
    DoubleLimb qhat = numerator / v[n - 1];
    DoubleLimb rhat = numerator % v[n - 1];
    while (qhat >= base ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= base) break;
    }
    // Multiply-subtract qhat*v from u[j..j+n].
    std::int64_t borrow = 0;
    DoubleLimb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      DoubleLimb p = qhat * v[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(u[i + j]) -
                             static_cast<std::int64_t>(p & 0xffffffffu) -
                             borrow;
      // t in [-2^32, 2^32): its low limb is the digit either way, and the
      // sign bit is the borrow (branch-free; the sign is a coin flip).
      u[i + j] = static_cast<Limb>(t);
      borrow = static_cast<std::int64_t>(static_cast<std::uint64_t>(t) >> 63);
    }
    std::int64_t t = static_cast<std::int64_t>(u[j + n]) -
                     static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<std::int64_t>(base);
      --qhat;
      DoubleLimb c2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        DoubleLimb s = static_cast<DoubleLimb>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<Limb>(s & 0xffffffffu);
        c2 = s >> 32;
      }
      t += static_cast<std::int64_t>(c2);
      t &= static_cast<std::int64_t>(base - 1);
    }
    u[j + n] = static_cast<Limb>(t);
    quot[j] = static_cast<Limb>(qhat);
  }
  while (!quot.empty() && quot.back() == 0) quot.pop_back();
  // Remainder = u[0..n) >> shift.
  Limbs rem(u, u + n);
  if (shift) {
    for (std::size_t i = 0; i + 1 < rem.size(); ++i)
      rem[i] = (rem[i] >> shift) | (rem[i + 1] << (32 - shift));
    rem.back() >>= shift;
  }
  while (!rem.empty() && rem.back() == 0) rem.pop_back();
  return {std::move(quot), std::move(rem)};
}

std::pair<BigInt, BigInt> BigInt::div_mod(const BigInt& num, const BigInt& den) {
  if (den.limbs_.empty()) throw std::domain_error("BigInt: division by zero");
  if (num.limbs_.size() <= 2 && den.limbs_.size() <= 2) {
    const std::uint64_t n = num.mag_u64();
    const std::uint64_t d = den.mag_u64();
    BigInt q, r;
    q.set_mag_u128(n / d, num.negative_ != den.negative_);
    r.set_mag_u128(n % d, num.negative_);
    return {std::move(q), std::move(r)};
  }
  auto [qm, rm] = divmod_magnitude(num.limbs_, den.limbs_);
  BigInt q, r;
  q.limbs_ = std::move(qm);
  r.limbs_ = std::move(rm);
  q.negative_ = !q.limbs_.empty() && (num.negative_ != den.negative_);
  r.negative_ = !r.limbs_.empty() && num.negative_;
  return {std::move(q), std::move(r)};
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).first;
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  *this = div_mod(*this, rhs).second;
  return *this;
}

std::strong_ordering operator<=>(const BigInt& a, const BigInt& b) {
  if (a.negative_ != b.negative_)
    return a.negative_ ? std::strong_ordering::less
                       : std::strong_ordering::greater;
  int cmp = BigInt::compare_magnitude(a.limbs_, b.limbs_);
  if (a.negative_) cmp = -cmp;
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

namespace {

/// Binary gcd on machine words (operands need not be odd).
std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = std::countr_zero(a | b);
  a >>= std::countr_zero(a);
  while (b != 0) {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  }
  return a << shift;
}

}  // namespace

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  if (compare_magnitude(a.limbs_, b.limbs_) < 0) a.limbs_.swap(b.limbs_);
  // Lehmer's algorithm (Knuth, TAOCP 4.5.2, Algorithm L).  Each round runs
  // Euclid on the leading kWindow bits of a and the same bits of b,
  // accepting a word quotient only while both bracketing estimates agree
  // (so it is the true multi-limb quotient), and accumulates the signed
  // cofactor matrix [[A, B], [C, D]].  One in-place pass over the limbs
  // then applies the matrix to both operands.  Quotients and cofactors
  // stay below kCofactorCap, so the word arithmetic cannot overflow int64.
  // A round that accepts no quotient (a/b beyond the window) takes one
  // divmod.
  constexpr std::size_t kWindow = 62;
  constexpr std::int64_t kCofactorCap = std::int64_t{1} << 31;
  auto window = [](const Limbs& v, std::size_t shift) {
    const std::size_t li = shift / kLimbBits;
    unsigned __int128 w = 0;
    for (std::size_t j = 0; j < 3 && li + j < v.size(); ++j)
      w |= static_cast<unsigned __int128>(v[li + j]) << (kLimbBits * j);
    return static_cast<std::int64_t>(w >> (shift % kLimbBits));
  };
  auto trim_limbs = [](Limbs& v) {
    while (!v.empty() && v.back() == 0) v.pop_back();
  };
  b.limbs_.reserve(a.limbs_.size());
  while (a.limbs_.size() > 2) {
    if (b.limbs_.empty()) return a;
    const std::size_t shift = a.bit_length() - kWindow;
    std::int64_t uh = window(a.limbs_, shift);
    std::int64_t vh = window(b.limbs_, shift);
    std::int64_t ca = 1, cb = 0, cc = 0, cd = 1;  // A, B, C, D
    for (;;) {
      const std::int64_t vc = vh + cc;
      const std::int64_t vd = vh + cd;
      if (vc <= 0 || vd <= 0 || uh + ca < 0 || uh + cb < 0) break;
      const std::int64_t q = (uh + ca) / vc;
      if (q <= 0 || q >= kCofactorCap || q != (uh + cb) / vd) break;
      const std::int64_t nc = ca - q * cc;
      const std::int64_t nd = cb - q * cd;
      if (nc <= -kCofactorCap || nc >= kCofactorCap ||
          nd <= -kCofactorCap || nd >= kCofactorCap)
        break;
      ca = cc;
      cb = cd;
      cc = nc;
      cd = nd;
      const std::int64_t nv = uh - q * vh;
      uh = vh;
      vh = nv;
    }
    if (cb == 0) {
      // No quotient accepted: one full Euclidean step.
      Limbs r = divmod_magnitude(a.limbs_, b.limbs_).second;
      a.limbs_.swap(b.limbs_);
      b.limbs_ = std::move(r);
      continue;
    }
    // (a, b) <- (A*a + B*b, C*a + D*b): two consecutive remainders of the
    // true sequence, so both are non-negative and a > b.
    const std::size_t na = a.limbs_.size();
    b.limbs_.resize(na, 0);
    Limb* pa = a.limbs_.data();
    Limb* pb = b.limbs_.data();
    __int128 carry_a = 0, carry_b = 0;
    for (std::size_t i = 0; i < na; ++i) {
      const std::int64_t ai = pa[i];
      const std::int64_t bi = pb[i];
      carry_a += static_cast<__int128>(ca) * ai + static_cast<__int128>(cb) * bi;
      carry_b += static_cast<__int128>(cc) * ai + static_cast<__int128>(cd) * bi;
      pa[i] = static_cast<Limb>(carry_a);
      pb[i] = static_cast<Limb>(carry_b);
      carry_a >>= kLimbBits;
      carry_b >>= kLimbBits;
    }
    trim_limbs(a.limbs_);
    trim_limbs(b.limbs_);
  }
  a.set_mag_u128(gcd_u64(a.mag_u64(), b.mag_u64()), false);
  return a;
}

std::uint64_t BigInt::mod_u64(std::uint64_t m) const {
  if (m == 0) throw std::domain_error("BigInt: mod_u64 by zero");
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    const unsigned __int128 cur =
        (static_cast<unsigned __int128>(rem) << kLimbBits) | limbs_[i];
    rem = static_cast<std::uint64_t>(cur % m);
  }
  if (negative_ && rem != 0) rem = m - rem;
  return rem;
}

BigInt BigInt::pow(unsigned e) const {
  BigInt base = *this;
  BigInt result{1};
  while (e != 0) {
    if (e & 1u) result *= base;
    e >>= 1;
    if (e != 0) base *= base;
  }
  return result;
}

BigInt BigInt::pow10(unsigned e) { return BigInt{10}.pow(e); }

BigInt BigInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  BigInt out;
  out.negative_ = negative_;
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift)
      out.limbs_[i + limb_shift + 1] = limbs_[i] >> (kLimbBits - bit_shift);
  }
  out.trim();
  return out;
}

BigInt BigInt::shifted_right(std::size_t bits) const {
  if (is_zero()) return {};
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= limbs_.size()) return {};
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.begin() + limb_shift, limbs_.end());
  if (bit_shift) {
    for (std::size_t i = 0; i + 1 < out.limbs_.size(); ++i)
      out.limbs_[i] =
          (out.limbs_[i] >> bit_shift) | (out.limbs_[i + 1] << (kLimbBits - bit_shift));
    out.limbs_.back() >>= bit_shift;
  }
  out.trim();
  return out;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Repeated division by 1e9 (fits in a limb-sized chunk).
  Limbs mag = limbs_;
  std::string digits;
  const DoubleLimb chunk = 1000000000ull;
  while (!mag.empty()) {
    DoubleLimb rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      DoubleLimb cur = (rem << 32) | mag[i];
      mag[i] = static_cast<Limb>(cur / chunk);
      rem = cur % chunk;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::to_double() const {
  if (is_zero()) return 0.0;
  // Use the top 64 bits of the magnitude plus the exponent.
  const std::size_t bits = bit_length();
  double result;
  if (bits <= 64) {
    std::uint64_t mag = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;)
      mag = (mag << 32) | limbs_[i];
    result = static_cast<double>(mag);
  } else {
    BigInt top = shifted_right(bits - 64);
    std::uint64_t mag = 0;
    for (std::size_t i = top.limbs_.size(); i-- > 0;)
      mag = (mag << 32) | top.limbs_[i];
    result = std::ldexp(static_cast<double>(mag),
                        static_cast<int>(bits - 64));
  }
  return negative_ ? -result : result;
}

bool BigInt::fits_int64() const {
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  std::uint64_t mag = (static_cast<std::uint64_t>(limbs_[1]) << 32) | limbs_[0];
  if (negative_) return mag <= (std::uint64_t{1} << 63);
  return mag < (std::uint64_t{1} << 63);
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::range_error("BigInt: value does not fit int64");
  if (is_zero()) return 0;
  std::uint64_t mag = limbs_[0];
  if (limbs_.size() == 2) mag |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (negative_) return static_cast<std::int64_t>(~mag + 1);
  return static_cast<std::int64_t>(mag);
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_string();
}

}  // namespace spiv::exact
