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
  static constexpr unsigned kMinShift = 2;   // 4 limbs    (32 bytes)
  static constexpr unsigned kMaxShift = 11;  // 2048 limbs (16 KiB)
  static constexpr std::size_t kBinCap = 8;
  struct Bin {
    std::uint64_t* blocks[kBinCap];
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
std::uint64_t* pool_acquire(std::size_t cap) {
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
  return new std::uint64_t[cap];
}

void pool_release(std::uint64_t* block, std::size_t cap) noexcept {
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

// Two inline limbs keep every value below 2^128 off the heap at the
// size of four pointers.
static_assert(sizeof(BigInt) == 32);

namespace {

using Limb = std::uint64_t;
using DoubleLimb = unsigned __int128;

// Limb count at which mul_magnitude switches from schoolbook to Karatsuba.
// Tuned on a 4-core x86-64 VM (gcc -O3) by timing balanced random
// products of 16..512 64-bit limbs across thresholds {16, 24, 32, 48, 64,
// 96, 128, never}; summed best-of-3 times were 390 / 308 / 291 / 283 /
// 281 / 313 / 330 / 563 us.  64 was the sweep minimum; the curve is flat
// within 3% from 32 to 64 (EXPERIMENTS.md, "Karatsuba threshold").
constexpr std::size_t kKaratsubaThreshold = 64;

/// a + b + carry; carry in and out is 0 or 1.
inline Limb add_carry(Limb a, Limb b, Limb& carry) {
  const DoubleLimb s = static_cast<DoubleLimb>(a) + b + carry;
  carry = static_cast<Limb>(s >> 64);
  return static_cast<Limb>(s);
}

/// a - b - borrow; borrow in and out is 0 or 1.
inline Limb sub_borrow(Limb a, Limb b, Limb& borrow) {
  const DoubleLimb d = static_cast<DoubleLimb>(a) - b - borrow;
  borrow = static_cast<Limb>(d >> 64) & 1;
  return static_cast<Limb>(d);
}

void trim_limbs(detail::LimbVec& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

}  // namespace

BigInt::BigInt(std::int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Avoid UB on INT64_MIN: negate in unsigned space.
  const std::uint64_t mag =
      negative_ ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  limbs_.push_back(mag);
}

BigInt::BigInt(std::string_view decimal) {
  std::size_t i = 0;
  bool neg = false;
  if (i < decimal.size() && (decimal[i] == '-' || decimal[i] == '+')) {
    neg = decimal[i] == '-';
    ++i;
  }
  if (i == decimal.size()) throw std::invalid_argument("BigInt: empty numeral");
  // 18 digits at a time (10^18 < 2^63): acc = acc * 10^k + chunk.
  BigInt acc;
  while (i < decimal.size()) {
    const std::size_t k = std::min<std::size_t>(18, decimal.size() - i);
    std::int64_t chunk = 0, scale = 1;
    for (std::size_t e = i + k; i < e; ++i) {
      const char c = decimal[i];
      if (c < '0' || c > '9')
        throw std::invalid_argument("BigInt: invalid character in numeral");
      chunk = chunk * 10 + (c - '0');
      scale *= 10;
    }
    acc *= BigInt{scale};
    acc += BigInt{chunk};
  }
  limbs_ = std::move(acc.limbs_);
  negative_ = neg && !limbs_.empty();
}

void BigInt::trim() {
  trim_limbs(limbs_);
  if (limbs_.empty()) negative_ = false;
}

void BigInt::set_mag_u128(unsigned __int128 mag, bool negative) {
  limbs_.clear();
  while (mag != 0) {
    limbs_.push_back(static_cast<Limb>(mag));
    mag >>= kLimbBits;
  }
  negative_ = negative && !limbs_.empty();
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * kLimbBits +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
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

void BigInt::add_magnitude(Limbs& a, const Limbs& b) {
  const std::size_t nb = b.size();
  const std::size_t n = std::max(a.size(), nb);
  // Only a shorter a grows here, and then b is not a; b may alias a.
  a.resize(n, 0);
  Limb* pa = a.data();
  const Limb* pb = b.data();
  Limb carry = 0;
  std::size_t i = 0;
  for (; i < nb; ++i) pa[i] = add_carry(pa[i], pb[i], carry);
  for (; carry != 0 && i < n; ++i) pa[i] = add_carry(pa[i], 0, carry);
  if (carry != 0) a.push_back(carry);
}

void BigInt::sub_magnitude(Limbs& a, const Limbs& b) {
  Limb* pa = a.data();
  const Limb* pb = b.data();
  const std::size_t nb = b.size();
  Limb borrow = 0;
  std::size_t i = 0;
  for (; i < nb; ++i) pa[i] = sub_borrow(pa[i], pb[i], borrow);
  for (; borrow != 0; ++i) pa[i] = sub_borrow(pa[i], 0, borrow);
  trim_limbs(a);
}

void BigInt::rsub_magnitude(Limbs& a, const Limbs& b) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  a.resize(nb, 0);
  Limb* pa = a.data();
  const Limb* pb = b.data();
  Limb borrow = 0;
  std::size_t i = 0;
  for (; i < na; ++i) pa[i] = sub_borrow(pb[i], pa[i], borrow);
  for (; i < nb; ++i) pa[i] = sub_borrow(pb[i], 0, borrow);
  trim_limbs(a);
}

BigInt::Limbs BigInt::mul_schoolbook(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  // Exact-size construction: a.size()+b.size() limbs always suffices, so
  // this single allocation is the only one the whole routine performs.
  const std::size_t na = a.size(), nb = b.size();
  Limbs out(na + nb, 0);
  Limb* po = out.data();
  const Limb* pa = a.data();
  const Limb* pb = b.data();
  for (std::size_t i = 0; i < na; ++i) {
    const Limb ai = pa[i];
    if (ai == 0) continue;  // sparse operands (powers of ten, shifts)
    Limb carry = 0;
    Limb* row = po + i;
    for (std::size_t j = 0; j < nb; ++j) {
      const DoubleLimb cur =
          static_cast<DoubleLimb>(ai) * pb[j] + row[j] + carry;
      row[j] = static_cast<Limb>(cur);
      carry = static_cast<Limb>(cur >> 64);
    }
    // Rows before i reach at most limb i + nb - 1, so this one is free.
    row[nb] = carry;
  }
  trim_limbs(out);
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
    trim_limbs(lo);
    return {std::move(lo), std::move(hi)};
  };
  auto [a0, a1] = split(a);
  auto [b0, b1] = split(b);
  Limbs z0 = mul_karatsuba(a0, b0);
  Limbs z2 = mul_karatsuba(a1, b1);
  add_magnitude(a0, a1);
  add_magnitude(b0, b1);
  Limbs z1 = mul_karatsuba(a0, b0);
  sub_magnitude(z1, z0);
  sub_magnitude(z1, z2);
  // result = z0 + z1 << (64*half) + z2 << (128*half)
  Limbs out(std::max({z0.size(), z1.size() + half, z2.size() + 2 * half}) + 1,
            0);
  Limb* po = out.data();
  auto add_at = [po](const Limbs& v, std::size_t off) {
    Limb carry = 0;
    std::size_t i = 0;
    for (; i < v.size(); ++i) po[off + i] = add_carry(po[off + i], v[i], carry);
    for (; carry != 0; ++i) po[off + i] = add_carry(po[off + i], 0, carry);
  };
  add_at(z0, 0);
  add_at(z1, half);
  add_at(z2, 2 * half);
  trim_limbs(out);
  return out;
}

BigInt::Limbs BigInt::mul_magnitude(const Limbs& a, const Limbs& b) {
  if (a.size() >= kKaratsubaThreshold && b.size() >= kKaratsubaThreshold)
    return mul_karatsuba(a, b);
  return mul_schoolbook(a, b);
}

BigInt& BigInt::add_signed(const BigInt& rhs, bool rhs_negative) {
  if (limbs_.size() <= 1 && rhs.limbs_.size() <= 1) {
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
    add_magnitude(limbs_, rhs.limbs_);
    return *this;
  }
  const int cmp = compare_magnitude(limbs_, rhs.limbs_);
  if (cmp == 0) {
    limbs_.clear();
    negative_ = false;
  } else if (cmp > 0) {
    sub_magnitude(limbs_, rhs.limbs_);
  } else {
    rsub_magnitude(limbs_, rhs.limbs_);
    negative_ = rhs_negative;
  }
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  return add_signed(rhs, rhs.negative_);
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  return add_signed(rhs, !rhs.negative_);
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (limbs_.size() <= 1 && rhs.limbs_.size() <= 1) {
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
    Limb rem = 0;
    const Limb d = den[0];
    for (std::size_t i = num.size(); i-- > 0;) {
      const DoubleLimb cur = (static_cast<DoubleLimb>(rem) << 64) | num[i];
      quot[i] = static_cast<Limb>(cur / d);
      rem = static_cast<Limb>(cur % d);
    }
    trim_limbs(quot);
    Limbs r;
    if (rem) r.push_back(rem);
    return {std::move(quot), std::move(r)};
  }
  // Knuth algorithm D (TAOCP 4.3.1) with normalization: shift both
  // operands so the divisor's top limb has its high bit set; then the
  // quotient estimate from the top two dividend limbs is at most 2 too
  // large.
  const unsigned shift = static_cast<unsigned>(std::countl_zero(den.back()));
  const std::size_t n = den.size();
  const std::size_t m = num.size() - n;
  // u = num << shift with one extra high limb; v = den << shift.
  Limbs u_limbs(num.size() + 1, 0);
  Limbs v_limbs(n, 0);
  Limb* const u = u_limbs.data();
  Limb* const vw = v_limbs.data();
  auto shl = [shift](const Limb* src, std::size_t len, Limb* dst) {
    if (shift == 0) {
      std::copy(src, src + len, dst);
      return Limb{0};
    }
    Limb hi = 0;
    for (std::size_t i = 0; i < len; ++i) {
      dst[i] = (src[i] << shift) | hi;
      hi = src[i] >> (kLimbBits - shift);
    }
    return hi;
  };
  u[num.size()] = shl(num.data(), num.size(), u);
  shl(den.data(), n, vw);
  const Limb* const v = vw;
  Limbs quot(m + 1, 0);
  const Limb vtop = v[n - 1];
  const Limb vnext = v[n - 2];
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat = (u[j+n] : u[j+n-1]) / vtop, capped at 2^64 - 1.
    Limb qhat, rhat;
    bool rhat_overflow = false;
    if (u[j + n] >= vtop) {
      // u[j+n] == vtop (the running remainder is below v): qhat = 2^64 - 1
      // and rhat = u[j+n-1] + vtop, which may not fit a limb.
      qhat = ~Limb{0};
      const DoubleLimb r = static_cast<DoubleLimb>(u[j + n - 1]) + vtop;
      rhat = static_cast<Limb>(r);
      rhat_overflow = (r >> 64) != 0;
    } else {
      const DoubleLimb numerator =
          (static_cast<DoubleLimb>(u[j + n]) << 64) | u[j + n - 1];
      qhat = static_cast<Limb>(numerator / vtop);
      rhat = static_cast<Limb>(numerator -
                               static_cast<DoubleLimb>(qhat) * vtop);
    }
    while (!rhat_overflow &&
           static_cast<DoubleLimb>(qhat) * vnext >
               ((static_cast<DoubleLimb>(rhat) << 64) | u[j + n - 2])) {
      --qhat;
      const DoubleLimb r = static_cast<DoubleLimb>(rhat) + vtop;
      rhat = static_cast<Limb>(r);
      rhat_overflow = (r >> 64) != 0;
    }
    // Multiply-subtract qhat*v from u[j..j+n]; the borrow of each limb is
    // folded into the next product's carry (it cannot overflow a limb).
    Limb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const DoubleLimb p = static_cast<DoubleLimb>(qhat) * v[i] + carry;
      const Limb plo = static_cast<Limb>(p);
      const Limb ui = u[i + j];
      u[i + j] = ui - plo;
      carry = static_cast<Limb>(p >> 64) + (ui < plo ? 1 : 0);
    }
    const Limb top = u[j + n];
    u[j + n] = top - carry;
    if (top < carry) {
      // qhat was one too large: add v back (the carry out of the top limb
      // cancels the borrow above).
      --qhat;
      Limb c2 = 0;
      for (std::size_t i = 0; i < n; ++i)
        u[i + j] = add_carry(u[i + j], v[i], c2);
      u[j + n] += c2;
    }
    quot[j] = qhat;
  }
  trim_limbs(quot);
  // Remainder = u[0..n) >> shift.
  Limbs rem(u, u + n);
  if (shift) {
    Limb* r = rem.data();
    for (std::size_t i = 0; i + 1 < n; ++i)
      r[i] = (r[i] >> shift) | (r[i + 1] << (kLimbBits - shift));
    r[n - 1] >>= shift;
  }
  trim_limbs(rem);
  return {std::move(quot), std::move(rem)};
}

std::pair<BigInt, BigInt> BigInt::div_mod(const BigInt& num, const BigInt& den) {
  if (den.limbs_.empty()) throw std::domain_error("BigInt: division by zero");
  if (num.limbs_.size() <= 2 && den.limbs_.size() <= 2) {
    const unsigned __int128 n = num.mag_u128();
    const unsigned __int128 d = den.mag_u128();
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
  // stay below kCofactorCap, so the word arithmetic cannot overflow int64
  // and a cofactor times a limb fits in 95 bits.  A round that accepts no
  // quotient (a/b beyond the window) takes one divmod.
  constexpr std::size_t kWindow = 62;
  constexpr std::int64_t kCofactorCap = std::int64_t{1} << 31;
  auto window = [](const Limbs& v, std::size_t shift) {
    const std::size_t li = shift / kLimbBits;
    DoubleLimb w = 0;
    for (std::size_t j = 0; j < 2 && li + j < v.size(); ++j)
      w |= static_cast<DoubleLimb>(v[li + j]) << (kLimbBits * j);
    return static_cast<std::int64_t>((w >> (shift % kLimbBits)) &
                                     ((Limb{1} << kWindow) - 1));
  };
  b.limbs_.reserve(a.limbs_.size());
  while (a.limbs_.size() > 1) {
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
    // Euclid's cofactors alternate in sign, so A and B (and C and D) have
    // opposite signs: each new limb is a difference of two unsigned
    // 64 x 64-bit products, taken in the order that makes the value >= 0.
    const bool a_first = cb <= 0;  // then A >= 0
    const bool c_first = cd <= 0;  // then C >= 0
    const Limb ua = static_cast<Limb>(a_first ? ca : -ca);
    const Limb ub = static_cast<Limb>(a_first ? -cb : cb);
    const Limb uc = static_cast<Limb>(c_first ? cc : -cc);
    const Limb ud = static_cast<Limb>(c_first ? -cd : cd);
    auto product = [](Limb x, Limb y) {  // below 2^95: x is a cofactor
      return static_cast<__int128>(static_cast<DoubleLimb>(x) * y);
    };
    const std::size_t na = a.limbs_.size();
    b.limbs_.resize(na, 0);
    Limb* pa = a.limbs_.data();
    Limb* pb = b.limbs_.data();
    __int128 carry_a = 0, carry_b = 0;
    for (std::size_t i = 0; i < na; ++i) {
      const Limb ai = pa[i];
      const Limb bi = pb[i];
      const __int128 da = product(ua, ai) - product(ub, bi);
      const __int128 dc = product(uc, ai) - product(ud, bi);
      carry_a += a_first ? da : -da;
      carry_b += c_first ? dc : -dc;
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
    const DoubleLimb cur =
        (static_cast<DoubleLimb>(rem) << kLimbBits) | limbs_[i];
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
  const std::size_t n = limbs_.size();
  out.limbs_.assign(n + limb_shift + 1, 0);
  Limb* po = out.limbs_.data() + limb_shift;
  const Limb* pi = limbs_.data();
  if (bit_shift == 0) {
    std::copy(pi, pi + n, po);
  } else {
    Limb hi = 0;
    for (std::size_t i = 0; i < n; ++i) {
      po[i] = (pi[i] << bit_shift) | hi;
      hi = pi[i] >> (kLimbBits - bit_shift);
    }
    po[n] = hi;
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
    Limb* p = out.limbs_.data();
    const std::size_t n = out.limbs_.size();
    for (std::size_t i = 0; i + 1 < n; ++i)
      p[i] = (p[i] >> bit_shift) | (p[i + 1] << (kLimbBits - bit_shift));
    p[n - 1] >>= bit_shift;
  }
  out.trim();
  return out;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  // Repeated in-place division by 10^19, the largest power of ten below
  // 2^64; each remainder gives 19 digits.
  Limbs mag = limbs_;
  std::string digits;
  constexpr Limb kChunk = 10000000000000000000ull;
  while (!mag.empty()) {
    Limb rem = 0;
    Limb* p = mag.data();
    for (std::size_t i = mag.size(); i-- > 0;) {
      const DoubleLimb cur = (static_cast<DoubleLimb>(rem) << 64) | p[i];
      p[i] = static_cast<Limb>(cur / kChunk);
      rem = static_cast<Limb>(cur % kChunk);
    }
    trim_limbs(mag);
    for (int d = 0; d < 19; ++d) {
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
  // The top 64 bits of the magnitude (truncated), rounded once to double.
  const std::size_t bits = bit_length();
  double result;
  if (bits <= 64) {
    result = static_cast<double>(limbs_[0]);
  } else {
    const std::size_t shift = bits - 64;
    const std::size_t li = shift / kLimbBits;
    const unsigned bs = static_cast<unsigned>(shift % kLimbBits);
    Limb top = limbs_[li] >> bs;
    if (bs) top |= limbs_[li + 1] << (kLimbBits - bs);
    result = std::ldexp(static_cast<double>(top), static_cast<int>(shift));
  }
  return negative_ ? -result : result;
}

bool BigInt::fits_int64() const {
  if (limbs_.size() > 1) return false;
  const std::uint64_t mag = mag_u64();
  if (negative_) return mag <= (std::uint64_t{1} << 63);
  return mag < (std::uint64_t{1} << 63);
}

std::int64_t BigInt::to_int64() const {
  if (!fits_int64()) throw std::range_error("BigInt: value does not fit int64");
  const std::uint64_t mag = mag_u64();
  if (negative_) return static_cast<std::int64_t>(~mag + 1);
  return static_cast<std::int64_t>(mag);
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.to_string();
}

}  // namespace spiv::exact
