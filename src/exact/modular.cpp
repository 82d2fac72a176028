#include "exact/modular.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/parallel.hpp"
#include "exact/int_system.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace spiv::exact {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accumulates wall-clock into a phase total even when the guarded section
/// throws (deadline expiry mid-reconstruction must still be attributed).
struct PhaseTimer {
  explicit PhaseTimer(double& acc) : acc_(acc) {}
  ~PhaseTimer() { acc_ += seconds_since(t0_); }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_ = Clock::now();
};

/// Hot-path metric handles, resolved once.  Constructed eagerly below so
/// the whole family is present in `spiv-serve metrics` / --metrics-out
/// output even before the first modular solve runs.
/// The names predate the p-adic solve path and are kept for dashboards:
/// for a solve, "prime_solve" times its one lucky factorisation mod p,
/// "elim" denominator clearing, factorisation and lifting, "crt" the
/// p-adic conversion, and "primes_used" counts p-adic digits.
struct Metrics {
  obs::Histogram& prime_solve_seconds = obs::Registry::global().histogram(
      "spiv_modular_prime_solve_seconds");
  // Per-solve phase totals (wall clock, driver-attributed).
  obs::Histogram& elim_seconds =
      obs::Registry::global().histogram("spiv_modular_elim_seconds");
  obs::Histogram& crt_seconds =
      obs::Registry::global().histogram("spiv_modular_crt_seconds");
  obs::Histogram& reconstruct_seconds = obs::Registry::global().histogram(
      "spiv_modular_reconstruct_seconds");
  obs::Histogram& verify_seconds =
      obs::Registry::global().histogram("spiv_modular_verify_seconds");
  obs::Counter& primes_used =
      obs::Registry::global().counter("spiv_modular_primes_used_total");
  obs::Counter& unlucky_primes =
      obs::Registry::global().counter("spiv_modular_unlucky_primes_total");
  obs::Counter& early_exits =
      obs::Registry::global().counter("spiv_modular_early_exit_total");
  obs::Counter& solves =
      obs::Registry::global().counter("spiv_modular_solves_total");
};

Metrics& metrics() {
  static Metrics m;
  return m;
}

[[maybe_unused]] const bool kMetricsRegistered = (metrics(), true);

// ------------------------------------------------------- prime generation

std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m) {
  return static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod_u64(std::uint64_t base, std::uint64_t e,
                         std::uint64_t m) {
  std::uint64_t r = 1;
  base %= m;
  while (e != 0) {
    if (e & 1u) r = mulmod_u64(r, base, m);
    base = mulmod_u64(base, base, m);
    e >>= 1;
  }
  return r;
}

/// Deterministic Miller–Rabin for 64-bit integers (the 12-base set covers
/// all n < 2^64).  Only used when extending the cached prime sequence.
bool is_prime_u64(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  unsigned r = 0;
  while ((d & 1u) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull,
                          23ull, 29ull, 31ull, 37ull}) {
    std::uint64_t x = powmod_u64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (unsigned i = 1; i < r; ++i) {
      x = mulmod_u64(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

// ------------------------------------------------------- per-prime kernel

enum class PrimeStatus { Abandoned, Ok };

struct PrimeDet {
  std::uint64_t prime = 0;
  PrimeStatus status = PrimeStatus::Abandoned;
  std::uint64_t det = 0;  ///< plain residue (0 is a legitimate value here)
};

void det_one_prime(const detail::IntSystem& sys, std::size_t n,
                   const Deadline& deadline, PrimeDet& out) {
  const auto t0 = Clock::now();
  const Montgomery62 mont{out.prime};
  const std::uint64_t p = out.prime;
  std::vector<std::uint64_t> t(n * n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      t[i * n + j] = mont.to_mont(sys.m[i][j].mod_u64(p));
  std::uint64_t det = mont.one();
  bool negate = false;
  for (std::size_t col = 0; col < n; ++col) {
    if (deadline.expired()) return;
    std::size_t pivot = n;
    for (std::size_t r = col; r < n; ++r) {
      if (t[r * n + col] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot == n) {
      out.det = 0;  // det == 0 mod p: the answer, not an unlucky prime
      out.status = PrimeStatus::Ok;
      return;
    }
    if (pivot != col) {
      std::swap_ranges(t.begin() + static_cast<std::ptrdiff_t>(pivot * n),
                       t.begin() + static_cast<std::ptrdiff_t>((pivot + 1) * n),
                       t.begin() + static_cast<std::ptrdiff_t>(col * n));
      negate = !negate;
    }
    det = mont.mul(det, t[col * n + col]);
    const std::uint64_t inv_pivot = mont.inv(t[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const std::uint64_t lead = t[r * n + col];
      if (lead == 0) continue;
      const std::uint64_t f = mont.mul(lead, inv_pivot);
      t[r * n + col] = 0;
      for (std::size_t j = col + 1; j < n; ++j)
        t[r * n + j] = mont.sub(t[r * n + j], mont.mul(f, t[col * n + j]));
    }
  }
  det = mont.from_mont(det);
  if (negate && det != 0) det = p - det;
  out.det = det;
  out.status = PrimeStatus::Ok;
  metrics().prime_solve_seconds.observe(seconds_since(t0));
}

// --------------------------------------------------------------- CRT fold

/// a^{-1} mod m (extended Euclid), for gcd(a, m) == 1; result in [0, m).
BigInt modinv_big(const BigInt& a, const BigInt& m) {
  BigInt r0 = m;
  BigInt r1 = a % m;
  if (r1.is_negative()) r1 += m;
  BigInt t0{0}, t1{1};
  while (!r1.is_zero()) {
    auto [q, r2] = BigInt::div_mod(r0, r1);
    BigInt t2 = t0 - q * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (t0.is_negative()) t0 += m;
  return t0;
}

/// Shared (entry-independent) data for one batched CRT fold: the per-prime
/// delta multipliers and the balanced product tree that combines per-prime
/// deltas into one group value.  Built once per batch on the driver; read
/// concurrently by every entry-block worker.
struct FoldPlan {
  std::vector<std::uint64_t> primes;
  std::vector<std::uint64_t> minv;  ///< (m mod p)^{-1} mod p, plain residue
  struct Pair {
    BigInt m_lo, m_hi;
    BigInt inv_lo;  ///< m_lo^{-1} mod m_hi
  };
  /// levels[l] pairs adjacent subtree moduli; an odd tail passes through.
  std::vector<std::vector<Pair>> levels;
  BigInt group;  ///< product of all folded primes
};

FoldPlan make_fold_plan(const std::vector<std::uint64_t>& primes,
                        const BigInt& m) {
  FoldPlan plan;
  plan.primes = primes;
  plan.minv.reserve(primes.size());
  for (std::uint64_t p : primes) {
    const Montgomery62 mont{p};
    plan.minv.push_back(
        mont.from_mont(mont.inv(mont.to_mont(m.mod_u64(p)))));
  }
  std::vector<BigInt> mods;
  mods.reserve(primes.size());
  for (std::uint64_t p : primes)
    mods.emplace_back(static_cast<std::int64_t>(p));
  while (mods.size() > 1) {
    std::vector<FoldPlan::Pair> level;
    std::vector<BigInt> next;
    level.reserve(mods.size() / 2);
    next.reserve((mods.size() + 1) / 2);
    std::size_t i = 0;
    for (; i + 1 < mods.size(); i += 2) {
      FoldPlan::Pair pair{mods[i], mods[i + 1],
                          modinv_big(mods[i], mods[i + 1])};
      next.push_back(pair.m_lo * pair.m_hi);
      level.push_back(std::move(pair));
    }
    if (i < mods.size()) next.push_back(std::move(mods[i]));
    mods = std::move(next);
    plan.levels.push_back(std::move(level));
  }
  plan.group = mods.empty() ? BigInt{1} : std::move(mods.front());
  return plan;
}

/// Combine the first `count` per-prime deltas in `vals` (vals[i] mod
/// plan.primes[i]) into the unique value mod plan.group, bottom-up through
/// the product tree.  `vals` is caller-owned scratch, overwritten in place.
BigInt combine_fold_tree(const FoldPlan& plan, std::vector<BigInt>& vals,
                         std::size_t count) {
  for (const auto& level : plan.levels) {
    std::size_t out = 0;
    std::size_t i = 0;
    for (const FoldPlan::Pair& pair : level) {
      // v = v_lo + m_lo * (((v_hi - v_lo) mod m_hi) * inv_lo mod m_hi)
      BigInt t = vals[i + 1] - vals[i];
      t %= pair.m_hi;
      if (t.is_negative()) t += pair.m_hi;
      t *= pair.inv_lo;
      t %= pair.m_hi;
      vals[out++] = vals[i] + pair.m_lo * t;
      i += 2;
    }
    if (i < count) vals[out++] = std::move(vals[i]);
    count = out;
  }
  return std::move(vals.front());
}

}  // namespace

namespace detail {

void crt_fold_batch(std::vector<BigInt>& xs, BigInt& m,
                    const std::vector<const std::uint64_t*>& residues,
                    const std::vector<std::uint64_t>& primes,
                    std::size_t jobs) {
  if (primes.empty()) return;
  const FoldPlan plan = make_fold_plan(primes, m);
  const std::size_t np = primes.size();
  core::for_each_block(
      xs.size(), jobs,
      [&](std::size_t b0, std::size_t b1) {
        std::vector<BigInt> vals(np);
        for (std::size_t e = b0; e < b1; ++e) {
          // Per-prime delta: t_p = (r_p - x_e) * m^{-1} (mod p), so that
          // x_e + m * CRT(t_p...) matches every folded prime and stays
          // congruent to x_e mod m.
          for (std::size_t i = 0; i < np; ++i) {
            const std::uint64_t p = primes[i];
            const std::uint64_t xe = xs[e].mod_u64(p);
            const std::uint64_t r = residues[i][e];
            const std::uint64_t diff = r >= xe ? r - xe : r + (p - xe);
            vals[i] = BigInt{static_cast<std::int64_t>(
                mulmod_u64(diff, plan.minv[i], p))};
          }
          BigInt t = combine_fold_tree(plan, vals, np);
          if (!t.is_zero()) xs[e] += m * t;
        }
      });
  m *= plan.group;
}

void padic_fold(std::vector<BigInt>& xs, BigInt& m,
                const std::uint64_t* digits, std::size_t count,
                std::uint64_t p, std::size_t jobs) {
  if (count == 0) return;
  const std::size_t entries = xs.size();
  const BigInt pb{static_cast<std::int64_t>(p)};
  // pows[l] = p^(2^l), the weight of the hi half when level-l blocks of
  // 2^l digits merge pairwise.
  std::vector<BigInt> pows{pb};
  while ((std::size_t{1} << pows.size()) < count)
    pows.push_back(pows.back() * pows.back());
  core::for_each_block(
      entries, jobs,
      [&](std::size_t b0, std::size_t b1) {
        std::vector<BigInt> vals(count);
        for (std::size_t e = b0; e < b1; ++e) {
          for (std::size_t i = 0; i < count; ++i)
            vals[i] = BigInt{static_cast<std::int64_t>(digits[i * entries + e])};
          // Left-aligned pairing: every lo block is a full 2^l digits, only
          // the last block of a level can be short, and an odd tail passes
          // through to the next level.
          std::size_t live = count;
          for (std::size_t level = 0; live > 1; ++level) {
            std::size_t out = 0;
            std::size_t i = 0;
            for (; i + 1 < live; i += 2) {
              if (!vals[i + 1].is_zero()) vals[i] += pows[level] * vals[i + 1];
              if (out != i) vals[out] = std::move(vals[i]);
              ++out;
            }
            if (i < live) vals[out++] = std::move(vals[i]);
            live = out;
          }
          if (!vals[0].is_zero()) xs[e] += m * vals[0];
        }
      });
  m *= pb.pow(static_cast<unsigned>(count));
}

}  // namespace detail

// --------------------------------------------------------------- montgomery

Montgomery62::Montgomery62(std::uint64_t p) : p_(p) {
  if (p < 3 || (p & 1u) == 0 || (p >> 62) != 0)
    throw std::invalid_argument("Montgomery62: need an odd modulus < 2^62");
  // Newton–Hensel: x <- x(2 - p x) doubles the number of correct low bits,
  // so six iterations from x = p (3 correct bits for odd p) reach 2^64.
  std::uint64_t inv = p;
  for (int i = 0; i < 6; ++i) inv *= 2 - p * inv;
  ninv_ = ~inv + 1;
  r1_ = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(1) << 64) % p);
  r2_ = static_cast<std::uint64_t>(
      static_cast<unsigned __int128>(r1_) * r1_ % p);
}

std::uint64_t Montgomery62::inv(std::uint64_t a_mont) const {
  if (a_mont == 0)
    throw std::domain_error("Montgomery62: inverse of zero");
  // Fermat: a^(p-2) mod p, entirely in Montgomery form.
  std::uint64_t result = r1_;
  std::uint64_t base = a_mont;
  std::uint64_t e = p_ - 2;
  while (e != 0) {
    if (e & 1u) result = mul(result, base);
    base = mul(base, base);
    e >>= 1;
  }
  return result;
}

// ----------------------------------------------------------------- primes

std::uint64_t modular_prime(std::size_t index) {
  static std::mutex mutex;
  static std::vector<std::uint64_t> primes;
  std::lock_guard<std::mutex> lock(mutex);
  while (primes.size() <= index) {
    std::uint64_t candidate =
        primes.empty() ? (std::uint64_t{1} << 62) - 1 : primes.back() - 2;
    while (!is_prime_u64(candidate)) candidate -= 2;
    primes.push_back(candidate);
  }
  return primes[index];
}

// ------------------------------------------------------------ dixon lift

namespace {

/// a -= v·y (mod 2^(64w)) on w-word two's-complement values, y < 2^62:
/// the unsigned product of v's bit pattern, truncated to w words, is v·y
/// modulo 2^(64w).
inline void sub_mul_words(std::uint64_t* a, const std::uint64_t* v,
                          std::uint64_t y, std::size_t w) {
  std::uint64_t carry = 0;   // high word of the running product
  std::uint64_t borrow = 0;  // of the running subtraction
  for (std::size_t i = 0; i < w; ++i) {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(v[i]) * y + carry;
    const auto lo = static_cast<std::uint64_t>(prod);
    carry = static_cast<std::uint64_t>(prod >> 64);
    const std::uint64_t t = a[i] - lo;
    const std::uint64_t b1 = a[i] < lo;
    a[i] = t - borrow;
    borrow = b1 | (t < borrow);
  }
}

/// a <- a·p^{-1} mod 2^(64w): Hensel (right-to-left) division, one
/// multiply by p^{-1} mod 2^64 per word, as in GMP's mpn_divexact_1.  When
/// p divides the true value and the quotient fits in w signed words, that
/// is the exact quotient, whatever the true value's own width.
inline void divexact_words(std::uint64_t* a, std::size_t w, std::uint64_t p,
                           std::uint64_t p_inv) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const std::uint64_t s = a[i] - carry;
    const std::uint64_t b = a[i] < carry;
    const std::uint64_t q = s * p_inv;
    a[i] = q;
    carry = static_cast<std::uint64_t>(
                (static_cast<unsigned __int128>(q) * p) >> 64) + b;
  }
}

/// v as a w-word two's-complement value (|v| < 2^(64w - 1)).
void to_words(const BigInt& v, std::uint64_t* out, std::size_t w) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 32;
  BigInt mag = v.abs();
  for (std::size_t i = 0; i < w; ++i) {
    const std::uint64_t lo = mag.mod_u64(kHalf);
    mag = mag.shifted_right(32);
    const std::uint64_t hi = mag.mod_u64(kHalf);
    mag = mag.shifted_right(32);
    out[i] = lo | hi << 32;
  }
  if (!v.is_negative()) return;
  std::uint64_t carry = 1;
  for (std::size_t i = 0; i < w; ++i) {
    out[i] = ~out[i] + carry;
    carry &= static_cast<std::uint64_t>(out[i] == 0);
  }
}

}  // namespace

namespace detail {

DixonLift::DixonLift(std::uint64_t p, std::size_t n, std::size_t k)
    : mont_{p}, n_{n}, k_{k}, width_{n * k} {}

std::optional<DixonLift> DixonLift::start(const IntSystem& sys,
                                          const Deadline& deadline,
                                          std::uint64_t& unlucky) {
  const std::size_t n = sys.m.size();
  const std::size_t k = n == 0 ? 0 : sys.rhs.front().size();
  unlucky = 0;
  std::size_t unlucky_bits = 0;  // log2 lower bound of their product
  for (std::size_t index = 0;; ++index) {
    // Every unlucky prime divides det(M), and so does their product.  Once
    // that product exceeds the Hadamard bound on |det(M)|, det(M) == 0:
    // the system is proven singular.  A nonsingular system never clears
    // this bar: its unlucky primes multiply to a divisor of det(M) != 0.
    if (unlucky_bits >= sys.det_bound_bits) return std::nullopt;
    const auto t0 = Clock::now();
    DixonLift lift{modular_prime(index), n, k};
    if (lift.factorise(sys, deadline)) {
      metrics().prime_solve_seconds.observe(seconds_since(t0));
      lift.load(sys);
      return lift;
    }
    ++unlucky;
    unlucky_bits += static_cast<std::size_t>(std::bit_width(lift.prime())) - 1;
  }
}

bool DixonLift::factorise(const IntSystem& sys, const Deadline& deadline) {
  const std::size_t n = n_;
  const Montgomery62& mont = mont_;
  const std::uint64_t p = mont.modulus();
  lu_.assign(n * n, 0);
  std::uint64_t* const t = lu_.data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if (!sys.m[i][j].is_zero())
        t[i * n + j] = mont.to_mont(sys.m[i][j].mod_u64(p));
  swaps_.assign(n, 0);
  // Row-swapping LU in place (LAPACK getrf layout): U on and above the
  // diagonal, L's multipliers below it, rows of both swapped together.
  for (std::size_t col = 0; col < n; ++col) {
    deadline.check();
    std::size_t pivot = col;
    while (pivot < n && t[pivot * n + col] == 0) ++pivot;
    if (pivot == n) return false;  // det(M) == 0 mod p
    swaps_[col] = pivot;
    if (pivot != col)
      std::swap_ranges(t + pivot * n, t + (pivot + 1) * n, t + col * n);
    const std::uint64_t inv_pivot = mont.inv(t[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const std::uint64_t lead = t[r * n + col];
      if (lead == 0) continue;
      const std::uint64_t f = mont.mul(lead, inv_pivot);
      t[r * n + col] = f;
      for (std::size_t j = col + 1; j < n; ++j)
        t[r * n + j] = mont.sub(t[r * n + j], mont.mul(f, t[col * n + j]));
    }
  }
  dinv_.resize(n);
  for (std::size_t i = 0; i < n; ++i) dinv_[i] = mont.inv(t[i * n + i]);
  return true;
}

void DixonLift::load(const IntSystem& sys) {
  const std::size_t n = n_;
  const std::size_t k = k_;
  const std::uint64_t p = mont_.modulus();
  // With B = max(|R|, max row 1-norm of M), |R_L| <= B for every L:
  // |R_{L+1}| <= (B + B(p-1)) / p.  A step computes R_L - M·Y_L modulo
  // 2^(64·words_), where it may wrap, and divides by the odd p there; the
  // quotient is exact as long as R_{L+1} itself fits words_ signed words.
  BigInt bound{0};
  for (std::size_t i = 0; i < n; ++i) {
    BigInt norm{0};
    for (const BigInt& v : sys.m[i])
      if (!v.is_zero()) norm += v.abs();
    if (norm > bound) bound = std::move(norm);
    for (const BigInt& v : sys.rhs[i])
      if (v.abs() > bound) bound = v.abs();
  }
  const std::size_t w = (bound.bit_length() + 1 + 63) / 64;  // + sign bit
  words_ = w;
  row_start_.assign(1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (sys.m[i][j].is_zero()) continue;
      cols_.push_back(j);
      vals_.resize(vals_.size() + w);
      to_words(sys.m[i][j], vals_.data() + vals_.size() - w, w);
    }
    row_start_.push_back(cols_.size());
  }
  res_.assign(n * k * w, 0);
  res_mod_.resize(n * k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) {
      to_words(sys.rhs[i][c], res_.data() + (i * k + c) * w, w);
      res_mod_[i * k + c] = sys.rhs[i][c].mod_u64(p);
    }
  // Newton–Hensel, as in Montgomery62: six doublings from 3 correct bits.
  p_inv_ = p;
  for (int i = 0; i < 6; ++i) p_inv_ *= 2 - p * p_inv_;
  wrap_mod_ = 1;
  for (std::size_t i = 0; i < w; ++i)
    wrap_mod_ = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(wrap_mod_) << 64) % p);
}

std::uint64_t DixonLift::words_mod(const std::uint64_t* a) const {
  const std::uint64_t p = mont_.modulus();
  std::uint64_t r = 0;
  for (std::size_t i = words_; i-- > 0;)
    r = static_cast<std::uint64_t>(
        ((static_cast<unsigned __int128>(r) << 64) | a[i]) % p);
  if (a[words_ - 1] >> 63)  // negative: the words read a + 2^(64·words_)
    r = r >= wrap_mod_ ? r - wrap_mod_ : r + (p - wrap_mod_);
  return r;
}

void DixonLift::step() {
  const std::size_t n = n_;
  const std::size_t k = k_;
  const std::size_t w = words_;
  const std::uint64_t p = mont_.modulus();
  digits_.resize(digits_.size() + width_);
  std::uint64_t* y = digits_.data() + lifted_++ * width_;
  // Y = M^{-1} (R mod p) through the LU factors.  Vectors stay plain
  // residues: a Montgomery product of a Montgomery-form factor entry and a
  // plain value is the plain product.
  std::vector<std::uint64_t> z(n);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < n; ++i) z[i] = res_mod_[i * k + c];
    for (std::size_t col = 0; col < n; ++col)
      if (swaps_[col] != col) std::swap(z[col], z[swaps_[col]]);
    for (std::size_t i = 1; i < n; ++i)
      z[i] = mont_.sub(z[i], mont_.dot(&lu_[i * n], z.data(), i));
    for (std::size_t i = n; i-- > 0;) {
      const std::uint64_t acc = mont_.sub(
          z[i], mont_.dot(&lu_[i * n + i + 1], &z[i + 1], n - i - 1));
      z[i] = mont_.mul(acc, dinv_[i]);
    }
    for (std::size_t i = 0; i < n; ++i) y[i * k + c] = z[i];
  }
  // R <- (R - M·Y) / p, an exact division since M·Y == R (mod p).
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < k; ++c) {
      std::uint64_t* r = res_.data() + (i * k + c) * w;
      for (std::size_t t = row_start_[i]; t < row_start_[i + 1]; ++t)
        sub_mul_words(r, vals_.data() + t * w, y[cols_[t] * k + c], w);
      divexact_words(r, w, p, p_inv_);
      res_mod_[i * k + c] = words_mod(r);
    }
}

}  // namespace detail

// ---------------------------------------------------------- reconstruction

std::optional<Rational> rational_reconstruct(const BigInt& u, const BigInt& m,
                                             const BigInt& bound) {
  // Half-extended Euclid on (m, u): every intermediate (r_i, t_i) satisfies
  // r_i == t_i * u (mod m); stop at the first remainder <= bound (Wang).
  BigInt r0 = m, r1 = u;
  BigInt t0{0}, t1{1};
  // Lehmer acceleration, as in BigInt::gcd (Knuth 4.5.2, Algorithm L): a
  // round runs Euclid on the leading kWindow bits, keeps only quotients
  // both bracketing estimates agree on, and applies the cofactor matrix
  // [[A, B], [C, D]] to (r0, r1) and (t0, t1) at once.  Since
  // r0 = |D|·r0' + |B|·r1' with |B|, |D| < kCofactorCap, a round leaves
  // r0' > r0 / 2^32; rounds only run while r0 is 64 bits above the bound,
  // so every remainder a round steps over exceeds the bound and the first
  // one at or below it is still found by the single steps below.
  constexpr std::size_t kWindow = 62;
  constexpr std::int64_t kCofactorCap = std::int64_t{1} << 31;
  const std::size_t lehmer_floor = bound.bit_length() + 64;
  while (r1 > bound) {
    std::int64_t ca = 1, cb = 0, cc = 0, cd = 1;  // A, B, C, D
    if (r0.bit_length() > lehmer_floor) {
      const std::size_t shift = r0.bit_length() - kWindow;
      std::int64_t uh = r0.shifted_right(shift).to_int64();
      std::int64_t vh = r1.shifted_right(shift).to_int64();
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
    }
    if (cb == 0) {
      // No quotient accepted (or r0 too close to the bound): one step.
      auto [q, r2] = BigInt::div_mod(r0, r1);
      r0 = std::move(r1);
      r1 = std::move(r2);
      BigInt t2 = t0 - q * t1;
      t0 = std::move(t1);
      t1 = std::move(t2);
      continue;
    }
    const BigInt a{ca}, b{cb}, c{cc}, d{cd};
    BigInt r0n = r0 * a + r1 * b;
    r1 = r0 * c + r1 * d;
    r0 = std::move(r0n);
    BigInt t0n = t0 * a + t1 * b;
    t1 = t0 * c + t1 * d;
    t0 = std::move(t0n);
  }
  if (t1.is_zero()) return std::nullopt;
  BigInt num = std::move(r1);
  BigInt den = std::move(t1);
  if (den.is_negative()) {
    num = num.negated();
    den = den.negated();
  }
  if (den > bound) return std::nullopt;
  if (!BigInt::gcd(num, den).is_one()) return std::nullopt;
  return Rational::from_lowest_terms(std::move(num), std::move(den));
}

// ------------------------------------------------------------------ solve

namespace {

/// lcm(d, den) with a cheap divisibility pre-check: on the fast path every
/// denominator divides det(M), so after the first entry the remainder test
/// short-circuits the det-sized gcd.
void fold_lcm(BigInt& d, const BigInt& den) {
  if (den.is_one() || den == d) return;
  if (d.is_one()) {
    d = den;
    return;
  }
  if ((d % den).is_zero()) return;
  d = d / BigInt::gcd(d, den) * den;
}

/// Reconstruction counters of one solve (see ModularStats), bumped from
/// the workers of the per-entry pass.
struct RecCounts {
  std::atomic<std::uint64_t> euclid{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

/// How reconstruct_entry filled (or failed to fill) an entry.
enum class EntryRoute { SharedDen, Euclid, Failed };

/// Reconstruct one entry at modulus m.  First via the shared denominator
/// d — by Cramer all true denominators divide det(M), so x_e * d mod m
/// lifted to the balanced range usually IS the numerator times a cofactor
/// of d: one mulmod + gcd instead of an extended-Euclid pass — then by
/// Euclid when that misses.  Every route only returns a value n/q with
/// |n|, q <= bound and n == x_e·q (mod m), which is unique (two such
/// fractions differ by less than m/|q q'|), so which route serves an
/// entry never changes its value.  Failed means the entry has no
/// reconstruction at this modulus (lift more digits).
EntryRoute reconstruct_entry(Rational& out, const BigInt& xe, const BigInt& d,
                             const BigInt& m, const BigInt& bound,
                             RecCounts& n) {
  if (!d.is_one()) {
    BigInt w = xe * d % m;
    if (w + w > m) w -= m;  // balanced lift: w in (-m/2, m/2]
    const BigInt g = BigInt::gcd(w, d);
    BigInt num = w / g;
    BigInt den = d / g;
    if (num.abs() <= bound && den <= bound) {
      // den > 0 and gcd(num, den) == 1 by construction.
      out = Rational::from_lowest_terms(std::move(num), std::move(den));
      ++n.hits;
      return EntryRoute::SharedDen;
    }
    ++n.misses;
    // x_e·d still has a denominator d' that d lacks.  Euclid on w stops
    // after about bits(d') steps rather than bits(x_e's denominator), and
    // once d divides det(M) (at the full budget) the numerator of x_e·d is
    // a Cramer numerator, so it is within the bound.  The candidate is
    // accepted only after the congruence check that makes it unique.
    ++n.euclid;
    if (w.is_negative()) w += m;
    if (auto part = rational_reconstruct(w, m, bound)) {
      Rational cand{part->num(), part->den() * d};
      if (cand.num().abs() <= bound && cand.den() <= bound &&
          ((cand.num() - xe * cand.den()) % m).is_zero()) {
        out = std::move(cand);
        return EntryRoute::Euclid;
      }
    }
  }
  ++n.euclid;
  auto entry = rational_reconstruct(xe, m, bound);
  if (!entry) return EntryRoute::Failed;
  out = std::move(*entry);
  return EntryRoute::Euclid;
}

/// Consecutive shared-denominator hits after which the driver treats the
/// running lcm as settled and fans the remaining entries out.
constexpr std::size_t kSettledHits = 4;

/// P-adic digits lifted before the first trial reconstruction; the
/// schedule doubles from there.
constexpr std::size_t kFirstCheckpoint = 4;

}  // namespace

std::optional<RatMatrix> solve_rational_modular(const RatMatrix& a,
                                                const RatMatrix& b,
                                                const Deadline& deadline,
                                                const ModularOptions& options) {
  if (!a.is_square() || b.rows() != a.rows())
    throw std::invalid_argument("solve_rational_modular: shape mismatch");
  const std::size_t n = a.rows();
  const std::size_t k = b.cols();
  if (n == 0) return RatMatrix{0, k};
  metrics().solves.add();
  deadline.check();
  double elim_s = 0, crt_s = 0, rec_s = 0, ver_s = 0;
  // The elimination phase covers everything up to the digits: clearing
  // denominators, the factorisation, the digit budget and the lifting.
  const detail::IntSystem sys = [&] {
    PhaseTimer timer{elim_s};
    return detail::clear_denominators(a, &b, deadline);
  }();
  const std::size_t jobs = core::resolve_jobs(options.jobs);
  const std::size_t entries = n * k;

  std::optional<detail::DixonLift> lift;
  std::uint64_t unlucky = 0;
  std::uint64_t attempts = 0;
  RecCounts counts;

  auto finish = [&](bool early, std::optional<RatMatrix> result) {
    const std::uint64_t digits = lift ? lift->digits() : 0;
    metrics().primes_used.add(digits);
    metrics().unlucky_primes.add(unlucky);
    if (early && result) metrics().early_exits.add();
    metrics().elim_seconds.observe(elim_s);
    metrics().crt_seconds.observe(crt_s);
    metrics().reconstruct_seconds.observe(rec_s);
    metrics().verify_seconds.observe(ver_s);
    if (options.stats) {
      ModularStats s;
      s.primes_used = digits;
      s.unlucky_primes = unlucky;
      s.early_exit = early && result.has_value();
      s.attempts = attempts;
      s.euclid_calls = counts.euclid;
      s.shared_den_hits = counts.hits;
      s.shared_den_misses = counts.misses;
      s.elim_seconds = elim_s;
      s.crt_seconds = crt_s;
      s.reconstruct_seconds = rec_s;
      s.verify_seconds = ver_s;
      *options.stats = s;
    }
    return result;
  };

  std::size_t budget_digits = 0;
  {
    obs::Span span{"modular-elim"};
    PhaseTimer timer{elim_s};
    lift = detail::DixonLift::start(sys, deadline, unlucky);
    // Digits for p^L to reach the Hadamard budget, where reconstruction is
    // guaranteed to succeed.
    if (lift) {
      const BigInt p{static_cast<std::int64_t>(lift->prime())};
      for (BigInt pw{1}; pw.bit_length() < sys.solve_budget_bits;
           ++budget_digits)
        pw *= p;
    }
  }
  if (!lift) return finish(false, std::nullopt);  // proven singular
  const std::uint64_t p = lift->prime();

  // xs[e] == X_e (mod m), m == p^converted.
  std::vector<BigInt> xs(entries);
  BigInt m{1};
  std::size_t converted = 0;

  // Trial reconstruction at the current modulus.  The driver walks entries
  // in order, growing the shared denominator D, until kSettledHits entries
  // in a row hit the fast path with the current D; the rest then fan out
  // over entry blocks, each block extending its own copy of D with
  // whatever its Euclid fallbacks find.  Fanning out before D settles
  // would send most entries to Euclid.  A failing entry stops the pass
  // (the driver at once, workers at their next entry), so a failing
  // checkpoint attempt costs about one Euclid run.
  auto attempt = [&]() -> std::optional<RatMatrix> {
    obs::Span span{"modular-reconstruct"};
    PhaseTimer timer{rec_s};
    ++attempts;
    deadline.check();
    const BigInt bound = isqrt((m - BigInt{1}) / BigInt{2});
    std::vector<Rational> vals(entries);
    BigInt d_shared{1};
    std::size_t e = 0;
    for (std::size_t run = 0; e < entries && run < kSettledHits; ++e) {
      deadline.check();
      switch (reconstruct_entry(vals[e], xs[e], d_shared, m, bound, counts)) {
        case EntryRoute::Failed: return std::nullopt;  // lift more digits
        case EntryRoute::Euclid: run = 0; break;
        case EntryRoute::SharedDen: ++run; break;
      }
      fold_lcm(d_shared, vals[e].den());
    }
    std::atomic<bool> failed{false};
    std::atomic<bool> abandoned{false};
    const std::size_t first_parallel = e;
    core::for_each_block(
        entries - first_parallel, jobs,
        [&](std::size_t b0, std::size_t b1) {
          BigInt d = d_shared;
          for (std::size_t i = first_parallel + b0;
               i < first_parallel + b1; ++i) {
            if (failed.load(std::memory_order_relaxed)) break;
            if (deadline.expired()) {  // jobs must not throw; driver raises
              abandoned.store(true, std::memory_order_relaxed);
              break;
            }
            if (reconstruct_entry(vals[i], xs[i], d, m, bound, counts) ==
                EntryRoute::Failed) {
              failed.store(true, std::memory_order_relaxed);
              break;
            }
            fold_lcm(d, vals[i].den());
          }
        });
    if (abandoned.load()) deadline.check();
    if (failed.load()) return std::nullopt;
    RatMatrix x{n, k};
    for (std::size_t i = 0; i < entries; ++i)
      x(i / k, i % k) = std::move(vals[i]);
    return x;
  };

  // Exact A·X == B over the integer system, parallel over row blocks.
  // Scales X by the shared denominator D first (by Cramer every entry's
  // denominator divides det(M), so D stays one det-sized value) — rational
  // accumulation would re-run a multi-thousand-bit gcd per term.
  auto verify_solution = [&](const RatMatrix& x) -> bool {
    obs::Span span{"modular-verify"};
    PhaseTimer timer{ver_s};
    BigInt d{1};
    for (std::size_t e = 0; e < entries; ++e) {
      deadline.check();
      fold_lcm(d, x(e / k, e % k).den());
    }
    std::vector<BigInt> xi(entries);  // X·D, exact integers
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t c = 0; c < k; ++c)
        xi[i * k + c] = x(i, c).num() * (d / x(i, c).den());
    std::atomic<bool> ok{true};
    std::atomic<bool> abandoned{false};
    core::for_each_block(
        n, jobs,
        [&](std::size_t r0, std::size_t r1) {
          for (std::size_t i = r0; i < r1; ++i) {
            if (!ok.load(std::memory_order_relaxed)) return;
            if (deadline.expired()) {  // jobs must not throw; driver raises
              abandoned.store(true, std::memory_order_relaxed);
              return;
            }
            for (std::size_t c = 0; c < k; ++c) {
              BigInt acc;
              for (std::size_t j = 0; j < n; ++j) {
                if (sys.m[i][j].is_zero() || xi[j * k + c].is_zero()) continue;
                acc += sys.m[i][j] * xi[j * k + c];
              }
              if (acc != sys.rhs[i][c] * d) {
                ok.store(false, std::memory_order_relaxed);
                return;
              }
            }
          }
        });
    if (abandoned.load()) deadline.check();
    return ok.load();
  };

  for (std::size_t checkpoint = kFirstCheckpoint;; checkpoint *= 2) {
    {
      obs::Span span{"modular-elim"};
      PhaseTimer timer{elim_s};
      while (lift->digits() < std::min(checkpoint, budget_digits)) {
        deadline.check();
        lift->step();
      }
    }
    {
      obs::Span span{"modular-crt"};
      PhaseTimer timer{crt_s};
      detail::padic_fold(xs, m, lift->digit(converted),
                         lift->digits() - converted, p, jobs);
      converted = lift->digits();
    }
    if (converted >= budget_digits) break;
    if (auto x = attempt(); x && verify_solution(*x))
      return finish(true, std::move(x));
  }
  // Full Hadamard budget reached and det(M) != 0 (p is lucky), so Cramer's
  // rule bounds every numerator and denominator below the balanced
  // reconstruction bound: every route of reconstruct_entry yields the
  // unique true solution.  A failure here is a bug, not an input.
  auto x = attempt();
  if (!x || !verify_solution(*x))
    throw std::logic_error(
        "solve_rational_modular: reconstruction failed at the full "
        "Hadamard budget");
  return finish(false, std::move(x));
}

// ------------------------------------------------------------ determinant

Rational determinant_modular(const RatMatrix& mat, const Deadline& deadline,
                             const ModularOptions& options) {
  if (!mat.is_square())
    throw std::invalid_argument("determinant_modular: square required");
  const std::size_t n = mat.rows();
  if (n == 0) return Rational{1};
  deadline.check();
  const detail::IntSystem sys =
      detail::clear_denominators(mat, nullptr, deadline);
  const std::size_t budget_bits = sys.det_bound_bits + 2;
  const std::size_t jobs = core::resolve_jobs(options.jobs);
  const std::size_t batch = std::max<std::size_t>(jobs, 8);

  std::vector<BigInt> xs(1);
  BigInt m{1};
  std::size_t prime_index = 0;
  std::uint64_t primes_used = 0;
  double elim_s = 0, crt_s = 0;
  while (m.bit_length() < budget_bits) {
    deadline.check();
    std::vector<PrimeDet> results(batch);
    for (std::size_t i = 0; i < batch; ++i)
      results[i].prime = modular_prime(prime_index++);
    {
      obs::Span span{"modular-elim"};
      PhaseTimer timer{elim_s};
      core::for_each_job(batch, jobs, [&](std::size_t i) {
        det_one_prime(sys, n, deadline, results[i]);
      });
    }
    deadline.check();
    std::vector<std::uint64_t> fold_primes;
    std::vector<std::uint64_t> fold_dets;
    BigInt m_run = m;
    for (const PrimeDet& r : results) {
      if (r.status != PrimeStatus::Ok) continue;
      if (m_run.bit_length() >= budget_bits) break;
      fold_primes.push_back(r.prime);
      fold_dets.push_back(r.det);
      m_run *= BigInt{static_cast<std::int64_t>(r.prime)};
    }
    std::vector<const std::uint64_t*> fold_residues;
    fold_residues.reserve(fold_primes.size());
    for (const std::uint64_t& det : fold_dets) fold_residues.push_back(&det);
    {
      obs::Span span{"modular-crt"};
      PhaseTimer timer{crt_s};
      detail::crt_fold_batch(xs, m, fold_residues, fold_primes, jobs);
    }
    primes_used += fold_primes.size();
  }
  metrics().primes_used.add(primes_used);
  metrics().elim_seconds.observe(elim_s);
  metrics().crt_seconds.observe(crt_s);
  if (options.stats) {
    ModularStats s;
    s.primes_used = primes_used;
    s.elim_seconds = elim_s;
    s.crt_seconds = crt_s;
    *options.stats = s;
  }
  // Balanced representative: the scaled determinant is an integer with
  // |det| < 2^(budget_bits-1) <= m/2.
  BigInt det = std::move(xs[0]);
  if (det + det > m) det -= m;
  BigInt scale{1};
  for (const BigInt& l : sys.row_scales) scale *= l;
  return Rational{std::move(det), std::move(scale)};
}

}  // namespace spiv::exact
