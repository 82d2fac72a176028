#include "exact/modular.hpp"

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

enum class PrimeStatus { Abandoned, Unlucky, Ok };

struct PrimeSolve {
  std::uint64_t prime = 0;
  PrimeStatus status = PrimeStatus::Abandoned;
  /// Plain (non-Montgomery) solution residues, row-major n x k, followed
  /// by det(M) mod p (the Cramer common denominator, CRT-folded as one
  /// extra entry).
  std::vector<std::uint64_t> x;
};

/// Solve the integer system mod `out.prime` with dense Gaussian
/// elimination in Montgomery form.  Never throws: an expired deadline
/// leaves status == Abandoned (the caller re-checks and raises), a zero
/// determinant mod p yields Unlucky.
void solve_one_prime(const detail::IntSystem& sys, std::size_t n,
                     std::size_t k, const Deadline& deadline,
                     PrimeSolve& out) {
  const auto t0 = Clock::now();
  const Montgomery62 mont{out.prime};
  const std::uint64_t p = out.prime;
  const std::size_t w = n + k;
  std::vector<std::uint64_t> t(n * w);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      t[i * w + j] = mont.to_mont(sys.m[i][j].mod_u64(p));
    for (std::size_t c = 0; c < k; ++c)
      t[i * w + n + c] = mont.to_mont(sys.rhs[i][c].mod_u64(p));
  }
  std::uint64_t det = mont.one();
  bool negate = false;
  for (std::size_t col = 0; col < n; ++col) {
    if (deadline.expired()) return;  // status stays Abandoned
    std::size_t pivot = n;
    for (std::size_t r = col; r < n; ++r) {
      if (t[r * w + col] != 0) {
        pivot = r;
        break;
      }
    }
    if (pivot == n) {
      out.status = PrimeStatus::Unlucky;  // det == 0 mod p
      return;
    }
    if (pivot != col) {
      std::swap_ranges(t.begin() + static_cast<std::ptrdiff_t>(pivot * w),
                       t.begin() + static_cast<std::ptrdiff_t>((pivot + 1) * w),
                       t.begin() + static_cast<std::ptrdiff_t>(col * w));
      negate = !negate;
    }
    det = mont.mul(det, t[col * w + col]);
    const std::uint64_t inv_pivot = mont.inv(t[col * w + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const std::uint64_t lead = t[r * w + col];
      if (lead == 0) continue;
      const std::uint64_t f = mont.mul(lead, inv_pivot);
      t[r * w + col] = 0;
      for (std::size_t j = col + 1; j < w; ++j)
        t[r * w + j] = mont.sub(t[r * w + j], mont.mul(f, t[col * w + j]));
    }
  }
  // Back substitution; diagonal inverses are shared across RHS columns.
  std::vector<std::uint64_t> dinv(n);
  for (std::size_t i = 0; i < n; ++i) dinv[i] = mont.inv(t[i * w + i]);
  out.x.assign(n * k + 1, 0);
  det = mont.from_mont(det);
  out.x[n * k] = negate ? p - det : det;  // det != 0: the prime is lucky
  std::vector<std::uint64_t> xm(n);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = n; i-- > 0;) {
      std::uint64_t acc = t[i * w + n + c];
      for (std::size_t j = i + 1; j < n; ++j)
        acc = mont.sub(acc, mont.mul(t[i * w + j], xm[j]));
      xm[i] = mont.mul(acc, dinv[i]);
    }
    for (std::size_t i = 0; i < n; ++i)
      out.x[i * k + c] = mont.from_mont(xm[i]);
  }
  out.status = PrimeStatus::Ok;
  metrics().prime_solve_seconds.observe(seconds_since(t0));
}

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
      [&](std::size_t b0, std::size_t b1, const CancelToken& /*token*/) {
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

// ---------------------------------------------------------- reconstruction

std::optional<Rational> rational_reconstruct(const BigInt& u, const BigInt& m,
                                             const BigInt& bound) {
  // Half-extended Euclid on (m, u): every intermediate (r_i, t_i) satisfies
  // r_i == t_i * u (mod m); stop at the first remainder <= bound (Wang).
  BigInt r0 = m, r1 = u;
  BigInt t0{0}, t1{1};
  while (r1 > bound) {
    auto [q, r2] = BigInt::div_mod(r0, r1);
    r0 = std::move(r1);
    r1 = std::move(r2);
    BigInt t2 = t0 - q * t1;
    t0 = std::move(t1);
    t1 = std::move(t2);
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

/// Cached reconstruction candidate for one solution entry.  Entries whose
/// denominators are small reconstruct at early checkpoints; afterwards
/// each new prime only costs the word-mod congruence recheck in
/// revalidate_candidates, never another Euclid pass.
struct EntryCand {
  Rational value;
  bool valid = false;
};

/// Drop a cached candidate that disagrees with a freshly folded prime: a
/// surviving candidate satisfies num == den * x (mod old m) and (mod p)
/// for each new p, hence (mod current m) by CRT — with unchanged Wang
/// bounds and gcd 1 it is *the* unique reconstruction at the current
/// modulus, no Euclid needed.
void revalidate_candidate(EntryCand& c, const BigInt& xe,
                          const std::vector<std::uint64_t>& fresh_primes) {
  if (!c.valid) return;
  for (std::uint64_t p : fresh_primes) {
    const std::uint64_t num_p = c.value.num().mod_u64(p);
    const std::uint64_t den_p = c.value.den().mod_u64(p);
    if (num_p != mulmod_u64(den_p, xe.mod_u64(p), p)) {
      c.valid = false;
      return;
    }
  }
}

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
enum class EntryRoute { Cached, SharedDen, Euclid, Failed };

/// Fill one entry's candidate at modulus m, unless a cached one survived.
/// First via the shared denominator d — by Cramer all true denominators
/// divide det(M), so x_e * d mod m lifted to the balanced range usually IS
/// the numerator times a cofactor of d: one mulmod + gcd instead of an
/// extended-Euclid pass — then by Euclid when that misses.  Both routes
/// can only produce the unique Wang reconstruction, so which one serves an
/// entry never changes its value.  Failed means the entry has no
/// reconstruction at this modulus (fold more primes).
EntryRoute reconstruct_entry(EntryCand& c, const BigInt& xe, const BigInt& d,
                             const BigInt& m, const BigInt& bound,
                             RecCounts& n) {
  if (c.valid) return EntryRoute::Cached;
  if (!d.is_one()) {
    BigInt w = xe * d % m;
    if (w + w > m) w -= m;  // balanced lift: w in (-m/2, m/2]
    const BigInt g = BigInt::gcd(w, d);
    BigInt num = w / g;
    BigInt den = d / g;
    if (num.abs() <= bound && den <= bound) {
      // den > 0 and gcd(num, den) == 1 by construction.
      c.value = Rational::from_lowest_terms(std::move(num), std::move(den));
      c.valid = true;
      ++n.hits;
      return EntryRoute::SharedDen;
    }
    ++n.misses;
  }
  ++n.euclid;
  auto entry = rational_reconstruct(xe, m, bound);
  if (!entry) return EntryRoute::Failed;
  c.value = std::move(*entry);
  c.valid = true;
  return EntryRoute::Euclid;
}

/// Consecutive shared-denominator hits after which the driver treats the
/// running lcm as settled and fans the remaining entries out.
constexpr std::size_t kSettledHits = 4;

/// Lucky primes folded before the first trial reconstruction; the schedule
/// doubles from there.
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
  const detail::IntSystem sys = detail::clear_denominators(a, &b);
  const std::size_t budget_bits = sys.solve_budget_bits;
  const std::size_t jobs = core::resolve_jobs(options.jobs);
  const std::size_t batch = std::max<std::size_t>(jobs, 8);
  std::size_t checkpoint = kFirstCheckpoint;

  const std::size_t entries = n * k;
  // CRT images of the solution entries, then of det(M).
  std::vector<BigInt> xs(entries + 1);
  BigInt m{1};
  std::size_t prime_index = 0;
  std::uint64_t primes_used = 0;
  std::uint64_t unlucky = 0;
  std::size_t unlucky_bits = 0;  // log2 lower bound of their product
  std::uint64_t attempts = 0;
  RecCounts counts;
  std::vector<EntryCand> cands(entries);
  std::vector<std::uint64_t> fresh_primes;  // folded since the last attempt
  double elim_s = 0, crt_s = 0, rec_s = 0, ver_s = 0;

  auto finish = [&](bool early, std::optional<RatMatrix> result) {
    metrics().primes_used.add(primes_used);
    metrics().unlucky_primes.add(unlucky);
    if (early && result) metrics().early_exits.add();
    metrics().elim_seconds.observe(elim_s);
    metrics().crt_seconds.observe(crt_s);
    metrics().reconstruct_seconds.observe(rec_s);
    metrics().verify_seconds.observe(ver_s);
    if (options.stats) {
      ModularStats s;
      s.primes_used = primes_used;
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

  // Output-sensitive trial reconstruction.  Revalidates cached candidates
  // against the primes folded since the last attempt (word mods only),
  // then fills the gaps with reconstruct_entry.  The driver
  // walks entries in order, growing the shared denominator D (or starting
  // from det(M), see below), until kSettledHits entries in a row hit
  // the fast path with the current D; the rest then fan out over entry
  // blocks, each block extending its own copy of D with whatever its
  // Euclid fallbacks find.  Fanning out before D settles would send most
  // entries to Euclid.  A failing entry stops the pass (the driver at
  // once, workers at their next entry), so a failing checkpoint attempt
  // costs about one Euclid run.
  auto attempt = [&]() -> std::optional<RatMatrix> {
    obs::Span span{"modular-reconstruct"};
    PhaseTimer timer{rec_s};
    ++attempts;
    for (std::size_t e = 0; e < entries; ++e)
      revalidate_candidate(cands[e], xs[e], fresh_primes);
    fresh_primes.clear();
    deadline.check();
    const BigInt bound = isqrt((m - BigInt{1}) / BigInt{2});
    // Seed D with det(M), a multiple of every denominator (Cramer), once
    // its balanced CRT image is far below m: a wrong image is uniform in
    // (-m/2, m/2], so one 64 bits short of m is exact but for a 2^-64
    // chance.  With that seed x_e * D is the Cramer numerator itself
    // whenever that is below m/2 — always at the full budget.  When the
    // seed misses (a Cramer numerator still beyond m/2), the first Euclid
    // result replaces it and D grows from the entries instead.
    BigInt d_shared{1};
    bool det_seeded = false;
    BigInt det = xs[entries];
    if (det + det > m) det -= m;
    if (!det.is_zero() && det.bit_length() + 64 < m.bit_length()) {
      d_shared = det.abs();
      det_seeded = true;
    }
    std::size_t e = 0;
    for (std::size_t run = 0; e < entries && run < kSettledHits; ++e) {
      deadline.check();
      switch (reconstruct_entry(cands[e], xs[e], d_shared, m, bound, counts)) {
        case EntryRoute::Failed: return std::nullopt;  // fold more primes
        case EntryRoute::Euclid:
          run = 0;
          if (det_seeded) {
            d_shared = 1;
            det_seeded = false;
          }
          break;
        case EntryRoute::SharedDen: ++run; break;
        case EntryRoute::Cached: break;
      }
      fold_lcm(d_shared, cands[e].value.den());
    }
    std::atomic<bool> failed{false};
    std::atomic<bool> abandoned{false};
    const std::size_t first_parallel = e;
    core::for_each_block(
        entries - first_parallel, jobs,
        [&](std::size_t b0, std::size_t b1, const CancelToken& /*token*/) {
          BigInt d = d_shared;
          for (std::size_t i = first_parallel + b0;
               i < first_parallel + b1; ++i) {
            if (failed.load(std::memory_order_relaxed)) break;
            if (deadline.expired()) {  // jobs must not throw; driver raises
              abandoned.store(true, std::memory_order_relaxed);
              break;
            }
            if (reconstruct_entry(cands[i], xs[i], d, m, bound, counts) ==
                EntryRoute::Failed) {
              failed.store(true, std::memory_order_relaxed);
              break;
            }
            fold_lcm(d, cands[i].value.den());
          }
        });
    if (abandoned.load()) deadline.check();
    if (failed.load()) return std::nullopt;
    RatMatrix x{n, k};
    for (std::size_t i = 0; i < entries; ++i) x(i / k, i % k) = cands[i].value;
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
        [&](std::size_t r0, std::size_t r1, const CancelToken& /*token*/) {
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

  while (m.bit_length() < budget_bits) {
    deadline.check();
    // Every unlucky prime divides det(M), and so does their product.  Once
    // that product exceeds the Hadamard bound on |det(M)|, det(M) == 0:
    // the system is proven singular.  A nonsingular system never clears
    // this bar: its unlucky primes multiply to a divisor of det(M) != 0.
    if (unlucky_bits >= sys.det_bound_bits) return finish(false, std::nullopt);
    std::vector<PrimeSolve> results(batch);
    for (std::size_t i = 0; i < batch; ++i)
      results[i].prime = modular_prime(prime_index++);
    {
      obs::Span span{"modular-elim"};
      PhaseTimer timer{elim_s};
      core::for_each_job(batch, jobs,
                         [&](std::size_t i, const CancelToken& /*token*/) {
                           solve_one_prime(sys, n, k, deadline, results[i]);
                         });
    }
    deadline.check();
    // Lucky primes in prime order, truncated where the running modulus
    // meets the budget — the folded sequence (hence every xs[e], hence the
    // result) is independent of jobs and batch size.
    std::vector<std::uint64_t> fold_primes;
    std::vector<const std::uint64_t*> fold_residues;
    BigInt m_run = m;
    for (const PrimeSolve& r : results) {
      if (r.status == PrimeStatus::Unlucky) {
        ++unlucky;
        unlucky_bits += static_cast<std::size_t>(std::bit_width(r.prime)) - 1;
        continue;
      }
      if (r.status != PrimeStatus::Ok) continue;  // abandoned: deadline
      if (m_run.bit_length() >= budget_bits) break;  // budget already met
      fold_primes.push_back(r.prime);
      fold_residues.push_back(r.x.data());
      m_run *= BigInt{static_cast<std::int64_t>(r.prime)};
    }
    {
      obs::Span span{"modular-crt"};
      PhaseTimer timer{crt_s};
      detail::crt_fold_batch(xs, m, fold_residues, fold_primes, jobs);
    }
    primes_used += fold_primes.size();
    fresh_primes.insert(fresh_primes.end(), fold_primes.begin(),
                        fold_primes.end());
    if (primes_used >= checkpoint && m.bit_length() < budget_bits) {
      checkpoint = primes_used * 2;
      if (auto x = attempt()) {
        if (verify_solution(*x)) return finish(true, std::move(x));
        // A spurious candidate survived the congruence checks; none of the
        // caches can be trusted until more primes arrive.
        for (EntryCand& c : cands) c.valid = false;
      }
    }
  }
  // Full Hadamard budget reached with at least one lucky prime, so det(M)
  // != 0 and Cramer's rule bounds every numerator and denominator below the
  // balanced reconstruction bound: every route of reconstruct_entry yields
  // the unique true solution.  A failure here is a bug, not an input.
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
  const detail::IntSystem sys = detail::clear_denominators(mat, nullptr);
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
      core::for_each_job(batch, jobs,
                         [&](std::size_t i, const CancelToken& /*token*/) {
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
