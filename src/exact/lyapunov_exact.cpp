#include "exact/lyapunov_exact.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>

#include "core/parallel.hpp"
#include "exact/modular.hpp"
#include "obs/metrics.hpp"

namespace spiv::exact {

namespace {

obs::Histogram& residual_check_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "spiv_modular_residual_check_seconds");
  return h;
}

// Eager registration: the family shows up in `spiv-serve metrics` /
// --metrics-out scrapes before the first modular solve runs.
[[maybe_unused]] const bool kResidualMetricRegistered =
    (residual_check_seconds(), true);

/// Exact check that A^T P + P A + Q == 0, performed over the integers: the
/// rational form would pay a multi-thousand-bit gcd per entry product (P's
/// entries carry det-sized numerators), which is slower than the solve it
/// is guarding.  Scaling each matrix by the lcm of its denominators turns
/// the whole residual into BigInt multiply/accumulate.  P and Q are
/// symmetric, so the residual is too: only its lower triangle is tested,
/// in blocks of entries fanned out over the job pool.
bool lyapunov_residual_is_zero(const RatMatrix& a, const RatMatrix& p,
                               const RatMatrix& q,
                               const Deadline& deadline) {
  const auto t0 = std::chrono::steady_clock::now();
  struct Observe {
    std::chrono::steady_clock::time_point t0;
    ~Observe() {
      residual_check_seconds().observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count());
    }
  } observe{t0};
  const std::size_t n = a.rows();
  const auto common_den = [n](const RatMatrix& m) {
    BigInt d{1};
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        const BigInt& den = m(i, j).den();
        if (den.is_one() || den == d) continue;
        d = d / BigInt::gcd(d, den) * den;
      }
    return d;
  };
  const auto scaled = [n](const RatMatrix& m, const BigInt& d) {
    std::vector<BigInt> out(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        out[i * n + j] = m(i, j).num() * (d / m(i, j).den());
    return out;
  };
  const BigInt da = common_den(a), dp = common_den(p), dq = common_den(q);
  const std::vector<BigInt> ai = scaled(a, da);
  const std::vector<BigInt> pi = scaled(p, dp);
  const std::vector<BigInt> qi = scaled(q, dq);
  // (Ai^T Pi + Pi Ai) dq + Qi da dp == 0  <=>  (A^T P + P A + Q) da dp dq == 0.
  const BigInt qscale = da * dp;
  std::atomic<bool> nonzero{false};
  std::atomic<bool> abandoned{false};
  // Lower-triangle entries (i, j), j <= i, in row-major order t = i(i+1)/2 + j.
  core::for_each_block(
      n * (n + 1) / 2, core::resolve_jobs(),
      [&](std::size_t b0, std::size_t b1) {
        std::size_t i = 0;
        while ((i + 1) * (i + 2) / 2 <= b0) ++i;
        std::size_t j = b0 - i * (i + 1) / 2;
        for (std::size_t t = b0; t < b1; ++t) {
          if (nonzero.load(std::memory_order_relaxed)) return;
          if (deadline.expired()) {  // jobs must not throw; driver raises
            abandoned.store(true, std::memory_order_relaxed);
            return;
          }
          BigInt acc;
          for (std::size_t l = 0; l < n; ++l) {
            if (!ai[l * n + i].is_zero() && !pi[l * n + j].is_zero())
              acc += ai[l * n + i] * pi[l * n + j];  // (A^T)(i,l) P(l,j)
            if (!pi[i * n + l].is_zero() && !ai[l * n + j].is_zero())
              acc += pi[i * n + l] * ai[l * n + j];  // P(i,l) A(l,j)
          }
          if (!(acc * dq + qi[i * n + j] * qscale).is_zero()) {
            nonzero.store(true, std::memory_order_relaxed);
            return;
          }
          if (++j > i) {
            ++i;
            j = 0;
          }
        }
      });
  if (abandoned.load()) deadline.check();
  return !nonzero.load();
}

}  // namespace

std::size_t vech_index(std::size_t i, std::size_t j, std::size_t n) {
  if (i < j) std::swap(i, j);
  // Column j contributes (n - j) entries; offset within column is i - j.
  return j * n - j * (j + 1) / 2 + i;
}

std::vector<Rational> vech(const RatMatrix& m) {
  if (!m.is_square())
    throw std::invalid_argument("vech: matrix must be square");
  const std::size_t n = m.rows();
  std::vector<Rational> out(n * (n + 1) / 2);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) out[vech_index(i, j, n)] = m(i, j);
  return out;
}

RatMatrix unvech(const std::vector<Rational>& v, std::size_t n) {
  if (v.size() != n * (n + 1) / 2)
    throw std::invalid_argument("unvech: size mismatch");
  RatMatrix m{n, n};
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i) {
      m(i, j) = v[vech_index(i, j, n)];
      m(j, i) = m(i, j);
    }
  return m;
}

RatMatrix lyapunov_operator_vech(const RatMatrix& a, const Deadline& deadline) {
  if (!a.is_square())
    throw std::invalid_argument("lyapunov_operator_vech: A must be square");
  const std::size_t n = a.rows();
  const std::size_t big_n = n * (n + 1) / 2;
  RatMatrix op{big_n, big_n};
  // Column for the symmetric basis matrix E_{ij} (ones at (i,j),(j,i)).
  // F = A^T E_{ij} + E_{ij} A has at most 4 contributions per cell:
  //   F(r,c) = [c==j] a(i,r) + [c==i] a(j,r) + [r==i] a(j,c) + [r==j] a(i,c)
  // (drop the first and third term's twin when i == j, where E has a
  // single 1 at (i,i)).  F only has entries in rows/columns i and j, so
  // the dense two-matrix-products assembly (O(n^3) rational multiplies
  // per column, O(n^5) total) reduces to O(n) copies per column.
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j; i < n; ++i) {
      deadline.check();
      const std::size_t col = vech_index(i, j, n);
      const auto cell = [&](std::size_t r, std::size_t c) {
        Rational v;
        if (c == j) v += a(i, r);
        if (r == j) v += a(i, c);
        if (i != j) {
          if (c == i) v += a(j, r);
          if (r == i) v += a(j, c);
        }
        return v;
      };
      // Nonzero cells of the lower triangle: row or column in {i, j}.
      for (std::size_t t = 0; t < n; ++t) {
        op(vech_index(t, j, n), col) = cell(std::max(t, j), std::min(t, j));
        if (i != j && t != j)
          op(vech_index(t, i, n), col) = cell(std::max(t, i), std::min(t, i));
      }
    }
  }
  return op;
}

std::vector<std::optional<RatMatrix>> solve_lyapunov_exact_multi(
    const RatMatrix& a, const std::vector<RatMatrix>& qs,
    const Deadline& deadline) {
  if (!a.is_square())
    throw std::invalid_argument("solve_lyapunov_exact: A must be square");
  for (const RatMatrix& q : qs) {
    if (!q.is_square() || a.rows() != q.rows())
      throw std::invalid_argument("solve_lyapunov_exact: shape mismatch");
    if (!q.is_symmetric())
      throw std::invalid_argument("solve_lyapunov_exact: Q must be symmetric");
  }
  const std::size_t n = a.rows();
  const std::size_t k = qs.size();
  std::vector<std::optional<RatMatrix>> out(k);
  if (k == 0) return out;
  RatMatrix op = lyapunov_operator_vech(a, deadline);
  RatMatrix b{op.rows(), k};
  for (std::size_t c = 0; c < k; ++c) {
    const std::vector<Rational> col = vech(-qs[c]);
    for (std::size_t i = 0; i < col.size(); ++i) b(i, c) = col[i];
  }
  auto x = solve_rational_modular(op, b, deadline);
  if (!x) return out;  // proven singular operator: every column stays empty
  for (std::size_t c = 0; c < k; ++c) {
    std::vector<Rational> col(op.rows());
    for (std::size_t i = 0; i < col.size(); ++i) col[i] = std::move((*x)(i, c));
    RatMatrix p = unvech(col, n);
    // The modular path already proved op·X == B; this recheck guarantees
    // that what we hand out satisfies the *Lyapunov equation*, independent
    // of how op was assembled.  A nonzero residual is an assembly bug.
    if (!lyapunov_residual_is_zero(a, p, qs[c], deadline))
      throw std::logic_error(
          "solve_lyapunov_exact: nonzero Lyapunov residual");
    out[c] = std::move(p);
  }
  return out;
}

std::optional<RatMatrix> solve_lyapunov_exact(const RatMatrix& a,
                                              const RatMatrix& q,
                                              const Deadline& deadline) {
  auto ps = solve_lyapunov_exact_multi(a, {q}, deadline);
  return std::move(ps.front());
}

RatMatrix lyapunov_residual(const RatMatrix& a, const RatMatrix& p,
                            const RatMatrix& q) {
  return a.transposed() * p + p * a + q;
}

}  // namespace spiv::exact
