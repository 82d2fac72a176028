// spiv — cooperative deadlines and cancellation for long-running
// exact/symbolic computations.
//
// The paper runs every synthesis/validation job under a wall-clock budget
// (2 h in their cluster setup); the exact Lyapunov solve (eq-smt) times out
// at plant sizes 15 and 18.  We reproduce that behaviour with a cooperative
// Deadline checked inside the expensive inner loops.
//
// A Deadline can additionally carry a CancelToken: a shared flag that the
// token's owner (e.g. the spiv-serve Engine) flips from any thread to
// expire the deadline immediately.  Checking the flag is a relaxed
// atomic load, so kernels can afford to poll it in their innermost loops —
// a cancelled job stops burning CPU within a few arithmetic operations
// instead of running to the next coarse phase boundary.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

namespace spiv {

/// Thrown by deadline-aware algorithms when the budget is exhausted.
class TimeoutError : public std::runtime_error {
 public:
  TimeoutError() : std::runtime_error("computation exceeded its deadline") {}
};

/// Shared cancellation flag.  Copies observe the same flag; cancel() makes
/// every Deadline bound to this token expire immediately.  All operations
/// are thread-safe.
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept {
    flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class Deadline;
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// The time source of every Deadline and of the verify pipeline's stage
/// timers (synthesis and validation seconds).  It reads
/// std::chrono::steady_clock unless a test installs a replacement — e.g. a
/// counter that advances one tick per read, which makes budget arithmetic
/// exact and independent of machine speed.  No environment variable or
/// flag reaches it.
namespace time_source {

using TimePoint = std::chrono::steady_clock::time_point;
using NowFn = TimePoint (*)();

namespace detail {
inline std::atomic<NowFn> g_now{nullptr};
}  // namespace detail

[[nodiscard]] inline TimePoint now() {
  const NowFn fn = detail::g_now.load(std::memory_order_relaxed);
  return fn ? fn() : std::chrono::steady_clock::now();
}

/// Seconds elapsed on this source since `t0`.
[[nodiscard]] inline double seconds_since(TimePoint t0) {
  return std::chrono::duration<double>(now() - t0).count();
}

/// Testing hook: route now() through `fn`; nullptr restores steady_clock.
/// Install it before the work it should time starts.
inline void set_for_testing(NowFn fn) { detail::g_now.store(fn); }

}  // namespace time_source

/// A wall-clock budget, optionally bound to a CancelToken.
/// Default-constructed deadlines never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires.
  Deadline() = default;

  /// Expires `budget` from now.  Budgets beyond the clock's representable
  /// range saturate to "effectively never" — an unchecked duration_cast
  /// would overflow into a *past* expiry and time every request out
  /// instantly (e.g. `spiv-serve --timeout 1e18`).
  explicit Deadline(std::chrono::duration<double> budget) {
    const Clock::time_point now = time_source::now();
    const std::chrono::duration<double> headroom =
        std::chrono::duration<double>(Clock::time_point::max() - now);
    expiry_ = budget >= headroom
                  ? Clock::time_point::max()
                  : now + std::chrono::duration_cast<Clock::duration>(budget);
  }

  [[nodiscard]] static Deadline after_seconds(double s) {
    return Deadline{std::chrono::duration<double>(s)};
  }

  /// Expires `s` seconds from now or as soon as `token` is cancelled,
  /// whichever comes first.
  [[nodiscard]] static Deadline after_seconds(double s,
                                              const CancelToken& token) {
    Deadline d = after_seconds(s);
    d.cancel_ = token.flag_;
    return d;
  }

  /// A copy of this deadline that additionally observes `token`.
  [[nodiscard]] Deadline with_token(const CancelToken& token) const {
    Deadline d = *this;
    d.cancel_ = token.flag_;
    return d;
  }

  [[nodiscard]] bool expired() const {
    if (cancel_ && cancel_->load(std::memory_order_relaxed)) return true;
    return expiry_ && time_source::now() > *expiry_;
  }

  /// Throws TimeoutError when expired.
  void check() const {
    if (expired()) throw TimeoutError{};
  }

 private:
  std::optional<Clock::time_point> expiry_;
  std::shared_ptr<const std::atomic<bool>> cancel_;
};

}  // namespace spiv
