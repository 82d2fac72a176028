// Deterministic time source for the budget tests.  While a ScopedTickClock
// lives, every read of spiv::time_source::now() advances the clock by one
// millisecond tick.  Stage times and deadline expiry then depend only on
// how often the pipeline reads the clock, never on machine speed or load.
// Run the measured work serially (SPIV_JOBS=1) so that read sequence is
// fixed.  An optional hook sees each read's tick index before the read
// returns, so a test can act at the Nth read (e.g. cancel a token).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <utility>

#include "exact/timeout.hpp"

namespace spiv {

class ScopedTickClock {
 public:
  static constexpr std::chrono::milliseconds kTick{1};

  using OnRead = std::function<void(std::int64_t tick)>;

  explicit ScopedTickClock(OnRead on_read = {}) {
    ticks().store(0);
    hook() = std::move(on_read);
    time_source::set_for_testing(&now);
  }
  ~ScopedTickClock() {
    time_source::set_for_testing(nullptr);
    hook() = nullptr;
  }
  ScopedTickClock(const ScopedTickClock&) = delete;
  ScopedTickClock& operator=(const ScopedTickClock&) = delete;

 private:
  static std::atomic<std::int64_t>& ticks() {
    static std::atomic<std::int64_t> count{0};
    return count;
  }
  static OnRead& hook() {
    static OnRead on_read;
    return on_read;
  }
  static time_source::TimePoint now() {
    const std::int64_t tick = ticks().fetch_add(1);
    if (hook()) hook()(tick);
    return time_source::TimePoint{} + tick * kTick;
  }
};

}  // namespace spiv
