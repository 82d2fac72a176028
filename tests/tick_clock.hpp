// Deterministic time source for the budget tests.  While a ScopedTickClock
// lives, every read of spiv::time_source::now() advances the clock by one
// millisecond tick.  Stage times and deadline expiry then depend only on
// how often the pipeline reads the clock, never on machine speed or load.
// Run the measured work serially (SPIV_JOBS=1) so that read sequence is
// fixed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "exact/timeout.hpp"

namespace spiv {

class ScopedTickClock {
 public:
  static constexpr std::chrono::milliseconds kTick{1};

  ScopedTickClock() {
    ticks().store(0);
    time_source::set_for_testing(&now);
  }
  ~ScopedTickClock() { time_source::set_for_testing(nullptr); }
  ScopedTickClock(const ScopedTickClock&) = delete;
  ScopedTickClock& operator=(const ScopedTickClock&) = delete;

 private:
  static std::atomic<std::int64_t>& ticks() {
    static std::atomic<std::int64_t> count{0};
    return count;
  }
  static time_source::TimePoint now() {
    return time_source::TimePoint{} + ticks().fetch_add(1) * kTick;
  }
};

}  // namespace spiv
