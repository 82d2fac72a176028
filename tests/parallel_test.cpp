// Tests for the parallel experiment harness: SPIV_JOBS resolution, the
// work-stealing JobPool, fan-out on the caller's pool (nesting, thread
// identity), the determinism contract of run_table1, and cooperative
// cancellation of the exact kernels.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/experiments.hpp"
#include "exact/lyapunov_exact.hpp"
#include "exact/timeout.hpp"
#include "tick_clock.hpp"

namespace spiv::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// RAII guard so SPIV_JOBS changes cannot leak into other tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, saved_.c_str(), 1);
  }

 private:
  const char* name_;
  std::string saved_;
};

TEST(ResolveJobs, ExplicitRequestWins) {
  ScopedEnv env{"SPIV_JOBS", "3"};
  EXPECT_EQ(resolve_jobs(5), 5u);
  EXPECT_EQ(resolve_jobs(1), 1u);
}

TEST(ResolveJobs, ReadsEnvironment) {
  ScopedEnv env{"SPIV_JOBS", "3"};
  EXPECT_EQ(resolve_jobs(), 3u);
}

TEST(ResolveJobs, FallsBackOnBadOrMissingEnv) {
  {
    ScopedEnv env{"SPIV_JOBS", nullptr};
    EXPECT_GE(resolve_jobs(), 1u);
  }
  {
    ScopedEnv env{"SPIV_JOBS", "0"};
    EXPECT_GE(resolve_jobs(), 1u);
  }
  {
    ScopedEnv env{"SPIV_JOBS", "not-a-number"};
    EXPECT_GE(resolve_jobs(), 1u);
  }
}

TEST(ResolveJobs, RejectsPartialParses) {
  // strtol used to stop at the first non-digit and hand back 4.
  const std::size_t fallback = [] {
    ScopedEnv env{"SPIV_JOBS", nullptr};
    return resolve_jobs();
  }();
  for (const char* bad : {"4abc", "2 2", "3.5", "+", "-7", "0x10"}) {
    ScopedEnv env{"SPIV_JOBS", bad};
    EXPECT_EQ(resolve_jobs(), fallback) << bad;
  }
}

TEST(ParseJobs, RequiresFullPositiveInteger) {
  EXPECT_EQ(parse_jobs("4").value_or(0), 4u);
  EXPECT_EQ(parse_jobs("1").value_or(0), 1u);
  for (const char* bad :
       {"4abc", "2 2", "3.5", "+", "-1", "-7", "0", "", "0x10", "abc"})
    EXPECT_FALSE(parse_jobs(bad).has_value()) << bad;
  EXPECT_FALSE(parse_jobs(nullptr).has_value());
}

TEST(ResolveJobs, CapsExplicitRequests) {
  // A huge explicit request (e.g. `--jobs -1` cast to size_t) must clamp to
  // the 8x-hardware cap instead of spawning that many threads.
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t cap = 8 * (hw_raw > 0 ? hw_raw : 1);
  EXPECT_EQ(resolve_jobs(cap), cap);
  EXPECT_EQ(resolve_jobs(cap + 1), cap);
  EXPECT_EQ(resolve_jobs(static_cast<std::size_t>(-1)), cap);
}

TEST(ResolveJobs, CapsAbsurdValues) {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t cap = 8 * (hw_raw > 0 ? hw_raw : 1);
  {
    ScopedEnv env{"SPIV_JOBS", "1000000"};
    EXPECT_EQ(resolve_jobs(), cap);
  }
  {
    ScopedEnv env{"SPIV_JOBS", "99999999999999999999"};  // out of long range
    const std::size_t fallback = [] {
      ScopedEnv inner{"SPIV_JOBS", nullptr};
      return resolve_jobs();
    }();
    EXPECT_EQ(resolve_jobs(), fallback);
  }
  {
    // In-range values still pass through untouched.
    const std::string cap_str = std::to_string(cap);
    ScopedEnv env{"SPIV_JOBS", cap_str.c_str()};
    EXPECT_EQ(resolve_jobs(), cap);
  }
}

TEST(JobPool, RunsEveryJobAcrossThreads) {
  constexpr std::size_t kJobs = 200;
  std::vector<int> hits(kJobs, 0);
  std::atomic<int> done{0};
  {
    JobPool pool{4};
    EXPECT_EQ(pool.thread_count(), 4u);
    for (std::size_t i = 0; i < kJobs; ++i)
      pool.submit([&hits, &done, i] {
        hits[i] += 1;
        done.fetch_add(1, std::memory_order_relaxed);
      });
    pool.wait_idle();
    EXPECT_EQ(done.load(), static_cast<int>(kJobs));
  }
  for (std::size_t i = 0; i < kJobs; ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(JobPool, WaitIdleCanBeReusedAfterMoreSubmissions) {
  JobPool pool{2};
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
  for (int i = 0; i < 10; ++i) pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 11);
}

TEST(JobPool, SequentialJobsReuseTheMostRecentlyIdleWorker) {
  // A lone sequential caller (one request at a time, as a single client
  // drives spiv-serve) must keep landing on one warm worker instead of
  // cycling through all of them: each worker thread holds its own malloc
  // arena, so round-robin hand-off grew peak RSS with every solve.
  constexpr std::size_t kThreads = 4;
  JobPool pool{kThreads};
  // Warm-up: kThreads jobs that rendezvous, so every worker has started,
  // run a job and parked before the sequential phase begins.
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t arrived = 0;
  for (std::size_t i = 0; i < kThreads; ++i)
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      if (++arrived == kThreads) cv.notify_all();
      cv.wait(lock, [&] { return arrived == kThreads; });
    });
  pool.wait_idle();
  std::vector<std::thread::id> ran(8);
  for (std::thread::id& id : ran) {
    pool.submit([&id] { id = std::this_thread::get_id(); });
    pool.wait_idle();
  }
  for (const std::thread::id& id : ran) EXPECT_EQ(id, ran.front());
  EXPECT_NE(ran.front(), std::this_thread::get_id());
}

TEST(JobPool, AHelperFinishingAfterItsCallerDoesNotTakeTheNextJob) {
  // A fan-out helper that ends after the job that offered it (it woke
  // late, or its index ran long) must not land on top of the idle list:
  // the caller's next job would move to the helper's thread and grow a
  // second malloc arena to the size of the first.
  constexpr std::size_t kThreads = 4;
  JobPool pool{kThreads};
  std::mutex mutex;
  std::condition_variable cv;
  // Warm-up as above: every worker has started and parked, so no thread
  // that has yet to park can steal the jobs below.
  std::size_t arrived = 0;
  for (std::size_t i = 0; i < kThreads; ++i)
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      if (++arrived == kThreads) cv.notify_all();
      cv.wait(lock, [&] { return arrived == kThreads; });
    });
  pool.wait_idle();
  bool helper_started = false;
  bool caller_done = false;
  bool released = false;
  std::thread::id first, second;
  pool.submit([&] {
    first = std::this_thread::get_id();
    ASSERT_TRUE(pool.submit(
        [&] {
          std::unique_lock<std::mutex> lock(mutex);
          helper_started = true;
          cv.notify_all();
          cv.wait(lock, [&] { return released; });
        },
        /*only_if_idle=*/true));
    // Wait until another worker runs the helper (the caller would
    // otherwise steal it on its way to parking).
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return helper_started; });
    caller_done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return caller_done; });
  }
  // Let the caller's worker park first, so the helper's parks last: the
  // order in which a most-recently-idle rule hands the next job to the
  // helper.  The expectation below holds for either order.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_all();
  pool.wait_idle();
  pool.submit([&] { second = std::this_thread::get_id(); });
  pool.wait_idle();
  EXPECT_EQ(second, first);
}

TEST(JobPool, OnlyIfIdleSubmitsReachEveryWorkerOfAFreshPool) {
  // Workers count as idle from construction, before their threads run: a
  // fan-out right after a pool is built still finds its helpers.
  constexpr std::size_t kThreads = 3;
  JobPool pool{kThreads};
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  const auto blocker = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return released; });
  };
  for (std::size_t i = 0; i < kThreads; ++i)
    EXPECT_TRUE(pool.submit(blocker, /*only_if_idle=*/true)) << i;
  // Every worker now holds a blocked job: none is idle.
  EXPECT_FALSE(pool.submit([] {}, /*only_if_idle=*/true));
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_all();
  pool.wait_idle();
}

TEST(ForEachJob, CoversEveryIndexOnceSerialAndParallel) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::vector<int> hits(100, 0);
    for_each_job(hits.size(), jobs, [&hits](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " i=" << i;
  }
}

TEST(ForEachBlock, PartitionsTheRangeExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          std::size_t{7}, std::size_t{100}}) {
      std::vector<int> hits(n, 0);
      std::atomic<std::size_t> blocks{0};
      for_each_block(n, jobs, [&](std::size_t begin, std::size_t end) {
        EXPECT_LT(begin, end);
        blocks.fetch_add(1);
        for (std::size_t i = begin; i < end; ++i) hits[i] += 1;
      });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "jobs=" << jobs << " n=" << n << " i=" << i;
      EXPECT_LE(blocks.load(), jobs) << "jobs=" << jobs << " n=" << n;
      if (n > 0) EXPECT_GE(blocks.load(), 1u);
    }
  }
}

// A for_each_block nested in for_each_job bodies, each index counted.
// Returns the per-(outer, inner) hit counts.
std::vector<int> nested_hits(std::size_t jobs) {
  constexpr std::size_t kOuter = 6, kInner = 37;
  std::vector<int> hits(kOuter * kInner, 0);
  for_each_job(kOuter, jobs, [&](std::size_t o) {
    for_each_block(kInner, jobs, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) hits[o * kInner + i] += 1;
    });
  });
  return hits;
}

TEST(NestedFanOut, CoversEveryIndexOnceInsideJobsAndPoolJobs) {
  for (std::size_t jobs = 1; jobs <= 8; ++jobs) {
    for (int hit : nested_hits(jobs)) EXPECT_EQ(hit, 1) << "jobs=" << jobs;
    // The same nest from inside jobs of a pool that is itself busy.
    JobPool pool{3};
    std::vector<std::vector<int>> from_pool(4);
    for (auto& slot : from_pool)
      pool.submit([&slot, jobs] { slot = nested_hits(jobs); });
    pool.wait_idle();
    for (const auto& hits : from_pool) {
      ASSERT_EQ(hits.size(), 6u * 37u);
      for (int hit : hits) EXPECT_EQ(hit, 1) << "pool, jobs=" << jobs;
    }
  }
}

TEST(NestedFanOut, FanOutFromAPoolWorkerRunsOnlyOnThatPoolsThreads) {
  constexpr std::size_t kThreads = 4;
  JobPool pool{kThreads};
  // Learn the pool's thread ids: kThreads jobs that rendezvous, so each
  // worker runs exactly one (and all are parked again afterwards).
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t arrived = 0;
  std::set<std::thread::id> pool_ids;
  for (std::size_t i = 0; i < kThreads; ++i)
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      pool_ids.insert(std::this_thread::get_id());
      if (++arrived == kThreads) cv.notify_all();
      cv.wait(lock, [&] { return arrived == kThreads; });
    });
  pool.wait_idle();
  ASSERT_EQ(pool_ids.size(), kThreads);

  // A 64-wide fan-out from one worker.  Index 0 waits until a second
  // thread has joined in, so the fan-out provably used a helper; the
  // other kThreads - 1 workers are idle, so one is offered.
  std::vector<std::thread::id> ran(64);
  std::set<std::thread::id> seen;
  pool.submit([&] {
    for_each_job(ran.size(), kThreads, [&](std::size_t i) {
      ran[i] = std::this_thread::get_id();
      std::unique_lock<std::mutex> lock(mutex);
      seen.insert(ran[i]);
      cv.notify_all();
      if (i == 0) cv.wait(lock, [&] { return seen.size() >= 2; });
    });
  });
  pool.wait_idle();
  EXPECT_GE(seen.size(), 2u);
  for (const std::thread::id& id : ran)
    EXPECT_EQ(pool_ids.count(id), 1u) << "fan-out ran on a thread outside "
                                         "the caller's pool";
}

// ------------------------------------------------------------ determinism

ExperimentConfig size3_config(std::size_t jobs) {
  ExperimentConfig config;
  config.sizes = {3};
  config.synth_timeout_seconds = 20.0;
  config.validate_timeout_seconds = 20.0;
  config.jobs = jobs;
  return config;
}

// The tentpole's core guarantee: everything except wall-clock timings is
// bit-identical between the serial harness and a 4-worker pool.
TEST(ParallelDeterminism, Table1IdenticalAcrossJobCounts) {
  const Table1Result serial = run_table1(size3_config(1));
  const Table1Result parallel = run_table1(size3_config(4));

  ASSERT_EQ(serial.strategies.size(), parallel.strategies.size());
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t s = 0; s < serial.cells.size(); ++s) {
    ASSERT_EQ(serial.cells[s].size(), parallel.cells[s].size())
        << serial.strategies[s].name();
    for (const auto& [size, cell] : serial.cells[s]) {
      auto it = parallel.cells[s].find(size);
      ASSERT_NE(it, parallel.cells[s].end());
      EXPECT_EQ(cell.cases, it->second.cases) << serial.strategies[s].name();
      EXPECT_EQ(cell.synthesized, it->second.synthesized)
          << serial.strategies[s].name();
      EXPECT_EQ(cell.valid, it->second.valid) << serial.strategies[s].name();
      EXPECT_EQ(cell.timeouts, it->second.timeouts)
          << serial.strategies[s].name();
    }
  }

  ASSERT_EQ(serial.candidates.size(), parallel.candidates.size());
  for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
    const CandidateRecord& a = serial.candidates[i];
    const CandidateRecord& b = parallel.candidates[i];
    EXPECT_EQ(a.model_name, b.model_name) << i;
    EXPECT_EQ(a.size, b.size) << i;
    EXPECT_EQ(a.integer_model, b.integer_model) << i;
    EXPECT_EQ(a.mode, b.mode) << i;
    EXPECT_EQ(a.strategy.name(), b.strategy.name()) << i;
    // Bit-identical matrices: each job runs the same serial computation on
    // its own case, so scheduling cannot change a single double.
    EXPECT_EQ(a.a.data(), b.a.data()) << i;
    EXPECT_EQ(a.p.data(), b.p.data()) << i;
  }
}

// ----------------------------------------------------------- cancellation

// A dense well-conditioned rational matrix whose exact Lyapunov solve is
// deliberately slow: the longest wait below is the 0.5 s budget, and the
// unbudgeted solve must outlast it at least tenfold.  Measured with the
// p-adic solver (RelWithDebInfo, 4-core x86-64 VM, SPIV_JOBS=4): n=18
// finishes in 0.3 s, n=28 in 5.2 s, n=32 (528 vech unknowns) in 9.3 s,
// about 19x the budget.
constexpr std::size_t kSlowSize = 32;

exact::RatMatrix slow_stable_matrix(std::size_t n) {
  exact::RatMatrix a{n, n};
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = exact::Rational{static_cast<std::int64_t>(i * j + i + 1),
                                static_cast<std::int64_t>(i + 2 * j + 3)};
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) -= exact::Rational{static_cast<std::int64_t>(10 * n), 1};
  return a;
}

TEST(Cancellation, SlowExactSolveTimesOutWithinTwiceDeadline) {
  const exact::RatMatrix a = slow_stable_matrix(kSlowSize);
  const exact::RatMatrix q = exact::RatMatrix::identity(kSlowSize);
  const double budget = 0.5;
  const auto t0 = Clock::now();
  EXPECT_THROW(
      {
        auto p = exact::solve_lyapunov_exact(a, q,
                                             Deadline::after_seconds(budget));
        (void)p;
      },
      TimeoutError);
  const double elapsed = seconds_since(t0);
  EXPECT_GE(elapsed, budget * 0.5);  // it did run up to the deadline
  EXPECT_LE(elapsed, budget * 2.0)
      << "deadline polling is too coarse: " << elapsed << " s";
}

// Cancels a token once the tick clock has been read kCancelRead times
// (0.2 s of tick time).  Reads from then on wait for the cancel, so no
// budget can run out first and the elapsed tick time cannot drift with
// thread scheduling.
class CancelAtRead {
 public:
  static constexpr std::int64_t kCancelRead = 200;

  explicit CancelAtRead(CancelToken token) : token_(std::move(token)) {}

  void on_read(std::int64_t tick) {
    if (tick < kCancelRead) return;
    std::unique_lock<std::mutex> lock(mutex_);
    reached_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return token_.cancelled(); });
  }

  /// Block until the kCancelRead-th read, then cancel.  Call from a
  /// thread that reads no clock.
  void cancel_at_read() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return reached_; });
    token_.cancel();
    cv_.notify_all();
  }

 private:
  CancelToken token_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool reached_ = false;
};

TEST(Cancellation, TokenCancelledFromAnotherThreadStopsSolve) {
  const exact::RatMatrix a = slow_stable_matrix(kSlowSize);
  const exact::RatMatrix q = exact::RatMatrix::identity(kSlowSize);
  CancelToken token;
  CancelAtRead cancel{token};
  ScopedTickClock clock{[&cancel](std::int64_t t) { cancel.on_read(t); }};
  // A saturated budget never runs out (only the token can stop this
  // solve), but unlike Deadline{} every poll reads the clock.
  const Deadline deadline = Deadline::after_seconds(1e18, token);
  const auto t0 = time_source::now();
  std::thread canceller([&cancel] { cancel.cancel_at_read(); });
  EXPECT_THROW(
      {
        auto p = exact::solve_lyapunov_exact(a, q, deadline);
        (void)p;
      },
      TimeoutError);
  canceller.join();
  const double elapsed = time_source::seconds_since(t0);
  EXPECT_LE(elapsed, 2.0) << "cancel took " << elapsed
                          << " s of tick time to be observed";
}

TEST(Cancellation, SharedTokenPreemptsQueuedDeadlines) {
  CancelToken token;
  CancelAtRead cancel{token};
  ScopedTickClock clock{[&cancel](std::int64_t t) { cancel.on_read(t); }};
  JobPool pool{2};
  std::atomic<int> timeouts{0};
  for (int i = 0; i < 2; ++i)
    pool.submit([&token, &timeouts] {
      const exact::RatMatrix a = slow_stable_matrix(kSlowSize);
      const exact::RatMatrix q = exact::RatMatrix::identity(kSlowSize);
      try {
        auto p = exact::solve_lyapunov_exact(
            a, q, Deadline::after_seconds(60.0, token));
        (void)p;
      } catch (const TimeoutError&) {
        timeouts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  cancel.cancel_at_read();
  pool.wait_idle();
  EXPECT_EQ(timeouts.load(), 2);
}

}  // namespace
}  // namespace spiv::core
