// spiv::core — work-stealing job pool for the experiment harness.
//
// The paper's evaluation (§VI) is embarrassingly parallel: Table I is
// strategies x model variants x modes of independent synthesis jobs, Fig. 3
// is candidates x validator engines, Table II is models x modes x
// strategies.  JobPool runs those case lists across worker threads with
// per-worker deques and work stealing, so one long eq-smt solve no longer
// serializes the whole table behind it.
//
// Determinism contract: callers enumerate their case list up front, each
// job writes only its own pre-allocated slot, and results are merged on the
// calling thread in case-index order — so parallel output is identical to
// the serial harness for everything that is not a wall-clock measurement.
//
// Fan-out (for_each_job / for_each_block) starts no threads and cancels
// nothing: helpers go to idle workers of the caller's own pool, so inside a
// busy pool it runs inline.  A job that should be stoppable binds its
// Deadline to a CancelToken its owner holds.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace spiv::core {

/// Strict worker-count parse: the whole string must be a positive decimal
/// integer in `long` range ("4abc", "-1", "3.5", "" all reject).  Used for
/// $SPIV_JOBS and the service's --jobs flag.
[[nodiscard]] std::optional<std::size_t> parse_jobs(const char* text);

/// Worker count to use: `requested` if nonzero, else $SPIV_JOBS, else
/// hardware_concurrency() (read once per process).  Always >= 1.
/// $SPIV_JOBS must pass parse_jobs (trailing junk rejects the value); both
/// it and explicit requests are capped at 8x hardware_concurrency().
/// Rejected or clamped values warn once on stderr.
[[nodiscard]] std::size_t resolve_jobs(std::size_t requested = 0);

/// Fixed-size work-stealing thread pool.  Jobs must not throw (wrap the
/// body and record failures in the job's result slot instead).
class JobPool {
 public:
  using Job = std::function<void()>;

  explicit JobPool(std::size_t threads);
  ~JobPool();

  JobPool(const JobPool&) = delete;
  JobPool& operator=(const JobPool&) = delete;

  /// Enqueue a job.  It goes to the idle worker that most recently
  /// finished a job of its own, so a lone sequential caller keeps reusing
  /// one warm worker (its caches and its malloc arena); with every worker
  /// busy, it goes round-robin onto their deques and idle workers steal
  /// it — or, with `only_if_idle`, is dropped and submit returns false.
  /// An `only_if_idle` job is a fan-out helper and does not count as the
  /// worker's own: a helper that finishes after its caller (it woke late,
  /// or its index ran long) parks below the caller, not on top of it.
  bool submit(Job job, bool only_if_idle = false);

  /// Block until every submitted job has finished.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  struct Task {
    Job job;
    bool helper;  ///< submitted with only_if_idle
  };
  struct Worker {
    std::mutex mutex;
    std::deque<Task> jobs;
    std::condition_variable wake;  ///< handed a job, or stop
    bool parked = true;  ///< on idle_, as from the start (signal_mutex_)
    /// own_jobs_ when this worker last parked after a non-helper job; 0
    /// if it never ran one (signal_mutex_).
    std::uint64_t last_own = 0;
  };

  void run_worker(std::size_t self);
  bool try_pop(std::size_t self, Task& out);
  [[nodiscard]] bool any_work() const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  mutable std::mutex signal_mutex_;
  std::condition_variable idle_cv_;  ///< wait_idle: pending reached zero
  std::size_t pending_ = 0;          ///< submitted but not yet finished
  bool stop_ = false;
  /// Parked workers in ascending Worker::last_own order, so the one that
  /// most recently finished a non-helper job is on top.  A worker parks in
  /// the same critical section that retires its last job, so once
  /// wait_idle returns, that order is settled.
  std::vector<std::size_t> idle_;
  std::uint64_t own_jobs_ = 0;  ///< parks after a non-helper job so far
  std::size_t next_worker_ = 0;  ///< round-robin cursor when none is idle
  // Pool observability (global registry, shared by every pool in the
  // process): resolved once here so the submit/pop path never locks it.
  obs::Gauge& queue_depth_;      ///< submitted, not yet popped by a worker
  obs::Counter& jobs_executed_;  ///< jobs run to completion
  obs::Counter& steals_;         ///< pops from another worker's deque
};

/// Run body(i) for every i in [0, n), at most `jobs` wide (after
/// resolve_jobs; jobs <= 1 runs inline, reproducing the serial harness
/// exactly).  Helpers go only to idle workers of the calling thread's pool
/// (a process pool, built on first use, for a thread outside any pool).
/// The caller claims indices too and waits only for indices another thread
/// has started, so a nested call cannot deadlock or run an unrelated job.
/// The body must not throw; invocation i should write only slot i.
void for_each_job(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& body);

/// Run body(begin, end) over a partition of [0, n) into at most `jobs`
/// contiguous near-equal blocks (block-cyclic would interleave writes;
/// contiguous blocks keep each worker on its own cache lines).  Used where
/// per-item work is small and uniform — e.g. the per-entry folds of the
/// multi-modular solver — so one job per item would drown in claim
/// overhead.  Same contract as for_each_job.
void for_each_block(
    std::size_t n, std::size_t jobs,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace spiv::core
