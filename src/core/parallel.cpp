#include "core/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <iostream>

#include "core/env.hpp"

namespace spiv::core {

namespace {

/// One stderr warning per process for an over-cap jobs request (the
/// malformed-value warning lives in core::env, next to the parse).
void warn_jobs_once(const std::string& message) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) std::cerr << "spiv: " << message << "\n";
}

/// Hardware thread count, never zero.  Read once: hardware_concurrency()
/// is a sysfs read, and every fan-out resolves its width.
std::size_t hardware_jobs() {
  static const std::size_t hw =
      std::max(std::thread::hardware_concurrency(), 1u);
  return hw;
}

/// Oversubscribing a work-stealing pool beyond a few threads per core only
/// adds contention; treat anything past 8x the hardware as a typo.
std::size_t jobs_cap() { return 8 * hardware_jobs(); }

/// The pool whose worker is running on this thread; nullptr outside any.
thread_local JobPool* t_pool = nullptr;

}  // namespace

std::optional<std::size_t> parse_jobs(const char* text) {
  return env::parse_positive(text);
}

std::size_t resolve_jobs(std::size_t requested) {
  const std::size_t cap = jobs_cap();
  if (requested > 0) {
    if (requested <= cap) return requested;
    warn_jobs_once("requested " + std::to_string(requested) +
                   " jobs exceeds " + std::to_string(cap) +
                   " (8x hardware_concurrency); using " + std::to_string(cap));
    return cap;
  }
  // env::jobs() warns once on malformed values and reads as nullopt.
  if (const std::optional<std::size_t> v = env::jobs()) {
    if (*v <= cap) return *v;
    warn_jobs_once("SPIV_JOBS=" + std::to_string(*v) + " exceeds " +
                   std::to_string(cap) + " (8x hardware_concurrency); using " +
                   std::to_string(cap));
    return cap;
  }
  return hardware_jobs();
}

JobPool::JobPool(std::size_t threads)
    : queue_depth_(obs::Registry::global().gauge("spiv_pool_queue_depth")),
      jobs_executed_(
          obs::Registry::global().counter("spiv_pool_jobs_executed_total")),
      steals_(obs::Registry::global().counter("spiv_pool_steals_total")) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    idle_.push_back(i);  // idle before its thread runs: fan-outs can use it
  }
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    threads_.emplace_back([this, i] { run_worker(i); });
}

JobPool::~JobPool() {
  {
    std::lock_guard<std::mutex> lock(signal_mutex_);
    stop_ = true;
  }
  for (auto& w : workers_) w->wake.notify_all();
  for (auto& t : threads_) t.join();
}

bool JobPool::submit(Job job, bool only_if_idle) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(signal_mutex_);
    if (!idle_.empty()) {
      target = idle_.back();
      idle_.pop_back();
      workers_[target]->parked = false;
    } else if (only_if_idle) {
      return false;
    } else {
      target = next_worker_;
      next_worker_ = (next_worker_ + 1) % workers_.size();
    }
    ++pending_;
    // Pushed under signal_mutex_, so a worker deciding to park (which
    // checks any_work() under it too) cannot miss this job.
    std::lock_guard<std::mutex> wlock(workers_[target]->mutex);
    workers_[target]->jobs.push_back({std::move(job), only_if_idle});
  }
  queue_depth_.add(1);
  workers_[target]->wake.notify_one();
  return true;
}

void JobPool::wait_idle() {
  std::unique_lock<std::mutex> lock(signal_mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

bool JobPool::any_work() const {
  for (const auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mutex);
    if (!w->jobs.empty()) return true;
  }
  return false;
}

bool JobPool::try_pop(std::size_t self, Task& out) {
  // Own deque first (LIFO end for locality) ...
  {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.jobs.empty()) {
      out = std::move(w.jobs.back());
      w.jobs.pop_back();
      queue_depth_.sub(1);
      return true;
    }
  }
  // ... then steal from the front of the other deques (oldest job first,
  // which keeps stolen work close to submission order).
  const std::size_t n = workers_.size();
  for (std::size_t k = 1; k < n; ++k) {
    Worker& w = *workers_[(self + k) % n];
    std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.jobs.empty()) {
      out = std::move(w.jobs.front());
      w.jobs.pop_front();
      queue_depth_.sub(1);
      steals_.add(1);
      return true;
    }
  }
  return false;
}

void JobPool::run_worker(std::size_t self) {
  t_pool = this;
  Worker& me = *workers_[self];
  bool ran_own = false;  // a non-helper job since this worker last parked
  for (;;) {
    Task task;
    const bool ran = try_pop(self, task);
    if (ran) {
      task.job();
      task.job = nullptr;  // release captures before the job counts as done
      ran_own = ran_own || !task.helper;
      jobs_executed_.add(1);
    }
    std::unique_lock<std::mutex> lock(signal_mutex_);
    if (ran && --pending_ == 0) idle_cv_.notify_all();
    if (any_work()) continue;
    if (stop_) return;
    if (!me.parked) {
      // idle_ stays in last_own order; a helper-only stretch keeps the
      // worker's old rank.
      if (ran_own) me.last_own = ++own_jobs_;
      idle_.insert(std::upper_bound(idle_.begin(), idle_.end(), me.last_own,
                                    [this](std::uint64_t v, std::size_t w) {
                                      return v < workers_[w]->last_own;
                                    }),
                   self);
    }
    ran_own = false;
    me.parked = true;
    me.wake.wait(lock, [this, &me] { return stop_ || !me.parked; });
  }
}

namespace {

/// One fan-out's shared claim state.  Helpers hold it by shared_ptr: a
/// helper that starts after the caller has returned finds no index left
/// and touches nothing else.
struct FanOut {
  /// Claim and run indices until none is left.  noexcept: a throwing body
  /// ends the process on the caller's thread as on a helper's.
  void work() noexcept {
    std::size_t ran = 0;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      (*body)(i);
      ++ran;
    }
    if (ran == 0) return;  // claimed nothing: the caller waits for no one
    std::lock_guard<std::mutex> lock(mutex);
    if ((finished += ran) == n) all_done.notify_all();
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* body;  ///< valid while n unfinished
  std::atomic<std::size_t> next = 0;
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t finished = 0;  ///< indices run to completion (guarded by mutex)
};

/// The pool of a fan-out whose caller belongs to no pool, built on first
/// use with resolve_jobs() workers.
JobPool& process_pool() {
  static JobPool pool{resolve_jobs()};
  return pool;
}

}  // namespace

void for_each_job(std::size_t n, std::size_t jobs,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t width = std::min(resolve_jobs(jobs), n);
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  JobPool& pool = t_pool ? *t_pool : process_pool();
  const auto fan = std::make_shared<FanOut>(n, &body);
  for (std::size_t h = 1; h < width; ++h)
    if (!pool.submit([fan] { fan->work(); }, /*only_if_idle=*/true)) break;
  fan->work();
  // Every index is claimed by now, and a claimed index is a started one.
  std::unique_lock<std::mutex> lock(fan->mutex);
  fan->all_done.wait(lock, [&fan] { return fan->finished == fan->n; });
}

void for_each_block(
    std::size_t n, std::size_t jobs,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t width = std::min(resolve_jobs(jobs), n);
  const std::size_t chunk = (n + width - 1) / width;
  const std::size_t blocks = (n + chunk - 1) / chunk;  // no empty tail block
  for_each_job(blocks, width, [&body, n, chunk](std::size_t b) {
    const std::size_t begin = b * chunk;
    body(begin, std::min(n, begin + chunk));
  });
}

}  // namespace spiv::core
